// Fleet observability: RAII scoped timers.
//
// OBS_TIMED("layer.component.phase_us") measures the enclosing scope with a
// steady clock read in nanoseconds and records the elapsed time as
// fractional microseconds into the active Registry's latency histogram, so
// a sub-microsecond stage records its true cost rather than 0;
// OBS_TIMED_SPAN(...) additionally emits the same interval as a trace span
// (integer microseconds, the tracer's time base). When neither sink is
// installed a site costs ~one atomic load plus a branch — the clock is only
// read when something is listening.
#pragma once

#include <chrono>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace lingxi::obs {

/// Times its scope into `Registry::observe(name, latency_us(), elapsed_us)`
/// and, when `trace` is set, into the active tracer under the same name.
/// `name` must be a string literal.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name, bool trace = false) noexcept
      : registry_(Registry::active()),
        tracer_(trace ? Tracer::active() : nullptr), name_(name),
        begin_ns_(registry_ != nullptr || tracer_ != nullptr ? now_ns() : 0) {}
  ~ScopedTimer() {
    if (registry_ == nullptr && tracer_ == nullptr) return;
    const std::uint64_t end_ns = now_ns();
    if (registry_ != nullptr) {
      registry_->observe(name_, HistogramSpec::latency_us(),
                         static_cast<double>(end_ns - begin_ns_) * 1e-3);
    }
    // Same clock as Tracer::now_us(), so ns / 1000 is its timestamp.
    if (tracer_ != nullptr) tracer_->record(name_, begin_ns_ / 1000, end_ns / 1000);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  static std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  Registry* registry_;
  Tracer* tracer_;
  const char* name_;
  std::uint64_t begin_ns_;
};

}  // namespace lingxi::obs

/// Time the enclosing scope into the latency histogram `name` (literal).
#define OBS_TIMED(name)                                      \
  ::lingxi::obs::ScopedTimer LINGXI_OBS_CONCAT(obs_timed_,   \
                                               __COUNTER__)( \
      name, /*trace=*/false)

/// Time the enclosing scope into histogram `name` AND emit it as a span.
#define OBS_TIMED_SPAN(name)                                 \
  ::lingxi::obs::ScopedTimer LINGXI_OBS_CONCAT(obs_timed_,   \
                                               __COUNTER__)( \
      name, /*trace=*/true)
