// Measurement probes for the LingXi benchmark.
//
// Everything here observes the library from outside: clocks around the
// benchmark's own calls, wrappers around the public virtual seams the fleet
// calls back through (abr::AbrAlgorithm, telemetry::TelemetrySink), and an
// in-memory span log written out when a traced run ends. No probe changes a
// simulation result: the wrappers forward every call unchanged, and the
// traced-run parity checks compare checksums against untraced runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "abr/abr.h"
#include "telemetry/sink.h"

namespace lingxi::perfbench {

/// Monotonic wall clock, nanoseconds.
std::uint64_t wall_ns() noexcept;
/// CPU time of the whole process (all threads), seconds.
double process_cpu_s() noexcept;
/// CPU time of the calling thread, seconds.
double thread_cpu_s() noexcept;

/// Sample set with the order statistics the report needs.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t size() const noexcept { return values_.size(); }
  double sum() const noexcept;
  double mean() const noexcept;
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  const std::vector<double>& values() const noexcept { return values_; }

 private:
  std::vector<double> values_;
};

/// One traced interval. `parent` is the id of the enclosing span (0 = root);
/// `subject` names what the span works on: an arm, a fleet pass or a user.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::string subject;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// In-memory span log, written as Chrome trace_event JSON when the run ends.
/// Spans are coarse (one per call into a layer the benchmark makes itself);
/// per-call hooks inside the fleet aggregate in CallTally instead.
class SpanLog {
 public:
  std::uint64_t begin(std::string name, std::uint64_t parent, std::string subject);
  /// Closes span `id` and returns its duration in seconds.
  double end(std::uint64_t id);
  std::size_t size() const;
  /// Writes the log plus a provenance record; false on I/O failure.
  bool write_chrome_json(const std::string& path, const std::string& provenance_json) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span: opens on construction, closes on destruction or stop().
/// A null log makes it a plain stopwatch.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::uint64_t parent, std::string subject);
  ~ScopedSpan() { stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  /// Closes the span (idempotent) and returns its duration in seconds.
  double stop();
  std::uint64_t id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  std::uint64_t id_ = 0;
  std::uint64_t start_ns_;
  double elapsed_s_ = -1.0;
};

/// Call count and busy nanoseconds of one hook, aggregated per thread: each
/// recording thread owns a slot (single writer), and totals() sums the slots
/// once the recording threads have joined.
class CallTally {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
  };
  void record(std::uint64_t ns) noexcept;
  Totals totals() const;

 private:
  struct Slot {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> ns{0};
  };
  Slot& local_slot();

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Slot>> slots_;  // guarded by mu_
};

/// Counters the ABR wrapper feeds.
struct AbrProbe {
  CallTally select;
  std::atomic<std::uint64_t> clones{0};
};

/// Forwards every call to the wrapped ABR and times select(). clone()
/// returns a wrapped clone, so Monte Carlo rollouts (which clone the live
/// ABR) are measured too. params() is kept equal to the wrapped ABR's.
class ProbedAbr final : public abr::AbrAlgorithm {
 public:
  ProbedAbr(std::unique_ptr<abr::AbrAlgorithm> inner, AbrProbe& probe);

  std::size_t select(const sim::AbrObservation& obs) override;
  void reset() override { inner_->reset(); }
  std::string name() const override { return inner_->name(); }
  void set_params(const abr::QoeParams& params) override;
  std::unique_ptr<abr::AbrAlgorithm> clone() const override;

 private:
  std::unique_ptr<abr::AbrAlgorithm> inner_;
  AbrProbe& probe_;
};

/// Forwards to a TelemetrySink and times record_session().
class ProbedSink final : public telemetry::TelemetrySink {
 public:
  ProbedSink(telemetry::TelemetrySink& inner, CallTally& record_session)
      : inner_(inner), record_session_(record_session) {}

  void begin_fleet(const sim::FleetConfig& config, std::uint64_t seed) override {
    inner_.begin_fleet(config, seed);
  }
  void record_session(const telemetry::SessionContext& ctx,
                      const sim::SessionResult& session) override;
  void record_user(const telemetry::UserTelemetry& user) override {
    inner_.record_user(user);
  }

 private:
  telemetry::TelemetrySink& inner_;
  CallTally& record_session_;
};

}  // namespace lingxi::perfbench
