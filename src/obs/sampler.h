// Fleet observability: periodic sampler for long runs.
//
// A PeriodicSampler turns point-in-time process/fleet facts into gauges on
// the active Registry and, when a TimelineWriter / HealthMonitor is
// installed, feeds both from one merged snapshot per fleet day. The obs
// layer takes plain numbers (FleetDayFacts) so it depends on nothing above
// `common` — FleetRunner fills the facts for every fleet day from its merged
// FleetAccumulator, reconstructing interior day boundaries from the in-band
// per-day totals each leg collects, which is where a long-lived fleet daemon
// exports health.
//
// The facts-derived gauges (`sim.fleet.*` except the sessions/sec rate) are
// pure functions of (config, seed, day): they form the timeline's
// deterministic section and are bitwise stable across thread count,
// sharding, predictor batching and checkpoint/kill/resume splices.
// The rate, RSS and occupancy gauges measure the machine and stay
// wall-clock.
#pragma once

#include <cstdint>

namespace lingxi::obs {

class Registry;

/// Current resident-set size in bytes (0 where unsupported; Linux reads
/// /proc/self/statm).
std::uint64_t process_rss_bytes() noexcept;
/// Peak resident-set size in bytes over the process lifetime (0 where
/// unsupported; Linux reads VmHWM from /proc/self/status).
std::uint64_t process_peak_rss_bytes() noexcept;

/// Fleet facts at one day boundary, all derived from the merged
/// FleetAccumulator (plus the calendar), so every field is deterministic
/// and splice-invariant.
struct FleetDayFacts {
  std::uint64_t day = 0;         ///< first day a resumed run would simulate
  std::uint64_t live_users = 0;
  std::uint64_t sessions_total = 0;
  std::uint64_t completed_total = 0;
  std::uint64_t stall_events_total = 0;
  std::uint64_t stall_exits_total = 0;
  std::uint64_t quality_switches_total = 0;
  std::uint64_t lingxi_optimizations_total = 0;
  std::uint64_t adjusted_user_days_total = 0;
  double watch_seconds_total = 0.0;
  double stall_seconds_total = 0.0;
  double mean_bitrate_kbps = 0.0;
  double completion_rate = 0.0;
};

class PeriodicSampler {
 public:
  /// Samples write to `registry`; a null registry makes sample() a no-op.
  /// `base_sessions` seeds the rate window (resumed runs pass the sessions
  /// already accumulated before this run).
  explicit PeriodicSampler(Registry* registry,
                           std::uint64_t base_sessions = 0) noexcept;

  /// Record one sample at the current steady-clock time:
  ///   * one deterministic `sim.fleet.*` gauge per FleetDayFacts field
  ///     (day, live_users, sessions_total, completed_total, ...);
  ///   * wall-clock gauges `sim.fleet.sessions_per_sec` (only once a real
  ///     window exists — never on the first sample, and a zero-microsecond
  ///     resample neither publishes nor collapses the window),
  ///     `process.rss_bytes`, `process.rss_peak_bytes`, and
  ///     `predictor.pool.mean_flush_occupancy` when the pool counters exist;
  ///   * then one merged snapshot feeds TimelineWriter::active() (a day
  ///     record) and HealthMonitor::active() (SLO evaluation), when
  ///     installed.
  void sample(const FleetDayFacts& facts);
  /// sample() with an injected clock (microseconds, monotonic) — the rate
  /// window is testable without real elapsed time.
  void sample_at(const FleetDayFacts& facts, std::uint64_t now_us);

 private:
  Registry* registry_;
  std::uint64_t last_sessions_;
  std::uint64_t last_us_ = 0;
  bool have_last_ = false;
};

}  // namespace lingxi::obs
