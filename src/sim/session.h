// Session simulation: one video playback driven by a bitrate selector and
// an exit model.
//
// The same loop serves two roles, matching the paper:
//   * generating "real" synthetic sessions for the production-environment
//     substitute (user models from lingxi::user decide exits), and
//   * LingXi's Monte Carlo virtual playback (the exit-rate predictor supplies
//     exit probabilities) — see monte_carlo.h.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/running_stats.h"
#include "common/units.h"
#include "sim/player_env.h"
#include "trace/bandwidth.h"
#include "trace/video.h"

namespace lingxi::sim {

/// Everything an ABR algorithm may look at before choosing the next level.
struct AbrObservation {
  Seconds buffer = 0.0;
  Seconds buffer_max = 0.0;
  std::size_t last_level = 0;          ///< level of the previous segment
  bool first_segment = true;
  /// Recent throughput samples, oldest first (window kept by the session).
  std::vector<Kbps> throughput_history;
  std::vector<Seconds> download_time_history;
  const trace::Video* video = nullptr;  ///< for upcoming segment sizes
  std::size_t next_segment = 0;
  Seconds rtt = 0.0;
};

/// Per-segment playback record — the unit of the paper's trajectory logs.
struct SegmentRecord {
  std::size_t index = 0;
  /// Media time at which this segment starts playing (seconds into the
  /// session) — drives engagement-dependent exit behaviour.
  Seconds position = 0.0;
  std::size_t level = 0;
  Kbps bitrate = 0.0;
  Bytes size = 0.0;
  Kbps throughput = 0.0;
  Seconds download_time = 0.0;
  Seconds stall_time = 0.0;
  Seconds buffer_before = 0.0;
  Seconds buffer_after = 0.0;
  /// Cumulative stall time in the session up to and including this segment.
  Seconds cumulative_stall = 0.0;
  std::size_t cumulative_stall_events = 0;
};

/// Interface implemented by every ABR algorithm (lingxi::abr) — returns the
/// ladder level for the next segment.
class BitrateSelector {
 public:
  virtual ~BitrateSelector() = default;
  virtual std::size_t select(const AbrObservation& obs) = 0;
  /// Reset per-session state (throughput estimators etc.).
  virtual void reset() {}
};

/// Interface implemented by user models and by the LingXi exit predictor
/// bridge: probability that the viewer exits right after this segment.
class ExitModel {
 public:
  virtual ~ExitModel() = default;
  virtual void begin_session() {}
  virtual double exit_probability(const SegmentRecord& segment) = 0;
};

/// Factory + batched evaluator for per-rollout exit models — what the Monte
/// Carlo engine (RolloutWave, which MonteCarloEvaluator::evaluate_rollouts
/// drives) needs from the predictor side. The prepare()/flush() split lets
/// cheap decisions (e.g. non-stalled segments, which skip the net entirely)
/// resolve inline while expensive ones accumulate across rollouts into one
/// batched forward. For any model the prepare()+flush() probabilities must
/// be bitwise identical to exit_probability() on the same segment sequence,
/// however the queries are grouped into flushes — the contract that keeps
/// fleet checksums identical across wave widths and shard sizes.
class BatchExitEvaluator {
 public:
  virtual ~BatchExitEvaluator() = default;
  /// Fresh exit model seeded with the live user state. Each rollout gets its
  /// own instance so independent sessions can advance in lockstep.
  virtual std::unique_ptr<ExitModel> make_model() const = 0;
  /// Advance `model` (a make_model() instance) with `segment`. When the exit
  /// probability is cheap to produce inline, write it to `out` and return
  /// true. Otherwise park the prepared query — order is remembered — for the
  /// next flush() and return false.
  virtual bool prepare(ExitModel& model, const SegmentRecord& segment,
                       double& out) const = 0;
  /// Evaluate every parked query as one batch, write the probabilities in
  /// park order, clear the parking lot, and return the count written.
  virtual std::size_t flush(double* out) const = 0;
  /// Drop any parked queries unevaluated — called when the driver abandons
  /// in-flight rollouts (pruning), whose queries would otherwise dangle.
  virtual void discard_parked() const = 0;
};

/// Result of one simulated playback session.
struct SessionResult {
  std::vector<SegmentRecord> segments;
  bool exited = false;              ///< user left before the video ended
  Seconds watch_time = 0.0;         ///< media seconds actually watched
  /// Time to first frame (the cold-start starvation of segment 0). Reported
  /// separately from rebuffering, as production players do.
  Seconds startup_delay = 0.0;
  Seconds total_stall = 0.0;
  std::size_t stall_events = 0;
  std::size_t quality_switches = 0;
  double mean_bitrate = 0.0;        ///< kbps averaged over watched segments
  bool completed() const noexcept { return !exited; }
};

/// A stall-driven exit (§5.5.1): the user left at the stalled segment or the
/// one right after it. `stall_threshold` filters sub-perceptual rebuffers.
bool exited_during_stall(const SessionResult& session,
                         Seconds stall_threshold = 0.05) noexcept;

/// QoE_lin (Eq. 1) of a finished session:
///   sum q(Q_k) - mu * sum stall_k - lambda * sum |q(Q_{k+1}) - q(Q_k)|.
/// The paper uses lambda = 1; both weights are explicit here.
double qoe_lin(const SessionResult& session, const trace::BitrateLadder& ladder,
               trace::QualityMetric metric, double stall_weight, double switch_weight = 1.0);

/// Simulates whole sessions.
class SessionSimulator {
 public:
  struct Config {
    PlayerConfig player;
    std::size_t throughput_window = 8;  ///< history length exposed to the ABR
    /// Stall shorter than this does not count as a user-visible stall event
    /// (sub-perceptual rebuffer).
    Seconds stall_event_threshold = 0.05;
    /// Re-derive B_max from the running bandwidth estimate every segment.
    bool adaptive_buffer_max = true;
  };

  explicit SessionSimulator(Config config) : config_(config) {}

  /// Play `video` through `abr` over `bandwidth`; `exit_model` may be null
  /// (never exits). Stops at video end or user exit.
  SessionResult run(const trace::Video& video, BitrateSelector& abr,
                    trace::BandwidthModel& bandwidth, ExitModel* exit_model, Rng& rng) const;

  const Config& config() const noexcept { return config_; }

 private:
  Config config_;
};

/// Incremental form of SessionSimulator::run: simulates one segment at a
/// time and pauses at the exit decision, so many independent sessions can
/// advance in lockstep with their exit probabilities evaluated as one batch
/// (Monte Carlo rollout batching). SessionSimulator::run is implemented on
/// top of this stepper, so driving it manually reproduces run() exactly,
/// rng draw for rng draw.
///
/// Protocol: advance() simulates the next segment and returns its record,
/// pending an exit decision — the caller must then call either resolve(p)
/// (draws the exit coin from the session rng, like run() with an exit model)
/// or skip() (no draw, like run() without one) before the next advance().
/// advance() returns nullptr once the session is over (video ended or the
/// viewer exited); take_result() then yields the final SessionResult.
///
/// The referenced simulator, video, abr, bandwidth model and rng must
/// outlive the stepper. Construction resets the ABR (as run() does); it does
/// NOT call ExitModel::begin_session — the stepper never sees an exit model.
class SessionStepper {
 public:
  SessionStepper(const SessionSimulator& sim, const trace::Video& video,
                 BitrateSelector& abr, trace::BandwidthModel& bandwidth, Rng& rng);

  const SegmentRecord* advance();
  void resolve(double exit_probability);
  void skip() noexcept;
  bool done() const noexcept { return done_; }
  SessionResult take_result();

 private:
  void finalize();

  const SessionSimulator& sim_;
  const trace::Video& video_;
  BitrateSelector& abr_;
  trace::BandwidthModel& bandwidth_;
  Rng& rng_;

  PlayerEnv env_;
  SessionResult result_;
  AbrObservation obs_;
  RunningStats bw_stats_;
  RunningStats bitrate_stats_;
  Seconds cumulative_stall_ = 0.0;
  std::size_t stall_events_ = 0;
  std::size_t next_segment_ = 0;
  bool pending_ = false;
  bool done_ = false;
};

}  // namespace lingxi::sim
