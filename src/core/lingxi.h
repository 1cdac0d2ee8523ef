// LingXi: the user-level QoE adjustment controller (Algorithm 1).
//
// One LingXi instance accompanies one user. During playback it ingests
// per-segment records (building the engagement state and the client-side
// bandwidth distribution N(mu, sigma^2)). When the user has accumulated more
// than `trigger_stall_threshold` stall events since the last optimization,
// the next maybe_optimize() call runs one OBO round:
//
//   OBO.init(x*, N, S, E_player)
//   while sample_time < T_s:
//       x      <- OBO.next_candidate()
//       R_exit <- EvaluateParameters(x, N, S, E_player)     // Monte Carlo
//       OBO.update(x, R_exit); track the best x*
//   ABR.update(x*)
//
// Deployment behaviours from §4 are implemented here too:
//   * trigger threshold eta = 2 stall events (Fig. 8 trade-off);
//   * pre-playback pruning — skip optimization when mu - 3*sigma > Q_max
//     (stalls are statistically impossible, nothing to personalize);
//   * virtual-playback pruning — inherited from sim::MonteCarloEvaluator;
//   * durable long-term state via snapshot()/restore() (logstore).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>

#include "abr/abr.h"
#include "bayesopt/obo.h"
#include "logstore/state_store.h"
#include "predictor/hybrid.h"
#include "sim/monte_carlo.h"

namespace lingxi::core {

struct LingXiConfig {
  abr::ParamSpace space;
  abr::QoeParams default_params;
  /// eta: stall events since the last optimization needed to trigger OBO.
  std::size_t trigger_stall_threshold = 2;
  /// T_s: candidate evaluations per OBO round.
  std::size_t obo_rounds = 8;
  sim::MonteCarloConfig monte_carlo;
  sim::SessionSimulator::Config virtual_session;
  bayesopt::OnlineBayesOpt::Config obo;
  bool enable_preplay_pruning = true;
  /// Temporal correlation assumed for rollout bandwidth. 0 reproduces the
  /// paper's iid N(mu, sigma^2) draws (Eq. 3); positive values roll out an
  /// AR(1) process with the same stationary distribution, which models the
  /// sustained dips that actually cause stalls on real links.
  double rollout_rho = 0.85;
  /// Robust-control bias for rollouts: the virtual network's mean is
  /// mu - rollout_pessimism * sigma. The client window lags session-level
  /// network shifts, so evaluating candidates against a lower quantile keeps
  /// over-aggressive parameters from looking safe.
  double rollout_pessimism = 0.5;
  /// "No Negative Influence" (Table 1): a challenger is adopted only when
  /// its estimated exit rate undercuts the incumbent's estimate by this
  /// relative margin, so Monte Carlo noise cannot ratchet the user onto
  /// worse parameters. The incumbent is always evaluated first.
  double adoption_margin = 0.2;
  /// Rolling window for the client bandwidth distribution estimate.
  std::size_t bandwidth_window = 64;
  Seconds segment_duration = 1.0;
  /// L(F) mode (§5.2): when non-empty, each optimization evaluates exactly
  /// this fixed candidate list instead of OBO proposals. Empty = L(B), full
  /// Bayesian optimization.
  std::vector<abr::QoeParams> fixed_candidates;

  LingXiConfig();
};

/// Counters for the ablation benches and deployment monitoring.
struct LingXiStats {
  std::uint64_t triggers = 0;             ///< threshold crossings observed
  std::uint64_t optimizations_run = 0;    ///< OBO rounds actually executed
  std::uint64_t pruned_preplay = 0;       ///< skipped via mu-3sigma rule
  std::uint64_t mc_evaluations = 0;       ///< candidate evaluations
  std::uint64_t mc_rollouts_pruned = 0;   ///< Monte Carlo early exits
};

class LingXi {
 public:
  /// `ladder` must match the videos served to this user. `predictor` is
  /// BORROWED, not copied — inference is const and pure in (weights, input)
  /// and LingXi never mutates the net, so any number of users on any number
  /// of threads can share one predictor (the fleet runner shares one per
  /// run). The caller keeps it alive for the LingXi's lifetime; copying the
  /// ~MB-scale net per user was the dominant cost of (re)building per-user
  /// state whenever chained legs or churn re-created user slots.
  LingXi(LingXiConfig config, const predictor::HybridExitPredictor& predictor,
         trace::BitrateLadder ladder);
  /// Passing a temporary predictor would dangle — hold it in a named object.
  LingXi(LingXiConfig, predictor::HybridExitPredictor&&, trace::BitrateLadder) = delete;

  /// -- live playback hooks -------------------------------------------------
  void begin_session();
  /// Feed the segment just played (drives engagement state, bandwidth model
  /// and the trigger counter).
  void on_segment(const sim::SegmentRecord& segment);
  /// The session ended; `exited_during_stall` marks a stall-driven exit
  /// (feeds the stall-exit engagement channel).
  void end_session(bool exited_during_stall);

  /// -- optimization --------------------------------------------------------
  /// True when the trigger condition (stall_count > eta) holds.
  bool should_optimize() const noexcept;

  /// One OBO round (Algorithm 1 lines 6-20) in resumable form, so a wave
  /// scheduler can interleave many users' optimizations and pool their
  /// predictor flushes. step() advances the candidate loop until every live
  /// Monte Carlo rollout has parked an exit query (returns false — with a
  /// pool, the caller must flush it before the next step(); without one,
  /// the next step() flushes the wave itself) or the round is complete
  /// (returns true; the ABR carries the final parameters). Every round runs
  /// as a sim::RolloutWave; batch_size 1 is a width-1 wave.
  /// Driving a run to completion is bitwise identical to maybe_optimize()
  /// regardless of how steps interleave with other users' runs.
  class OptimizationRun {
   public:
    OptimizationRun(const OptimizationRun&) = delete;
    OptimizationRun& operator=(const OptimizationRun&) = delete;

    /// True when finished; false when parked on predictor queries. Each
    /// round-boundary fit (GP update with the round's Monte Carlo result,
    /// then the next candidate's acquisition sweep or the adoption
    /// decision) runs inline, on the stepping thread, as soon as the round's
    /// wave completes; each fit is one `sim.wave.fits_us` observation and
    /// one `wave.fits` span. Once finished, the live ABR carries the adopted
    /// parameters (LingXi::current_params()).
    bool step();
    bool done() const noexcept { return done_; }

   private:
    friend class LingXi;
    OptimizationRun(LingXi& owner, abr::AbrAlgorithm& abr, Seconds current_buffer,
                    Rng& rng, predictor::ExitQueryPool* pool, std::uint32_t user_tag,
                    Kbps bw_mean, Kbps bw_sd);
    void start_wave();
    void finish_round(const sim::MonteCarloResult& mc);
    void finish();

    /// Candidate-draw half of a round: the next OBO (or fixed) candidate and
    /// the rollout ABR prototype carrying it.
    void begin_candidate();
    double prune_bound() const noexcept;

    LingXi& owner_;
    abr::AbrAlgorithm& abr_;
    Rng& rng_;
    Seconds current_buffer_;
    sim::MonteCarloEvaluator evaluator_;
    trace::Video virtual_video_;
    std::unique_ptr<trace::BandwidthModel> bandwidth_model_;
    predictor::BatchPredictorExitEvaluator exit_eval_;
    bayesopt::OnlineBayesOpt obo_;
    bool fixed_mode_;
    std::size_t rounds_;
    std::size_t round_ = 0;
    double best_exit_;
    abr::QoeParams best_params_;
    double incumbent_exit_;
    std::vector<double> x_;         ///< current candidate, unit coordinates
    abr::QoeParams candidate_;
    std::unique_ptr<abr::AbrAlgorithm> rollout_abr_;
    std::unique_ptr<sim::RolloutWave> wave_;
    bool done_ = false;
  };

  /// Begin an optimization if triggered: the trigger/bandwidth/pre-playback
  /// checks (and their stats side effects) run immediately; nullptr means no
  /// optimization happens this session. With `pool` (built over this
  /// LingXi's predictor), Monte Carlo exit queries park there under
  /// (user_tag, rollout, segment) for a fleet-wide flush between steps;
  /// without one each wave flushes itself.
  std::unique_ptr<OptimizationRun> begin_optimization(
      abr::AbrAlgorithm& abr, Seconds current_buffer, Rng& rng,
      predictor::ExitQueryPool* pool = nullptr, std::uint32_t user_tag = 0);

  /// Run one OBO round to completion if triggered. `abr` is the live
  /// algorithm: used as the rollout prototype and updated in place with the
  /// optimized parameters. `current_buffer` seeds the virtual player.
  /// Returns the new parameters when an optimization ran. Each wave flushes
  /// its own parked queries (no pool).
  std::optional<abr::QoeParams> maybe_optimize(abr::AbrAlgorithm& abr,
                                               Seconds current_buffer, Rng& rng);

  /// -- state ---------------------------------------------------------------
  const abr::QoeParams& current_params() const noexcept { return current_params_; }
  const predictor::EngagementState& engagement() const noexcept { return engagement_; }
  const LingXiStats& stats() const noexcept { return stats_; }
  /// Client bandwidth distribution estimate (mean, sd) in kbps.
  std::pair<Kbps, Kbps> bandwidth_estimate() const;

  logstore::UserState snapshot() const;
  void restore(const logstore::UserState& state);

  /// Complete evolving controller state at a session boundary — everything
  /// a fleet snapshot must persist so a resumed LingXi continues bitwise
  /// identically: the full engagement snapshot (not just the durable
  /// long-term slice), the client bandwidth window in arrival order, the
  /// trigger counter, the adopted parameters and the optimizer counters.
  /// Unlike snapshot()/restore() — the production app-exit path, which
  /// re-anchors interval clocks and clamps parameters — restore_persistent
  /// is exact by construction (no clamping, no re-anchoring); the config
  /// and predictor are NOT part of the state and must be reconstructed
  /// equal by the caller (the fleet's pure-factory contract).
  struct PersistentState {
    predictor::EngagementState::Snapshot engagement;
    std::vector<Kbps> bandwidth_window;  ///< oldest first
    std::uint64_t stalls_since_optimization = 0;
    bool has_optimized = false;
    abr::QoeParams params;
    LingXiStats stats;
  };

  PersistentState persistent_state() const;
  void restore_persistent(const PersistentState& state);

 private:
  LingXiConfig config_;
  const predictor::HybridExitPredictor* predictor_;  ///< borrowed, never null
  trace::BitrateLadder ladder_;
  predictor::EngagementState engagement_;
  abr::QoeParams current_params_;
  bool has_optimized_ = false;
  std::size_t stalls_since_optimization_ = 0;
  std::deque<Kbps> bandwidth_window_;
  LingXiStats stats_;
};

}  // namespace lingxi::core
