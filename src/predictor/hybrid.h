// Hybrid exit-rate predictor — Equation 4:
//
//   R_exit = NN(Stall) + OS(Quality, Smoothness)   if the segment stalled
//          = OS(Quality, Smoothness)               otherwise
//
// The NN term personalizes the dominant (1e-1) stall effect from the user's
// engagement history; the OS term pools the small (1e-3 / 1e-2) quality and
// smoothness effects across the population.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "predictor/engagement_state.h"
#include "predictor/exit_net.h"
#include "predictor/os_model.h"

namespace lingxi::predictor {

/// Every const member is inference only: it reads weights and never writes
/// layer caches, so one predictor (and its net) may serve any number of
/// threads at once. Only training through the non-const net() mutates the
/// net.
class HybridExitPredictor {
 public:
  struct Config {
    /// Blend between the learned stall term and the user's empirical
    /// stall-exit frequency (exits per stall event, smoothed toward
    /// `prior_rate`). The empirical term is the strongest personal signal —
    /// it is computed directly from the engagement counters the state
    /// already persists — while the net captures severity and context.
    double nn_weight = 0.35;
    double prior_rate = 0.25;
    double prior_strength = 4.0;
  };

  /// Both components are shared: the OS model is population-level, the net
  /// may be shared (global) or per-user (personalized fine-tune).
  HybridExitPredictor(std::shared_ptr<StallExitNet> net,
                      std::shared_ptr<const OverallStatsModel> os_model);
  HybridExitPredictor(std::shared_ptr<StallExitNet> net,
                      std::shared_ptr<const OverallStatsModel> os_model, Config config);

  /// One exit-probability evaluation in batched-friendly form: everything
  /// predict() reads, decoupled from SegmentRecord. `state` must already
  /// include the segment being queried.
  struct ExitQuery {
    const EngagementState* state = nullptr;
    std::size_t level = 0;
    Seconds stall_time = 0.0;
    SwitchType sw = SwitchType::kNone;
  };

  /// Reusable scratch for predict_batch: query/feature staging plus the
  /// net's own workspace, so a lockstep Monte Carlo run allocates once.
  struct BatchScratch {
    StallExitNet::BatchWorkspace net;
    std::vector<HybridExitPredictor::ExitQuery> queries;
    std::vector<double> features;
    std::vector<double> nn_terms;
    std::vector<std::size_t> stalled;
  };

  /// Segments stalled for at most this long skip the personalized stall
  /// term: R_exit is the OS term alone and no net forward runs.
  static constexpr Seconds kNnStallThreshold = 0.05;

  /// R_exit for one query: the OS term alone for an unstalled segment,
  /// otherwise StallExitNet::predict_row through the same OS lookup and
  /// blend — bitwise identical to a 1-row predict_batch, at a cost that does
  /// not swing with cache residency. `scratch` may be null; passing one
  /// amortizes the net's buffers. Batches of queries should call
  /// predict_batch directly with a reused BatchScratch.
  double predict(const ExitQuery& query, BatchScratch* scratch = nullptr) const;
  /// Finish a stalled query given its net output — the per-query tail of
  /// predict_batch (OS lookup + blend), bitwise identical to it. Exposed so
  /// parity tests can put the training forward through the same tail.
  double finish_stalled(const ExitQuery& query, double nn_term) const;
  /// Batched predict over `count` queries: the stalled queries' features are
  /// gathered into one matrix and their net forwards run as a single
  /// StallExitNet::predict_batch call. Each row is bitwise identical to the
  /// training forward (StallExitNet::predict) passed through the same OS
  /// lookup and blend, whatever the batch's size or order. `scratch` may be
  /// null; passing one amortizes buffers.
  void predict_batch(std::size_t count, const ExitQuery* queries, double* out,
                     BatchScratch* scratch = nullptr) const;

  StallExitNet& net() { return *net_; }
  const StallExitNet& net() const { return *net_; }
  const OverallStatsModel& os_model() const { return *os_model_; }

  /// Copy of this predictor whose net is deep-copied instead of shared (the
  /// OS model stays shared — it is const here). Inference never needs one;
  /// take a private net before mutating weights that others may be reading
  /// (snapshot::resume_predictor_factory loads snapshot weights into one).
  HybridExitPredictor with_private_net() const;

 private:
  /// Blend the net's stall term with the personal empirical rate and the OS
  /// term — shared tail of the scalar and batched paths.
  double combine(const EngagementState& state, double nn_term, double os) const;

  std::shared_ptr<StallExitNet> net_;
  std::shared_ptr<const OverallStatsModel> os_model_;
  Config config_;
};

/// Bridges the hybrid predictor into the session simulator / Monte Carlo
/// engine as a sim::ExitModel. Clones the seed engagement state at every
/// begin_session() so each rollout starts from the live user state
/// (Algorithm 2 line 3: S_sim <- S).
class PredictorExitModel final : public sim::ExitModel {
 public:
  /// `rollout_tag` is bookkeeping only (it never changes a prediction): the
  /// rollout half of the (user, rollout, segment) key the fleet-wide
  /// ExitQueryPool files parked queries under.
  PredictorExitModel(HybridExitPredictor predictor, EngagementState seed_state,
                     Seconds segment_duration, std::uint32_t rollout_tag = 0);

  void begin_session() override;
  double exit_probability(const sim::SegmentRecord& segment) override;

  /// The state-mutation half of exit_probability(): advance the rollout
  /// state with `segment` and build the predict query for it. Split out so
  /// the lockstep Monte Carlo path can batch the predictor evaluation across
  /// rollouts; exit_probability() is predict(prepare(segment)).
  HybridExitPredictor::ExitQuery prepare(const sim::SegmentRecord& segment);

  std::uint32_t rollout_tag() const noexcept { return rollout_tag_; }

 private:
  HybridExitPredictor predictor_;
  EngagementState seed_state_;
  EngagementState state_;
  Seconds segment_duration_;
  std::uint32_t rollout_tag_ = 0;
  bool prev_valid_ = false;
  std::size_t prev_level_ = 0;
};

/// Fleet-wide parking lot for stalled exit queries — the shared flush plane
/// of the cross-user wave scheduler (sim::ShardScheduler).
///
/// Concurrent Monte Carlo evaluations (different users, different
/// candidates) park queries here instead of flushing per evaluation; one
/// flush() then evaluates everything parked since the previous flush as a
/// single HybridExitPredictor::predict_batch under the pool's predictor —
/// the run's one shared predictor, which every user's LingXi borrows. Per-row
/// forwards are bitwise independent of batch composition, so pooling across
/// users changes no result bit — only how many rows each forward amortizes
/// weight streaming over.
///
/// Tickets: park() returns a ticket valid until the next flush() after that
/// flush()'s probabilities have been superseded — i.e. each parked ticket
/// must be read (prob()) or discarded before queries parked after the next
/// flush are flushed again. The wave scheduler guarantees this by resuming
/// every parked evaluation exactly once between flushes. Not thread-safe:
/// one pool belongs to one shard, driven by one worker at a time.
class ExitQueryPool {
 public:
  /// Deterministic identity of a parked query, for diagnostics and ordering
  /// assertions — replays are deterministic because park order is a pure
  /// function of (seed, shard composition), never of wall-clock timing.
  struct QueryTag {
    std::uint32_t user = 0;
    std::uint32_t rollout = 0;
    std::uint32_t segment = 0;
  };

  /// Aggregate batching telemetry (sim::FleetRunStats reports these).
  struct Stats {
    std::uint64_t flushes = 0;       ///< flush() calls with >= 1 query
    std::uint64_t queries = 0;       ///< stalled queries evaluated
    std::uint64_t max_flush = 0;     ///< largest single flush
  };

  /// Every parked query is evaluated under `predictor`, which must outlive
  /// the pool.
  explicit ExitQueryPool(const HybridExitPredictor& predictor) : predictor_(predictor) {}

  /// Park one stalled query for the next flush(). The query's state pointer
  /// must stay valid until then.
  std::size_t park(const HybridExitPredictor::ExitQuery& query, QueryTag tag);
  /// Drop a pending ticket unevaluated (its rollout was abandoned by
  /// pruning). The slot is skipped at flush time.
  void discard(std::size_t ticket);
  /// Evaluate every pending query as one batched forward, publish their
  /// probabilities for prob(), and clear the pending set.
  void flush();
  /// Probability for a ticket parked before the most recent flush().
  double prob(std::size_t ticket) const;

  const HybridExitPredictor& predictor() const noexcept { return predictor_; }
  std::size_t pending() const noexcept { return pending_.size(); }
  const Stats& stats() const noexcept { return stats_; }

 private:
  struct Entry {
    HybridExitPredictor::ExitQuery query;
    QueryTag tag;
    bool discarded = false;
  };

  const HybridExitPredictor& predictor_;
  std::vector<Entry> pending_;
  std::vector<double> probs_;
  // flush() scratch, reused across flushes: the live tickets in park order,
  // their probabilities, and predict_batch's staging (queries included).
  std::vector<std::size_t> live_;
  std::vector<double> live_probs_;
  HybridExitPredictor::BatchScratch scratch_;
  Stats stats_;
};

/// Bridges the hybrid predictor into the Monte Carlo engine (sim::RolloutWave,
/// which every evaluation runs as, directly or through
/// sim::MonteCarloEvaluator::evaluate_rollouts): hands out per-rollout
/// PredictorExitModel instances seeded with the live user state, and
/// evaluates their pending queries with one batched net forward per step.
/// Two flush scopes:
///   * standalone (pool == nullptr): parked queries stay in the evaluator
///     and flush() computes the batch itself — one flush per wave of one
///     evaluation (the per-optimization batching baseline). A lone query
///     (every flush of a width-1 wave, the per-user loop) runs predict(),
///     whose single-row forward costs the same whatever else shares the
///     core's caches;
///   * pooled: parked queries go to a shared ExitQueryPool under the
///     (user, rollout, segment) key, the pool owner flushes once per
///     scheduler wave across ALL users' evaluations, and flush() here just
///     collects this evaluator's probabilities in park order. The pool
///     evaluates under its own predictor, so `predictor` must be that very
///     object (asserted at construction): a pool built for another predictor
///     fails loudly instead of blending under another config.
/// Both scopes are bitwise identical per query. The referenced predictor,
/// seed state and pool must outlive the evaluator.
class BatchPredictorExitEvaluator final : public sim::BatchExitEvaluator {
 public:
  BatchPredictorExitEvaluator(const HybridExitPredictor& predictor,
                              const EngagementState& seed_state, Seconds segment_duration,
                              ExitQueryPool* pool = nullptr, std::uint32_t user_tag = 0);

  std::unique_ptr<sim::ExitModel> make_model() const override;
  /// Non-stalled segments resolve inline through the OS-only path; stalled
  /// ones park for a batched net forward. `model` must be a make_model()
  /// instance of this evaluator.
  bool prepare(sim::ExitModel& model, const sim::SegmentRecord& segment,
               double& out) const override;
  std::size_t flush(double* out) const override;
  void discard_parked() const override;

 private:
  const HybridExitPredictor& predictor_;
  const EngagementState& seed_state_;
  Seconds segment_duration_;
  ExitQueryPool* pool_ = nullptr;
  std::uint32_t user_tag_ = 0;
  mutable std::uint32_t next_rollout_tag_ = 0;
  mutable std::vector<std::size_t> tickets_;  ///< pool tickets, park order
  mutable HybridExitPredictor::BatchScratch scratch_;
};

}  // namespace lingxi::predictor
