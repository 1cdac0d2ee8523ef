#include "predictor/hybrid.h"

#include <algorithm>

#include "common/assert.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace lingxi::predictor {

HybridExitPredictor::HybridExitPredictor(std::shared_ptr<StallExitNet> net,
                                         std::shared_ptr<const OverallStatsModel> os_model)
    : HybridExitPredictor(std::move(net), std::move(os_model), Config{}) {}

HybridExitPredictor::HybridExitPredictor(std::shared_ptr<StallExitNet> net,
                                         std::shared_ptr<const OverallStatsModel> os_model,
                                         Config config)
    : net_(std::move(net)), os_model_(std::move(os_model)), config_(config) {
  LINGXI_ASSERT(net_ != nullptr);
  LINGXI_ASSERT(os_model_ != nullptr);
  LINGXI_ASSERT(config_.nn_weight >= 0.0 && config_.nn_weight <= 1.0);
}

HybridExitPredictor HybridExitPredictor::with_private_net() const {
  return {std::make_shared<StallExitNet>(*net_), os_model_, config_};
}

double HybridExitPredictor::predict(const ExitQuery& query, BatchScratch* scratch) const {
  if (query.stall_time <= kNnStallThreshold) {
    return std::clamp(os_model_->predict(query.level, query.sw), 0.0, 1.0);
  }
  double features[kChannels * kHistoryLen];
  query.state->write_features(features);
  return finish_stalled(query,
                        net_->predict_row(features, scratch != nullptr ? &scratch->net : nullptr));
}

double HybridExitPredictor::finish_stalled(const ExitQuery& query, double nn_term) const {
  return combine(*query.state, nn_term, os_model_->predict(query.level, query.sw));
}

double HybridExitPredictor::combine(const EngagementState& state, double nn_term,
                                    double os) const {
  // Personal empirical stall-exit rate, smoothed toward the prior so new
  // users start population-typical.
  const auto& lt = state.long_term();
  const double personal =
      (static_cast<double>(lt.total_stall_exits) + config_.prior_strength * config_.prior_rate) /
      (static_cast<double>(lt.total_stall_events) + config_.prior_strength);
  const double stall_term =
      config_.nn_weight * nn_term + (1.0 - config_.nn_weight) * std::min(1.0, personal);
  return std::clamp(stall_term + os, 0.0, 1.0);
}

void HybridExitPredictor::predict_batch(std::size_t count, const ExitQuery* queries,
                                        double* out, BatchScratch* scratch) const {
  BatchScratch local;
  BatchScratch& s = scratch != nullptr ? *scratch : local;

  // Gather the stalled queries' feature matrices; only they need the net.
  s.stalled.clear();
  for (std::size_t i = 0; i < count; ++i) {
    if (queries[i].stall_time > kNnStallThreshold) s.stalled.push_back(i);
  }
  constexpr std::size_t kFeatureLen = kChannels * kHistoryLen;
  s.features.resize(s.stalled.size() * kFeatureLen);
  for (std::size_t j = 0; j < s.stalled.size(); ++j) {
    queries[s.stalled[j]].state->write_features(s.features.data() + j * kFeatureLen);
  }
  s.nn_terms.resize(s.stalled.size());
  net_->predict_batch({s.features.data(), s.stalled.size(), kFeatureLen},
                      s.nn_terms.data(), &s.net);

  std::size_t j = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const ExitQuery& q = queries[i];
    const double os = os_model_->predict(q.level, q.sw);
    if (q.stall_time <= kNnStallThreshold) {
      out[i] = std::clamp(os, 0.0, 1.0);
    } else {
      out[i] = combine(*q.state, s.nn_terms[j++], os);
    }
  }
}

PredictorExitModel::PredictorExitModel(HybridExitPredictor predictor,
                                       EngagementState seed_state, Seconds segment_duration,
                                       std::uint32_t rollout_tag)
    : predictor_(std::move(predictor)),
      seed_state_(std::move(seed_state)),
      state_(seed_state_),
      segment_duration_(segment_duration),
      rollout_tag_(rollout_tag) {
  LINGXI_ASSERT(segment_duration_ > 0.0);
}

void PredictorExitModel::begin_session() {
  state_ = seed_state_;  // S_sim <- S
  state_.begin_session();
  prev_valid_ = false;
  prev_level_ = 0;
}

double PredictorExitModel::exit_probability(const sim::SegmentRecord& segment) {
  return predictor_.predict(prepare(segment));
}

HybridExitPredictor::ExitQuery PredictorExitModel::prepare(const sim::SegmentRecord& segment) {
  state_.on_segment(segment, segment_duration_);
  SwitchType sw = SwitchType::kNone;
  if (prev_valid_ && segment.level != prev_level_) {
    sw = segment.level > prev_level_ ? SwitchType::kUp : SwitchType::kDown;
  }
  prev_valid_ = true;
  prev_level_ = segment.level;
  return {&state_, segment.level, segment.stall_time, sw};
}

BatchPredictorExitEvaluator::BatchPredictorExitEvaluator(const HybridExitPredictor& predictor,
                                                         const EngagementState& seed_state,
                                                         Seconds segment_duration,
                                                         ExitQueryPool* pool,
                                                         std::uint32_t user_tag)
    : predictor_(predictor),
      seed_state_(seed_state),
      segment_duration_(segment_duration),
      pool_(pool),
      user_tag_(user_tag) {
  LINGXI_ASSERT(pool_ == nullptr || &pool_->predictor() == &predictor_);
}

std::unique_ptr<sim::ExitModel> BatchPredictorExitEvaluator::make_model() const {
  // Rollout tags count up in make_model() order — rollout order, which is
  // deterministic — so a parked query's (user, rollout, segment) key names
  // the same rollout in every replay.
  return std::make_unique<PredictorExitModel>(predictor_, seed_state_, segment_duration_,
                                              next_rollout_tag_++);
}

bool BatchPredictorExitEvaluator::prepare(sim::ExitModel& model,
                                          const sim::SegmentRecord& segment,
                                          double& out) const {
  // Safe: the contract restricts `model` to our make_model() instances.
  auto& exit_model = static_cast<PredictorExitModel&>(model);
  const HybridExitPredictor::ExitQuery query = exit_model.prepare(segment);
  if (query.stall_time <= HybridExitPredictor::kNnStallThreshold) {
    out = predictor_.predict(query);  // OS-only path, no net forward
    return true;
  }
  if (pool_ != nullptr) {
    tickets_.push_back(pool_->park(
        query, {user_tag_, exit_model.rollout_tag(), static_cast<std::uint32_t>(segment.index)}));
  } else {
    scratch_.queries.push_back(query);
  }
  return false;
}

std::size_t BatchPredictorExitEvaluator::flush(double* out) const {
  if (pool_ != nullptr) {
    // Pooled scope: the pool already evaluated this wave's queries (the
    // scheduler flushes it between waves); collect ours in park order.
    const std::size_t count = tickets_.size();
    for (std::size_t i = 0; i < count; ++i) out[i] = pool_->prob(tickets_[i]);
    tickets_.clear();
    return count;
  }
  // The parked queries' state pointers stay valid until their rollouts
  // resolve — parked rollouts do not advance before the flush.
  const std::size_t count = scratch_.queries.size();
  if (count == 1) {
    // A width-1 wave (the per-user loop): the steady single-row forward.
    out[0] = predictor_.predict(scratch_.queries[0], &scratch_);
  } else {
    predictor_.predict_batch(count, scratch_.queries.data(), out, &scratch_);
  }
  scratch_.queries.clear();
  return count;
}

void BatchPredictorExitEvaluator::discard_parked() const {
  if (pool_ != nullptr) {
    for (const std::size_t ticket : tickets_) pool_->discard(ticket);
    tickets_.clear();
    return;
  }
  scratch_.queries.clear();
}

std::size_t ExitQueryPool::park(const HybridExitPredictor::ExitQuery& query, QueryTag tag) {
  LINGXI_DASSERT(query.state != nullptr);
  LINGXI_DASSERT(query.stall_time > HybridExitPredictor::kNnStallThreshold);
  pending_.push_back(Entry{query, tag});
  return pending_.size() - 1;
}

void ExitQueryPool::discard(std::size_t ticket) {
  LINGXI_ASSERT(ticket < pending_.size());
  pending_[ticket].discarded = true;
}

double ExitQueryPool::prob(std::size_t ticket) const {
  LINGXI_ASSERT(ticket < probs_.size());
  return probs_[ticket];
}

void ExitQueryPool::flush() {
  OBS_TIMED("predictor.pool.flush_us");
  probs_.assign(pending_.size(), 0.0);
  if (pending_.empty()) return;

#ifndef NDEBUG
  // Determinism bookkeeping check on the (user, rollout, segment) keys: a
  // rollout parks at most one query per flush (it pauses until resolved),
  // so the (user, rollout) pairs of live entries must be unique. A repeat
  // means a rollout advanced past an unresolved query — exactly the bug
  // class that would make batch composition schedule-dependent.
  {
    std::vector<std::uint64_t> keys;
    keys.reserve(pending_.size());
    for (const Entry& entry : pending_) {
      if (entry.discarded) continue;
      keys.push_back((static_cast<std::uint64_t>(entry.tag.user) << 32) |
                     entry.tag.rollout);
    }
    std::sort(keys.begin(), keys.end());
    LINGXI_DASSERT(std::adjacent_find(keys.begin(), keys.end()) == keys.end());
  }
#endif

  // Gather the live queries in park order (pruning may have discarded some)
  // and evaluate them as one batched forward.
  live_.clear();
  scratch_.queries.clear();
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].discarded) continue;
    live_.push_back(i);
    scratch_.queries.push_back(pending_[i].query);
  }
  const std::size_t evaluated = live_.size();
  if (evaluated > 0) {
    live_probs_.resize(evaluated);
    predictor_.predict_batch(evaluated, scratch_.queries.data(), live_probs_.data(),
                             &scratch_);
    for (std::size_t j = 0; j < evaluated; ++j) probs_[live_[j]] = live_probs_[j];
    ++stats_.flushes;
    stats_.queries += evaluated;
    stats_.max_flush = std::max<std::uint64_t>(stats_.max_flush, evaluated);
    // Fleet-wide registry view of the same counters the per-run
    // FleetRunStats struct reports (that struct stays the per-run API;
    // the registry aggregates across runners, legs and threads).
    if (obs::Registry* reg = obs::Registry::active()) {
      reg->add("predictor.pool.flushes");
      reg->add("predictor.pool.queries", evaluated);
      reg->observe("predictor.pool.flush_rows", obs::HistogramSpec::rows(),
                   static_cast<double>(evaluated));
    }
  }
  pending_.clear();
}

}  // namespace lingxi::predictor
