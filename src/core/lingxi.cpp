#include "core/lingxi.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "trace/bandwidth.h"

namespace lingxi::core {

LingXiConfig::LingXiConfig() {
  // The paper's production integration tunes HYB's beta only; callers
  // targeting MPC/Pensieve flip the space flags.
  space.optimize_stall = true;
  space.optimize_switch = true;
  space.optimize_beta = false;
}

LingXi::LingXi(LingXiConfig config, const predictor::HybridExitPredictor& predictor,
               trace::BitrateLadder ladder)
    : config_(std::move(config)),
      predictor_(&predictor),
      ladder_(std::move(ladder)),
      current_params_(config_.default_params) {
  LINGXI_ASSERT(config_.obo_rounds >= 1);
  LINGXI_ASSERT(config_.space.dimensions() >= 1);
}

void LingXi::begin_session() { engagement_.begin_session(); }

void LingXi::on_segment(const sim::SegmentRecord& segment) {
  engagement_.on_segment(segment, config_.segment_duration);
  bandwidth_window_.push_back(segment.throughput);
  if (bandwidth_window_.size() > config_.bandwidth_window) bandwidth_window_.pop_front();
  if (segment.stall_time > config_.virtual_session.stall_event_threshold) {
    ++stalls_since_optimization_;
  }
}

void LingXi::end_session(bool exited_during_stall) {
  if (exited_during_stall) engagement_.on_stall_exit();
}

bool LingXi::should_optimize() const noexcept {
  return stalls_since_optimization_ > config_.trigger_stall_threshold;
}

std::pair<Kbps, Kbps> LingXi::bandwidth_estimate() const {
  if (bandwidth_window_.empty()) return {0.0, 0.0};
  double mean = 0.0;
  for (Kbps b : bandwidth_window_) mean += b;
  mean /= static_cast<double>(bandwidth_window_.size());
  double var = 0.0;
  for (Kbps b : bandwidth_window_) var += (b - mean) * (b - mean);
  var /= static_cast<double>(bandwidth_window_.size());
  return {mean, std::sqrt(var)};
}

std::unique_ptr<LingXi::OptimizationRun> LingXi::begin_optimization(
    abr::AbrAlgorithm& abr, Seconds current_buffer, Rng& rng,
    predictor::ExitQueryPool* pool, std::uint32_t user_tag) {
  if (!should_optimize()) return nullptr;
  ++stats_.triggers;
  stalls_since_optimization_ = 0;

  auto [bw_mean, bw_sd] = bandwidth_estimate();
  if (bw_mean <= 0.0) return nullptr;  // no bandwidth signal yet

  // Pre-playback pruning: when mu - 3*sigma clears the ladder top, stall
  // probability is negligible and personalization has nothing to gain.
  if (config_.enable_preplay_pruning && bw_mean - 3.0 * bw_sd > ladder_.max_bitrate()) {
    ++stats_.pruned_preplay;
    return nullptr;
  }
  ++stats_.optimizations_run;
  return std::unique_ptr<OptimizationRun>(new OptimizationRun(
      *this, abr, current_buffer, rng, pool, user_tag, bw_mean, bw_sd));
}

std::optional<abr::QoeParams> LingXi::maybe_optimize(abr::AbrAlgorithm& abr,
                                                     Seconds current_buffer, Rng& rng) {
  const auto run = begin_optimization(abr, current_buffer, rng);
  if (run == nullptr) return std::nullopt;
  // Drive the run to completion inline; without a pool each wave flushes
  // its own parked queries on the next step().
  while (!run->step()) {
  }
  return current_params_;
}

LingXi::OptimizationRun::OptimizationRun(LingXi& owner, abr::AbrAlgorithm& abr,
                                         Seconds current_buffer, Rng& rng,
                                         predictor::ExitQueryPool* pool,
                                         std::uint32_t user_tag, Kbps bw_mean, Kbps bw_sd)
    : owner_(owner),
      abr_(abr),
      rng_(rng),
      current_buffer_(current_buffer),
      evaluator_(owner.config_.monte_carlo, owner.config_.virtual_session),
      // One VBR-jittered virtual video shared by every candidate: rollouts
      // see realistic segment-size spikes while the comparison stays paired.
      virtual_video_(
          evaluator_.make_virtual_video(owner.ladder_, owner.config_.segment_duration, &rng)),
      // One exit-model factory for every candidate: each Monte Carlo rollout
      // gets a private PredictorExitModel seeded from the live engagement
      // state (Algorithm 2 line 3); stalled queries park for batched
      // forwards, pooled across users when `pool` is set.
      exit_eval_(*owner.predictor_, owner.engagement_, owner.config_.segment_duration, pool,
                 user_tag),
      obo_(owner.config_.space.dimensions(), owner.config_.obo),
      fixed_mode_(!owner.config_.fixed_candidates.empty()),
      // Round 0 always evaluates the incumbent (the OBO warm start does this
      // implicitly; in fixed-candidate mode we prepend it).
      rounds_(fixed_mode_ ? owner.config_.fixed_candidates.size() + 1
                          : owner.config_.obo_rounds),
      best_exit_(std::numeric_limits<double>::infinity()),
      best_params_(owner.current_params_),
      incumbent_exit_(std::numeric_limits<double>::infinity()) {
  // OBO.init(x*, N, S, E_player): warm-start from the current parameters —
  // the previous optimum once one exists, the defaults otherwise. The warm
  // start is evaluated first, so on a flat exit-rate landscape the system
  // keeps its current behaviour instead of drifting to an arbitrary point.
  obo_.warm_start(owner.config_.space.to_unit(owner.current_params_));

  const Kbps rollout_mean =
      std::max(50.0, bw_mean - owner.config_.rollout_pessimism * bw_sd);
  if (owner.config_.rollout_rho > 0.0) {
    trace::GaussMarkovBandwidth::Config gm;
    gm.mean = rollout_mean;
    gm.rho = owner.config_.rollout_rho;
    gm.noise_sd = bw_sd * std::sqrt(std::max(0.0, 1.0 - gm.rho * gm.rho));
    gm.floor = std::max(10.0, 0.05 * rollout_mean);
    bandwidth_model_ = std::make_unique<trace::GaussMarkovBandwidth>(gm);
  } else {
    bandwidth_model_ =
        std::make_unique<trace::NormalBandwidth>(rollout_mean, std::max(0.0, bw_sd));
  }
}

void LingXi::OptimizationRun::begin_candidate() {
  if (fixed_mode_) {
    candidate_ = round_ == 0
                     ? owner_.current_params_
                     : owner_.config_.space.clamp(owner_.config_.fixed_candidates[round_ - 1]);
  } else {
    x_ = obo_.next_candidate(rng_);
    candidate_ = owner_.config_.space.from_unit(x_, owner_.config_.default_params);
  }
  // Rollout prototype carrying the candidate objective; each rollout clones
  // it.
  rollout_abr_ = abr_.clone();
  rollout_abr_->set_params(candidate_);
}

double LingXi::OptimizationRun::prune_bound() const noexcept {
  // The incumbent round is never pruned: its estimate is the adoption
  // baseline and must be complete.
  return round_ == 0 ? std::numeric_limits<double>::infinity() : best_exit_;
}

void LingXi::OptimizationRun::start_wave() {
  wave_ = std::make_unique<sim::RolloutWave>(evaluator_, virtual_video_, *rollout_abr_,
                                             exit_eval_, *bandwidth_model_, current_buffer_,
                                             prune_bound(), rng_);
}

void LingXi::OptimizationRun::finish_round(const sim::MonteCarloResult& mc) {
  if (obs::Registry* reg = obs::Registry::active()) {
    reg->add("core.optimization.rounds");
    if (mc.pruned) reg->add("core.optimization.rounds_pruned");
  }
  ++owner_.stats_.mc_evaluations;
  if (mc.pruned) ++owner_.stats_.mc_rollouts_pruned;
  if (round_ == 0) incumbent_exit_ = mc.exit_rate;
  if (!fixed_mode_) obo_.update(x_, mc.exit_rate);
  if (mc.exit_rate < best_exit_) {
    best_exit_ = mc.exit_rate;
    best_params_ = candidate_;
  }
}

void LingXi::OptimizationRun::finish() {
  // Adopt the challenger only on clear evidence of improvement.
  if (best_exit_ < incumbent_exit_ * (1.0 - owner_.config_.adoption_margin)) {
    owner_.current_params_ = best_params_;
  }
  owner_.has_optimized_ = true;
  abr_.set_params(owner_.current_params_);  // ABR.update(x*)
  done_ = true;
}

bool LingXi::OptimizationRun::step() {
  for (;;) {
    if (done_) return true;
    if (wave_ == nullptr) {
      // Round 0 draws its candidate here; later rounds draw theirs at the
      // previous round's fit.
      if (rollout_abr_ == nullptr) begin_candidate();
      start_wave();
    }
    if (!wave_->step()) return false;  // parked on predictor queries
    const sim::MonteCarloResult mc = wave_->take_result();
    wave_.reset();
    rollout_abr_.reset();
    // Round-boundary fit: GP update, then the next candidate's acquisition
    // sweep or the adoption decision.
    OBS_SPAN("wave.fits");
    OBS_TIMED("sim.wave.fits_us");
    finish_round(mc);
    if (++round_ >= rounds_) {
      finish();
    } else {
      begin_candidate();
    }
  }
}

LingXi::PersistentState LingXi::persistent_state() const {
  PersistentState s;
  s.engagement = engagement_.snapshot();
  s.bandwidth_window.assign(bandwidth_window_.begin(), bandwidth_window_.end());
  s.stalls_since_optimization = stalls_since_optimization_;
  s.has_optimized = has_optimized_;
  s.params = current_params_;
  s.stats = stats_;
  return s;
}

void LingXi::restore_persistent(const PersistentState& state) {
  engagement_.restore(state.engagement);
  bandwidth_window_.assign(state.bandwidth_window.begin(), state.bandwidth_window.end());
  stalls_since_optimization_ = state.stalls_since_optimization;
  has_optimized_ = state.has_optimized;
  current_params_ = state.params;
  stats_ = state.stats;
}

logstore::UserState LingXi::snapshot() const {
  logstore::UserState s;
  s.engagement = engagement_.long_term();
  s.best_params = current_params_;
  s.has_params = has_optimized_;
  return s;
}

void LingXi::restore(const logstore::UserState& state) {
  engagement_.restore_long_term(state.engagement);
  if (state.has_params) {
    current_params_ = config_.space.clamp(state.best_params);
    has_optimized_ = true;
  }
}

}  // namespace lingxi::core
