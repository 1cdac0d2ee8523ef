#include "sim/monte_carlo.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "common/assert.h"

namespace lingxi::sim {

MonteCarloEvaluator::MonteCarloEvaluator(MonteCarloConfig mc_config,
                                         SessionSimulator::Config session_config)
    : mc_config_(mc_config), session_config_(session_config) {
  LINGXI_ASSERT(mc_config_.samples > 0);
  LINGXI_ASSERT(mc_config_.sample_duration > 0.0);
}

trace::Video MonteCarloEvaluator::make_virtual_video(const trace::BitrateLadder& ladder,
                                                     Seconds segment_duration, Rng* rng,
                                                     double vbr_sigma) const {
  const auto segments = static_cast<std::size_t>(
      std::max(1.0, std::ceil(mc_config_.sample_duration / segment_duration)));
  if (rng != nullptr && vbr_sigma > 0.0) {
    return trace::Video::vbr(ladder, segments, segment_duration, vbr_sigma, *rng);
  }
  return trace::Video{ladder, segments, segment_duration};
}

MonteCarloResult MonteCarloEvaluator::evaluate_rollouts(
    const trace::Video& virtual_video, const abr::AbrAlgorithm& abr,
    const BatchExitEvaluator& exits, const trace::BandwidthModel& bandwidth,
    Seconds initial_buffer, double best_known_exit_rate, Rng& rng) const {
  // The resumable wave drives itself to completion here (its exits.flush()
  // computes each parked batch directly); the cross-user scheduler drives
  // the same class with flushes pooled across evaluations instead.
  RolloutWave wave(*this, virtual_video, abr, exits, bandwidth, initial_buffer,
                   best_known_exit_rate, rng);
  while (!wave.step()) {
  }
  return wave.take_result();
}

RolloutWave::RolloutWave(const MonteCarloEvaluator& evaluator,
                         const trace::Video& virtual_video, const abr::AbrAlgorithm& abr,
                         const BatchExitEvaluator& exits,
                         const trace::BandwidthModel& bandwidth, Seconds initial_buffer,
                         double best_known_exit_rate, Rng& rng)
    : mc_(evaluator.config()),
      sim_([&] {
        SessionSimulator::Config cfg = evaluator.session_config_;
        cfg.player.startup_buffer = std::max(0.0, initial_buffer);
        return SessionSimulator(cfg);
      }()),
      video_(virtual_video),
      abr_(abr),
      exits_(exits),
      bandwidth_(bandwidth),
      best_known_exit_rate_(best_known_exit_rate),
      max_segments_(virtual_video.segment_count()) {
  // Fork every rollout stream upfront (the evaluate_rollouts rng contract).
  streams_.reserve(mc_.samples);
  for (std::size_t m = 0; m < mc_.samples; ++m) streams_.push_back(rng.fork());
}

bool RolloutWave::accumulate(const SessionResult& session) {
  result_.watched_count += session.segments.size();
  if (session.exited) ++result_.exited_count;
  ++result_.samples_run;
  if (mc_.enable_pruning && result_.samples_run >= mc_.min_samples_before_prune &&
      std::isfinite(best_known_exit_rate_)) {
    // Optimistic bound: every remaining sample watches the full virtual
    // video and never exits.
    const std::size_t remaining = mc_.samples - result_.samples_run;
    const double optimistic_watched =
        static_cast<double>(result_.watched_count + remaining * max_segments_);
    const double lower_bound =
        static_cast<double>(result_.exited_count) / optimistic_watched;
    if (lower_bound > best_known_exit_rate_) {
      result_.pruned = true;
      return true;
    }
  }
  return false;
}

void RolloutWave::start_chunk() {
  const std::size_t batch = std::max<std::size_t>(1, mc_.batch_size);
  const std::size_t wave = std::min(batch, mc_.samples - chunk_first_);
  slots_ = std::vector<Slot>(wave);
  for (std::size_t j = 0; j < wave; ++j) {
    Slot& slot = slots_[j];
    slot.abr = abr_.clone();
    slot.bw = bandwidth_.clone();
    slot.model = exits_.make_model();
    slot.model->begin_session();
    slot.stepper.emplace(sim_, video_, *slot.abr, *slot.bw, streams_[chunk_first_ + j]);
  }
  accumulated_ = 0;
}

void RolloutWave::finish() {
  // R_exit = exited_count / watched_count (0 when nothing was watched).
  result_.exit_rate = result_.watched_count == 0
                          ? 0.0
                          : static_cast<double>(result_.exited_count) /
                                static_cast<double>(result_.watched_count);
  slots_.clear();
  finished_ = true;
}

bool RolloutWave::step() {
  if (finished_) return true;
  if (needs_flush_) {
    // The parked probabilities are available now (either exits_ computes
    // them in flush(), or the pool it parks into was flushed by the caller);
    // deliver them in park order and resume the parked rollouts.
    probs_.resize(parked_.size());
    const std::size_t flushed = exits_.flush(probs_.data());
    LINGXI_ASSERT(flushed == parked_.size());
    for (std::size_t i = 0; i < parked_.size(); ++i) {
      slots_[parked_[i]].stepper->resolve(probs_[i]);
    }
    needs_flush_ = false;
  }

  for (;;) {
    if (slots_.empty()) {
      if (chunk_first_ >= mc_.samples) {
        finish();
        return true;
      }
      start_chunk();
    }

    // Run the chunk: each live rollout advances until it either finishes or
    // parks an expensive exit query (a stalled segment needing the net);
    // cheap queries resolve inline. Rollouts desynchronize freely — each
    // owns its rng, abr, bandwidth and model, so interleaving cannot change
    // any rollout's byte-for-byte outcome.
    //
    // Completed rollouts fold into the result in rollout order as soon as
    // the prefix allows, so a prune fires at exactly the rollout it would
    // if rollouts ran one at a time — the in-flight tail is then abandoned,
    // just as a width-1 wave never starts it.
    parked_.clear();
    for (std::size_t j = 0; j < slots_.size(); ++j) {
      Slot& slot = slots_[j];
      if (slot.done) continue;
      for (;;) {
        const SegmentRecord* seg = slot.stepper->advance();
        if (seg == nullptr) {
          slot.done = true;
          slot.session = slot.stepper->take_result();
          break;
        }
        double p = 0.0;
        if (!exits_.prepare(*slot.model, *seg, p)) {
          parked_.push_back(j);
          break;
        }
        slot.stepper->resolve(p);
      }
    }
    bool stop = false;
    while (accumulated_ < slots_.size() && slots_[accumulated_].done) {
      if (accumulate(slots_[accumulated_].session)) {
        stop = true;
        break;
      }
      ++accumulated_;
    }
    if (stop) {
      exits_.discard_parked();
      finish();
      return true;
    }
    if (!parked_.empty()) {
      needs_flush_ = true;
      return false;
    }
    // Chunk complete (all rollouts done and folded): move to the next one.
    chunk_first_ += slots_.size();
    slots_.clear();
  }
}

MonteCarloResult RolloutWave::take_result() {
  LINGXI_ASSERT(finished_);
  return result_;
}

}  // namespace lingxi::sim
