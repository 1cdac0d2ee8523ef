// Unit tests for lingxi_sim: Eq. 3 player dynamics, session simulation,
// QoE_lin, Monte Carlo evaluation and pruning.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "abr/abr.h"
#include "common/rng.h"
#include "sim/monte_carlo.h"
#include "sim/player_env.h"
#include "sim/session.h"
#include "trace/bandwidth.h"
#include "trace/video.h"

#include "inline_exit_evaluator.h"

namespace lingxi::sim {
namespace {

PlayerConfig zero_rtt_config() {
  PlayerConfig c;
  c.rtt = 0.0;
  return c;
}

TEST(PlayerEnv, NoStallWhenBufferCoversDownload) {
  PlayerConfig cfg = zero_rtt_config();
  cfg.startup_buffer = 5.0;
  PlayerEnv env(cfg);
  // 1s segment at 1000 kbps over 2000 kbps link: download = 0.5s < 5s buffer.
  const auto r = env.step(units::segment_bytes(1000.0, 1.0), 1.0, 2000.0);
  EXPECT_DOUBLE_EQ(r.download_time, 0.5);
  EXPECT_DOUBLE_EQ(r.stall_time, 0.0);
  // B' = (5 - 0.5) + 1 = 5.5, under the 8s cap.
  EXPECT_DOUBLE_EQ(r.buffer_after, 5.5);
}

TEST(PlayerEnv, StallIsDownloadMinusBuffer) {
  PlayerConfig cfg = zero_rtt_config();
  cfg.startup_buffer = 0.5;
  PlayerEnv env(cfg);
  // download = 2s, buffer = 0.5 -> stall 1.5s.
  const auto r = env.step(units::segment_bytes(1000.0, 1.0), 1.0, 500.0);
  EXPECT_DOUBLE_EQ(r.download_time, 2.0);
  EXPECT_NEAR(r.stall_time, 1.5, 1e-12);
  // Buffer fully drained, then one fresh segment.
  EXPECT_DOUBLE_EQ(r.buffer_after, 1.0);
  EXPECT_DOUBLE_EQ(env.total_stall(), 1.5);
}

TEST(PlayerEnv, BufferCapEnforcedViaWait) {
  PlayerConfig cfg = zero_rtt_config();
  cfg.base_buffer_max = 4.0;
  cfg.startup_buffer = 4.0;
  PlayerEnv env(cfg);
  // Instant-ish download pushes B_tmp over the cap; wait absorbs the excess.
  const auto r = env.step(units::segment_bytes(350.0, 1.0), 1.0, 100000.0);
  EXPECT_NEAR(r.buffer_after, 4.0, 1e-9);
  EXPECT_GT(r.wait_time, 0.0);
}

TEST(PlayerEnv, RttAlwaysAddsWait) {
  PlayerConfig cfg;
  cfg.rtt = 0.08;
  cfg.startup_buffer = 2.0;
  PlayerEnv env(cfg);
  const auto r = env.step(units::segment_bytes(350.0, 1.0), 1.0, 5000.0);
  EXPECT_GE(r.wait_time, 0.08);
}

TEST(PlayerEnv, WallClockAccumulates) {
  PlayerConfig cfg = zero_rtt_config();
  PlayerEnv env(cfg);
  const auto r1 = env.step(units::segment_bytes(1000.0, 1.0), 1.0, 1000.0);
  const auto r2 = env.step(units::segment_bytes(1000.0, 1.0), 1.0, 1000.0);
  EXPECT_NEAR(env.wall_clock(), r1.download_time + r1.wait_time + r2.download_time +
                                    r2.wait_time, 1e-12);
}

TEST(PlayerEnv, BufferNeverNegative) {
  PlayerConfig cfg = zero_rtt_config();
  PlayerEnv env(cfg);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const double bw = rng.uniform(100.0, 8000.0);
    env.step(units::segment_bytes(4300.0, 1.0), 1.0, bw);
    EXPECT_GE(env.buffer(), 0.0);
  }
}

TEST(AdaptiveBufferMax, DecreasesWithBandwidth) {
  PlayerConfig cfg;
  const Seconds low = adaptive_buffer_max(cfg, 500.0, 100.0);
  const Seconds mid = adaptive_buffer_max(cfg, 4300.0, 0.0);
  const Seconds high = adaptive_buffer_max(cfg, 50000.0, 100.0);
  EXPECT_GT(low, mid);
  EXPECT_GE(mid, high);
  EXPECT_NEAR(mid, cfg.base_buffer_max, 1e-9);
}

TEST(AdaptiveBufferMax, Clamped) {
  PlayerConfig cfg;
  EXPECT_DOUBLE_EQ(adaptive_buffer_max(cfg, 1.0, 0.0), cfg.max_buffer_max);
  EXPECT_DOUBLE_EQ(adaptive_buffer_max(cfg, 1e9, 0.0), cfg.min_buffer_max);
}

TEST(AdaptiveBufferMax, VarianceIncreasesCap) {
  PlayerConfig cfg;
  EXPECT_GT(adaptive_buffer_max(cfg, 5000.0, 3000.0), adaptive_buffer_max(cfg, 5000.0, 0.0));
}

// -- session simulation -------------------------------------------------

/// Always selects a fixed level.
class FixedSelector final : public BitrateSelector {
 public:
  explicit FixedSelector(std::size_t level) : level_(level) {}
  std::size_t select(const AbrObservation&) override { return level_; }

 private:
  std::size_t level_;
};

/// Exits deterministically at a given segment index.
class ExitAtSegment final : public ExitModel {
 public:
  explicit ExitAtSegment(std::size_t index) : index_(index) {}
  double exit_probability(const SegmentRecord& seg) override {
    return seg.index == index_ ? 1.0 : 0.0;
  }

 private:
  std::size_t index_;
};

TEST(Session, CompletesWithoutExitModel) {
  const trace::Video video(trace::BitrateLadder::default_ladder(), 20, 1.0);
  trace::ConstantBandwidth bw(5000.0);
  FixedSelector abr(0);
  SessionSimulator sim({});
  Rng rng(2);
  const auto result = sim.run(video, abr, bw, nullptr, rng);
  EXPECT_FALSE(result.exited);
  EXPECT_TRUE(result.completed());
  EXPECT_EQ(result.segments.size(), 20u);
  EXPECT_DOUBLE_EQ(result.watch_time, 20.0);
  EXPECT_DOUBLE_EQ(result.mean_bitrate, 350.0);
  EXPECT_EQ(result.quality_switches, 0u);
}

TEST(Session, ExitModelStopsPlayback) {
  const trace::Video video(trace::BitrateLadder::default_ladder(), 20, 1.0);
  trace::ConstantBandwidth bw(5000.0);
  FixedSelector abr(0);
  ExitAtSegment exits(4);
  SessionSimulator sim({});
  Rng rng(3);
  const auto result = sim.run(video, abr, bw, &exits, rng);
  EXPECT_TRUE(result.exited);
  EXPECT_EQ(result.segments.size(), 5u);  // segments 0..4 watched
  EXPECT_DOUBLE_EQ(result.watch_time, 5.0);
}

TEST(Session, CumulativeStallMonotone) {
  const trace::Video video(trace::BitrateLadder::default_ladder(), 30, 1.0);
  trace::ConstantBandwidth bw(300.0);  // below even the lowest rung -> stalls
  FixedSelector abr(0);
  SessionSimulator sim({});
  Rng rng(4);
  const auto result = sim.run(video, abr, bw, nullptr, rng);
  EXPECT_GT(result.total_stall, 0.0);
  for (std::size_t i = 1; i < result.segments.size(); ++i) {
    EXPECT_GE(result.segments[i].cumulative_stall,
              result.segments[i - 1].cumulative_stall);
    EXPECT_GE(result.segments[i].cumulative_stall_events,
              result.segments[i - 1].cumulative_stall_events);
  }
  const auto& last = result.segments.back();
  EXPECT_NEAR(last.cumulative_stall, result.total_stall, 1e-9);
}

TEST(Session, ThroughputHistoryWindowCapped) {
  // Selector that checks the observation invariants as it goes.
  class CheckingSelector final : public BitrateSelector {
   public:
    explicit CheckingSelector(std::size_t window) : window_(window) {}
    std::size_t select(const AbrObservation& obs) override {
      EXPECT_LE(obs.throughput_history.size(), window_);
      EXPECT_EQ(obs.throughput_history.size(), obs.download_time_history.size());
      return 0;
    }

   private:
    std::size_t window_;
  };

  SessionSimulator::Config cfg;
  cfg.throughput_window = 4;
  const trace::Video video(trace::BitrateLadder::default_ladder(), 15, 1.0);
  trace::ConstantBandwidth bw(2000.0);
  CheckingSelector abr(4);
  SessionSimulator sim(cfg);
  Rng rng(5);
  sim.run(video, abr, bw, nullptr, rng);
}

TEST(Session, SwitchCounting) {
  class Alternator final : public BitrateSelector {
   public:
    std::size_t select(const AbrObservation& obs) override { return obs.next_segment % 2; }
  };
  const trace::Video video(trace::BitrateLadder::default_ladder(), 10, 1.0);
  trace::ConstantBandwidth bw(10000.0);
  Alternator abr;
  SessionSimulator sim({});
  Rng rng(6);
  const auto result = sim.run(video, abr, bw, nullptr, rng);
  EXPECT_EQ(result.quality_switches, 9u);
}

TEST(QoeLin, HandComputed) {
  // Build a fake 3-segment session: levels 0,3,3; one 2s stall.
  SessionResult s;
  SegmentRecord a, b, c;
  a.level = 0;
  a.stall_time = 0.0;
  b.level = 3;
  b.stall_time = 2.0;
  c.level = 3;
  c.stall_time = 0.0;
  s.segments = {a, b, c};
  const auto ladder = trace::BitrateLadder::default_ladder();
  // quality = 0.35 + 4.3 + 4.3 = 8.95; stall = 2 * mu; switch = |4.3-0.35|.
  const double q = qoe_lin(s, ladder, trace::QualityMetric::kLinearMbps, 4.3, 1.0);
  EXPECT_NEAR(q, 8.95 - 4.3 * 2.0 - 3.95, 1e-9);
}

TEST(QoeLin, SwitchWeightScales) {
  SessionResult s;
  SegmentRecord a, b;
  a.level = 0;
  b.level = 3;
  s.segments = {a, b};
  const auto ladder = trace::BitrateLadder::default_ladder();
  const double q0 = qoe_lin(s, ladder, trace::QualityMetric::kLinearMbps, 1.0, 0.0);
  const double q2 = qoe_lin(s, ladder, trace::QualityMetric::kLinearMbps, 1.0, 2.0);
  EXPECT_NEAR(q0 - q2, 2.0 * 3.95, 1e-9);
}

// -- Monte Carlo ---------------------------------------------------------

/// Constant exit probability.
class ConstantExit final : public ExitModel {
 public:
  explicit ConstantExit(double p) : p_(p) {}
  double exit_probability(const SegmentRecord&) override { return p_; }

 private:
  double p_;
};

/// Every rollout exits with the constant probability `p` per segment.
testing_util::InlineExitEvaluator constant_exits(double p) {
  return testing_util::InlineExitEvaluator([p] { return std::make_unique<ConstantExit>(p); });
}

/// FixedSelector as a clonable AbrAlgorithm, so each rollout gets its own.
class FixedLevelAbr final : public abr::AbrAlgorithm {
 public:
  explicit FixedLevelAbr(std::size_t level) : level_(level) {}
  std::string name() const override { return "fixed"; }
  std::size_t select(const AbrObservation&) override { return level_; }
  std::unique_ptr<abr::AbrAlgorithm> clone() const override {
    return std::make_unique<FixedLevelAbr>(*this);
  }

 private:
  std::size_t level_;
};

TEST(MonteCarlo, ZeroExitProbabilityGivesZeroRate) {
  MonteCarloConfig mc;
  mc.samples = 8;
  mc.sample_duration = 10.0;
  const MonteCarloEvaluator eval(mc, {});
  const auto ladder = trace::BitrateLadder::default_ladder();
  const trace::Video video = eval.make_virtual_video(ladder, 1.0);
  EXPECT_EQ(video.segment_count(), 10u);
  FixedLevelAbr abr(0);
  const auto exits = constant_exits(0.0);
  trace::NormalBandwidth bw(5000.0, 500.0);
  Rng rng(7);
  const auto r = eval.evaluate_rollouts(video, abr, exits, bw, 0.0,
                                        std::numeric_limits<double>::infinity(), rng);
  EXPECT_DOUBLE_EQ(r.exit_rate, 0.0);
  EXPECT_EQ(r.exited_count, 0u);
  EXPECT_EQ(r.watched_count, 80u);
  EXPECT_FALSE(r.pruned);
}

TEST(MonteCarlo, CertainExitGivesOneExitPerSample) {
  MonteCarloConfig mc;
  mc.samples = 10;
  mc.sample_duration = 20.0;
  mc.enable_pruning = false;
  const MonteCarloEvaluator eval(mc, {});
  const auto ladder = trace::BitrateLadder::default_ladder();
  const trace::Video video = eval.make_virtual_video(ladder, 1.0);
  FixedLevelAbr abr(0);
  const auto exits = constant_exits(1.0);
  trace::NormalBandwidth bw(5000.0, 0.0);
  Rng rng(8);
  const auto r = eval.evaluate_rollouts(video, abr, exits, bw, 0.0,
                                        std::numeric_limits<double>::infinity(), rng);
  EXPECT_EQ(r.exited_count, 10u);
  EXPECT_EQ(r.watched_count, 10u);  // every sample exits on its first segment
  EXPECT_DOUBLE_EQ(r.exit_rate, 1.0);
}

TEST(MonteCarlo, EstimatesModerateRate) {
  MonteCarloConfig mc;
  mc.samples = 200;
  mc.sample_duration = 30.0;
  mc.enable_pruning = false;
  const MonteCarloEvaluator eval(mc, {});
  const auto ladder = trace::BitrateLadder::default_ladder();
  const trace::Video video = eval.make_virtual_video(ladder, 1.0);
  FixedLevelAbr abr(0);
  const auto exits = constant_exits(0.1);
  trace::NormalBandwidth bw(5000.0, 0.0);
  Rng rng(9);
  const auto r = eval.evaluate_rollouts(video, abr, exits, bw, 0.0,
                                        std::numeric_limits<double>::infinity(), rng);
  // Geometric watching: per-segment exit prob 0.1 -> exit rate ~0.1 per
  // watched segment (most samples exit before the horizon).
  EXPECT_NEAR(r.exit_rate, 0.1, 0.03);
}

TEST(MonteCarlo, PruningStopsEarlyAgainstBetterAlternative) {
  MonteCarloConfig mc;
  mc.samples = 100;
  mc.sample_duration = 10.0;
  mc.enable_pruning = true;
  mc.min_samples_before_prune = 5;
  const MonteCarloEvaluator eval(mc, {});
  const auto ladder = trace::BitrateLadder::default_ladder();
  const trace::Video video = eval.make_virtual_video(ladder, 1.0);
  FixedLevelAbr abr(0);
  const auto exits = constant_exits(1.0);  // terrible candidate
  trace::NormalBandwidth bw(5000.0, 0.0);
  Rng rng(10);
  // Best known alternative has near-zero exit rate.
  const auto r = eval.evaluate_rollouts(video, abr, exits, bw, 0.0, 0.001, rng);
  EXPECT_TRUE(r.pruned);
  EXPECT_LT(r.samples_run, 100u);
}

TEST(MonteCarlo, NoPruningWhenCandidateIsGood) {
  MonteCarloConfig mc;
  mc.samples = 30;
  mc.sample_duration = 10.0;
  const MonteCarloEvaluator eval(mc, {});
  const auto ladder = trace::BitrateLadder::default_ladder();
  const trace::Video video = eval.make_virtual_video(ladder, 1.0);
  FixedLevelAbr abr(0);
  const auto exits = constant_exits(0.0);
  trace::NormalBandwidth bw(5000.0, 0.0);
  Rng rng(11);
  const auto r = eval.evaluate_rollouts(video, abr, exits, bw, 0.0, 0.5, rng);
  EXPECT_FALSE(r.pruned);
  EXPECT_EQ(r.samples_run, 30u);
}

TEST(MonteCarlo, InitialBufferSeedsVirtualPlayer) {
  // With a huge initial buffer and slow bandwidth, the early segments must
  // not stall; with zero initial buffer they must.
  MonteCarloConfig mc;
  mc.samples = 1;
  mc.sample_duration = 5.0;
  SessionSimulator::Config sess;
  sess.adaptive_buffer_max = false;
  sess.player.base_buffer_max = 30.0;
  sess.player.max_buffer_max = 30.0;
  const MonteCarloEvaluator eval(mc, sess);
  const auto ladder = trace::BitrateLadder::default_ladder();
  const trace::Video video = eval.make_virtual_video(ladder, 1.0);

  /// Never exits; sums every rollout's stall time into `total`.
  class StallProbe final : public ExitModel {
   public:
    explicit StallProbe(double& total) : total_(total) {}
    double exit_probability(const SegmentRecord& seg) override {
      total_ += seg.stall_time;
      return 0.0;
    }

   private:
    double& total_;
  };
  const auto probe_into = [](double& total) {
    return testing_util::InlineExitEvaluator(
        [&total] { return std::make_unique<StallProbe>(total); });
  };

  trace::ConstantBandwidth slow(200.0);
  FixedLevelAbr abr(0);
  Rng rng(12);

  double with_buffer = 0.0;
  eval.evaluate_rollouts(video, abr, probe_into(with_buffer), slow, 20.0,
                         std::numeric_limits<double>::infinity(), rng);
  double without_buffer = 0.0;
  eval.evaluate_rollouts(video, abr, probe_into(without_buffer), slow, 0.0,
                         std::numeric_limits<double>::infinity(), rng);
  EXPECT_LT(with_buffer, without_buffer);
}

}  // namespace
}  // namespace lingxi::sim
