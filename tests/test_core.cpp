// Unit tests for lingxi_core: trigger logic, pruning, the OBO loop, fixed
// candidate mode and state persistence.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "abr/hyb.h"
#include "common/rng.h"
#include "core/lingxi.h"
#include "predictor/exit_net.h"
#include "predictor/os_model.h"
#include "sim/session.h"
#include "trace/population.h"
#include "trace/video.h"
#include "user/data_driven.h"

namespace lingxi::core {
namespace {

predictor::HybridExitPredictor make_predictor(std::uint64_t seed = 1) {
  Rng rng(seed);
  auto net = std::make_shared<predictor::StallExitNet>(rng);
  auto os = std::make_shared<predictor::OverallStatsModel>();
  return {net, os};
}

sim::SegmentRecord make_segment(Kbps throughput, Seconds stall) {
  sim::SegmentRecord seg;
  seg.level = 1;
  seg.bitrate = 750.0;
  seg.throughput = throughput;
  seg.stall_time = stall;
  return seg;
}

LingXiConfig fast_config() {
  LingXiConfig cfg;
  cfg.obo_rounds = 3;
  cfg.monte_carlo.samples = 4;
  cfg.monte_carlo.sample_duration = 8.0;
  cfg.space.optimize_stall = false;
  cfg.space.optimize_switch = false;
  cfg.space.optimize_beta = true;
  return cfg;
}

TEST(LingXi, NoTriggerBeforeThreshold) {
  const auto lx_predictor = make_predictor();
  LingXi lx(fast_config(), lx_predictor, trace::BitrateLadder::default_ladder());
  lx.begin_session();
  lx.on_segment(make_segment(1000.0, 1.0));
  lx.on_segment(make_segment(1000.0, 1.0));
  // eta = 2: exactly two stalls does not trigger (strictly greater required).
  EXPECT_FALSE(lx.should_optimize());
  lx.on_segment(make_segment(1000.0, 1.0));
  EXPECT_TRUE(lx.should_optimize());
}

TEST(LingXi, CleanSegmentsNeverTrigger) {
  const auto lx_predictor = make_predictor();
  LingXi lx(fast_config(), lx_predictor, trace::BitrateLadder::default_ladder());
  lx.begin_session();
  for (int i = 0; i < 100; ++i) lx.on_segment(make_segment(5000.0, 0.0));
  EXPECT_FALSE(lx.should_optimize());
}

TEST(LingXi, MaybeOptimizeNoOpWithoutTrigger) {
  const auto lx_predictor = make_predictor();
  LingXi lx(fast_config(), lx_predictor, trace::BitrateLadder::default_ladder());
  abr::Hyb hyb;
  Rng rng(2);
  EXPECT_FALSE(lx.maybe_optimize(hyb, 2.0, rng).has_value());
  EXPECT_EQ(lx.stats().optimizations_run, 0u);
}

TEST(LingXi, OptimizationRunsAndUpdatesAbr) {
  const auto lx_predictor = make_predictor();
  LingXi lx(fast_config(), lx_predictor, trace::BitrateLadder::default_ladder());
  lx.begin_session();
  for (int i = 0; i < 4; ++i) lx.on_segment(make_segment(800.0, 1.5));
  ASSERT_TRUE(lx.should_optimize());

  abr::Hyb hyb;
  Rng rng(3);
  const auto result = lx.maybe_optimize(hyb, 2.0, rng);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(lx.stats().optimizations_run, 1u);
  EXPECT_GE(lx.stats().mc_evaluations, 3u);
  // The ABR received the optimized parameters.
  EXPECT_DOUBLE_EQ(hyb.params().hyb_beta, result->hyb_beta);
  // Parameters respect the box.
  const auto& space = lx.current_params();
  EXPECT_GE(space.hyb_beta, fast_config().space.beta_min);
  EXPECT_LE(space.hyb_beta, fast_config().space.beta_max);
  // Trigger counter was reset.
  EXPECT_FALSE(lx.should_optimize());
}

TEST(LingXi, PreplayPruningSkipsHighBandwidthUsers) {
  LingXiConfig cfg = fast_config();
  const auto lx_predictor = make_predictor();
  LingXi lx(cfg, lx_predictor, trace::BitrateLadder::default_ladder());
  lx.begin_session();
  // Huge stable bandwidth with (synthetic) stalls: mu - 3 sigma > 4300.
  for (int i = 0; i < 4; ++i) lx.on_segment(make_segment(50000.0, 1.0));
  abr::Hyb hyb;
  Rng rng(4);
  EXPECT_FALSE(lx.maybe_optimize(hyb, 2.0, rng).has_value());
  EXPECT_EQ(lx.stats().pruned_preplay, 1u);
  EXPECT_EQ(lx.stats().optimizations_run, 0u);
}

TEST(LingXi, PreplayPruningCanBeDisabled) {
  LingXiConfig cfg = fast_config();
  cfg.enable_preplay_pruning = false;
  const auto lx_predictor = make_predictor();
  LingXi lx(cfg, lx_predictor, trace::BitrateLadder::default_ladder());
  lx.begin_session();
  for (int i = 0; i < 4; ++i) lx.on_segment(make_segment(50000.0, 1.0));
  abr::Hyb hyb;
  Rng rng(5);
  EXPECT_TRUE(lx.maybe_optimize(hyb, 2.0, rng).has_value());
}

TEST(LingXi, FixedCandidateModePicksFromList) {
  LingXiConfig cfg = fast_config();
  abr::QoeParams a;
  a.hyb_beta = 0.5;
  abr::QoeParams b;
  b.hyb_beta = 0.9;
  cfg.fixed_candidates = {a, b};
  const auto lx_predictor = make_predictor();
  LingXi lx(cfg, lx_predictor, trace::BitrateLadder::default_ladder());
  lx.begin_session();
  for (int i = 0; i < 4; ++i) lx.on_segment(make_segment(800.0, 1.5));
  abr::Hyb hyb;
  Rng rng(6);
  const auto result = lx.maybe_optimize(hyb, 2.0, rng);
  ASSERT_TRUE(result.has_value());
  // Either one of the fixed candidates won, or the incumbent default was
  // retained under the no-negative-influence margin.
  EXPECT_TRUE(result->hyb_beta == 0.5 || result->hyb_beta == 0.9 ||
              result->hyb_beta == cfg.default_params.hyb_beta);
  // Incumbent + the two fixed candidates.
  EXPECT_EQ(lx.stats().mc_evaluations, 3u);
}

TEST(LingXi, BandwidthEstimateTracksSegments) {
  const auto lx_predictor = make_predictor();
  LingXi lx(fast_config(), lx_predictor, trace::BitrateLadder::default_ladder());
  lx.begin_session();
  for (int i = 0; i < 10; ++i) lx.on_segment(make_segment(2000.0, 0.0));
  const auto [mean, sd] = lx.bandwidth_estimate();
  EXPECT_NEAR(mean, 2000.0, 1e-9);
  EXPECT_NEAR(sd, 0.0, 1e-9);
}

TEST(LingXi, SnapshotRestoreRoundTrip) {
  const auto lx_predictor = make_predictor();
  LingXi lx(fast_config(), lx_predictor, trace::BitrateLadder::default_ladder());
  lx.begin_session();
  for (int i = 0; i < 4; ++i) lx.on_segment(make_segment(800.0, 2.0));
  lx.end_session(true);
  abr::Hyb hyb;
  Rng rng(7);
  lx.maybe_optimize(hyb, 2.0, rng);
  const logstore::UserState snap = lx.snapshot();
  EXPECT_TRUE(snap.has_params);
  EXPECT_EQ(snap.engagement.total_stall_events, 4u);
  EXPECT_EQ(snap.engagement.total_stall_exits, 1u);

  const auto restored_predictor = make_predictor();

  LingXi restored(fast_config(), restored_predictor, trace::BitrateLadder::default_ladder());
  restored.restore(snap);
  EXPECT_DOUBLE_EQ(restored.current_params().hyb_beta, lx.current_params().hyb_beta);
  EXPECT_EQ(restored.engagement().long_term(), snap.engagement);
}

TEST(LingXi, RestoreClampsOutOfBoxParams) {
  logstore::UserState snap;
  snap.has_params = true;
  snap.best_params.hyb_beta = 5.0;  // way outside the box
  const auto lx_predictor = make_predictor();
  LingXi lx(fast_config(), lx_predictor, trace::BitrateLadder::default_ladder());
  lx.restore(snap);
  EXPECT_LE(lx.current_params().hyb_beta, fast_config().space.beta_max);
}

TEST(LingXi, EndSessionWithoutStallExitKeepsCounters) {
  const auto lx_predictor = make_predictor();
  LingXi lx(fast_config(), lx_predictor, trace::BitrateLadder::default_ladder());
  lx.begin_session();
  lx.on_segment(make_segment(800.0, 1.0));
  lx.end_session(false);
  EXPECT_EQ(lx.engagement().long_term().total_stall_exits, 0u);
}

TEST(LingXi, StallSensitiveUserGetsLowerBeta) {
  // Train nothing; instead bias the OS model so exits are expensive, and
  // check that LingXi's chosen beta for a user with many recent stall-exits
  // is not higher than for a user with none. This is a weak behavioural
  // check of the Fig. 14 mechanism (full check lives in the benches).
  LingXiConfig cfg = fast_config();
  cfg.obo_rounds = 6;
  cfg.monte_carlo.samples = 8;

  auto run_user = [&](bool add_exit_history, std::uint64_t seed) {
    const auto lx_predictor = make_predictor(42);
    LingXi lx(cfg, lx_predictor, trace::BitrateLadder::default_ladder());
    lx.begin_session();
    for (int i = 0; i < 4; ++i) {
      lx.on_segment(make_segment(900.0, 2.0));
      if (add_exit_history) lx.end_session(true);
    }
    abr::Hyb hyb;
    Rng rng(seed);
    const auto r = lx.maybe_optimize(hyb, 1.0, rng);
    return r.has_value() ? r->hyb_beta : -1.0;
  };
  const double beta_sensitive = run_user(true, 11);
  const double beta_tolerant = run_user(false, 11);
  ASSERT_GE(beta_sensitive, 0.0);
  ASSERT_GE(beta_tolerant, 0.0);
  // Not a strict inequality in every seed, but both must be in the box.
  EXPECT_GE(beta_sensitive, cfg.space.beta_min);
  EXPECT_LE(beta_tolerant, cfg.space.beta_max);
}

// ---------------------------------------------------------------------------
// Golden trail of the batch-1, pool-free per-user loop (the controller
// shape: maybe_optimize after every live session). The expected words were
// recorded from the sequential whole-session rollout engine with the
// training forward, which batch 1 ran until every Monte Carlo evaluation
// became a RolloutWave; a width-1 wave on the inference forward must
// reproduce them bit for bit.
// ---------------------------------------------------------------------------

/// One stall-sensitive user on a ~700 kbps link, library-default LingXiConfig
/// (32 samples, 8 OBO rounds, batch 1, stall + switch space): after every
/// optimization the trail records the session index, the adopted parameters
/// (IEEE-754 bits) and every LingXiStats counter.
std::vector<std::uint64_t> batch1_controller_trail() {
  const LingXiConfig cfg;
  const auto lx_predictor = make_predictor(77);
  LingXi lx(cfg, lx_predictor, trace::BitrateLadder::default_ladder());
  abr::Hyb hyb;
  trace::NetworkProfile profile;
  profile.mean_bandwidth = 700.0;
  profile.relative_sd = 0.4;
  user::DataDrivenUser::Config behaviour;
  behaviour.stall_archetype = user::StallArchetype::kSensitive;
  behaviour.tolerance = 1.0;
  const sim::SessionSimulator simulator({});
  const trace::VideoGenerator videos({});
  Rng rng(2024);

  std::vector<std::uint64_t> trail;
  for (std::uint64_t s = 0; s < 24; ++s) {
    const trace::Video video = videos.sample(rng);
    const auto bw = profile.make_session_model();
    user::DataDrivenUser model(behaviour);
    lx.begin_session();
    const sim::SessionResult session = simulator.run(video, hyb, *bw, &model, rng);
    for (const auto& seg : session.segments) lx.on_segment(seg);
    lx.end_session(sim::exited_during_stall(session));
    const Seconds buffer =
        session.segments.empty() ? 0.0 : session.segments.back().buffer_after;
    const auto adopted = lx.maybe_optimize(hyb, buffer, rng);
    if (!adopted.has_value()) continue;
    const LingXiStats& st = lx.stats();
    trail.insert(trail.end(),
                 {s, std::bit_cast<std::uint64_t>(adopted->stall_penalty),
                  std::bit_cast<std::uint64_t>(adopted->switch_penalty),
                  std::bit_cast<std::uint64_t>(adopted->hyb_beta), st.triggers,
                  st.optimizations_run, st.pruned_preplay, st.mc_evaluations,
                  st.mc_rollouts_pruned});
  }
  return trail;
}

TEST(LingXiGolden, Batch1TrailMatchesSequentialEngine) {
  // Per optimization: session, stall_penalty, switch_penalty, hyb_beta
  // (bits), triggers, optimizations_run, pruned_preplay, mc_evaluations,
  // mc_rollouts_pruned.
  const std::vector<std::uint64_t> kExpected = {
      2,  0x4011333333333333ULL, 0x3ff0000000000000ULL, 0x3fe999999999999aULL, 1, 1, 0, 8,  4,
      11, 0x400ecbb44b2e4c80ULL, 0x400a413b0f99ce2fULL, 0x3fe999999999999aULL, 2, 2, 0, 16, 10,
      16, 0x3ff08f4b670254f0ULL, 0x3ffb29dd0a385944ULL, 0x3fe999999999999aULL, 3, 3, 0, 24, 14,
  };
  EXPECT_EQ(batch1_controller_trail(), kExpected);
}

}  // namespace
}  // namespace lingxi::core
