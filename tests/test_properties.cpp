// Parameterized property tests (TEST_P sweeps) across module invariants:
// player dynamics, ABR decision validity, parameter-space round trips,
// user-model hazards, GP posteriors, predictor outputs, serialization, and
// the session log.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <tuple>

#include "abr/bba.h"
#include "abr/bola.h"
#include "abr/hyb.h"
#include "abr/pensieve.h"
#include "abr/rate_based.h"
#include "abr/robust_mpc.h"
#include "bayesopt/gp.h"
#include "common/rng.h"
#include "logstore/session_log.h"
#include "nn/dense.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "predictor/exit_net.h"
#include "predictor/hybrid.h"
#include "predictor/os_model.h"
#include "scenario/scenario.h"
#include "sim/fleet_runner.h"
#include "sim/monte_carlo.h"
#include "sim/player_env.h"
#include "sim/session.h"
#include "snapshot/snapshot.h"
#include "stats/ecdf.h"
#include "telemetry/capture.h"
#include "trace/bandwidth.h"
#include "trace/video.h"
#include "user/data_driven.h"

#include "inline_exit_evaluator.h"

namespace lingxi {
namespace {

// ---------------------------------------------------------------------------
// PlayerEnv invariants over a (bandwidth, segment bitrate, buffer) grid.
// ---------------------------------------------------------------------------

using PlayerCase = std::tuple<double /*bandwidth*/, double /*bitrate*/, double /*buffer*/>;

class PlayerEnvProperty : public ::testing::TestWithParam<PlayerCase> {};

TEST_P(PlayerEnvProperty, Eq3InvariantsHold) {
  const auto [bandwidth, bitrate, buffer0] = GetParam();
  sim::PlayerConfig cfg;
  cfg.startup_buffer = buffer0;
  sim::PlayerEnv env(cfg);

  const Bytes size = units::segment_bytes(bitrate, 1.0);
  const auto r = env.step(size, 1.0, bandwidth);

  // Download time is exactly size / bandwidth.
  EXPECT_NEAR(r.download_time, units::download_time(size, bandwidth), 1e-12);
  // Stall is the buffer shortfall, never negative.
  EXPECT_NEAR(r.stall_time, std::max(0.0, r.download_time - buffer0), 1e-12);
  // Buffer stays within [0, B_max].
  EXPECT_GE(r.buffer_after, 0.0);
  EXPECT_LE(r.buffer_after, env.buffer_max() + 1e-9);
  // Wait always includes the RTT.
  EXPECT_GE(r.wait_time, cfg.rtt - 1e-12);
  // Wall clock advanced by download + wait.
  EXPECT_NEAR(env.wall_clock(), r.download_time + r.wait_time, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PlayerEnvProperty,
    ::testing::Combine(::testing::Values(200.0, 800.0, 2000.0, 10000.0),
                       ::testing::Values(350.0, 750.0, 1850.0, 4300.0),
                       ::testing::Values(0.0, 0.5, 4.0, 8.0)));

// ---------------------------------------------------------------------------
// Every ABR returns a valid ladder level for any sane observation, and is
// deterministic given the same observation.
// ---------------------------------------------------------------------------

enum class AbrKind { kHyb, kBba, kBola, kRateBased, kMpc, kPensieve };

using AbrCase = std::tuple<AbrKind, double /*buffer*/, double /*bandwidth*/>;

class AbrValidity : public ::testing::TestWithParam<AbrCase> {
 protected:
  static std::unique_ptr<abr::AbrAlgorithm> make(AbrKind kind) {
    static Rng rng(999);
    switch (kind) {
      case AbrKind::kHyb: return std::make_unique<abr::Hyb>();
      case AbrKind::kBba: return std::make_unique<abr::Bba>();
      case AbrKind::kBola: return std::make_unique<abr::Bola>();
      case AbrKind::kRateBased: return std::make_unique<abr::RateBased>();
      case AbrKind::kMpc: return std::make_unique<abr::RobustMpc>();
      case AbrKind::kPensieve: return std::make_unique<abr::Pensieve>(4, rng);
    }
    return nullptr;
  }
};

TEST_P(AbrValidity, SelectsValidLevelDeterministically) {
  const auto [kind, buffer, bandwidth] = GetParam();
  const trace::Video video(trace::BitrateLadder::default_ladder(), 30, 1.0);
  auto algo = make(kind);

  sim::AbrObservation obs;
  obs.video = &video;
  obs.buffer = buffer;
  obs.buffer_max = 8.0;
  obs.next_segment = 3;
  obs.first_segment = false;
  obs.last_level = 1;
  obs.throughput_history = {bandwidth, bandwidth * 0.9, bandwidth * 1.1};
  obs.download_time_history = {0.5, 0.6, 0.4};

  const std::size_t level = algo->select(obs);
  EXPECT_LT(level, video.ladder().levels());
  EXPECT_EQ(algo->select(obs), level);  // deterministic

  // Clones behave identically.
  EXPECT_EQ(algo->clone()->select(obs), level);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AbrValidity,
    ::testing::Combine(::testing::Values(AbrKind::kHyb, AbrKind::kBba, AbrKind::kBola,
                                         AbrKind::kRateBased, AbrKind::kMpc,
                                         AbrKind::kPensieve),
                       ::testing::Values(0.0, 2.0, 8.0),
                       ::testing::Values(400.0, 2000.0, 9000.0)));

// ---------------------------------------------------------------------------
// ParamSpace: from_unit(to_unit(p)) == clamp(p) for every flag combination.
// ---------------------------------------------------------------------------

class ParamSpaceRoundTrip
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool, int>> {};

TEST_P(ParamSpaceRoundTrip, UnitCubeRoundTrip) {
  const auto [opt_stall, opt_switch, opt_beta, seed] = GetParam();
  if (!opt_stall && !opt_switch && !opt_beta) GTEST_SKIP();
  abr::ParamSpace space;
  space.optimize_stall = opt_stall;
  space.optimize_switch = opt_switch;
  space.optimize_beta = opt_beta;

  Rng rng(static_cast<std::uint64_t>(seed));
  abr::QoeParams p;
  p.stall_penalty = rng.uniform(space.stall_min, space.stall_max);
  p.switch_penalty = rng.uniform(space.switch_min, space.switch_max);
  p.hyb_beta = rng.uniform(space.beta_min, space.beta_max);

  const auto u = space.to_unit(p);
  ASSERT_EQ(u.size(), space.dimensions());
  const abr::QoeParams q = space.from_unit(u, p);
  EXPECT_NEAR(q.stall_penalty, p.stall_penalty, 1e-9);
  EXPECT_NEAR(q.switch_penalty, p.switch_penalty, 1e-9);
  EXPECT_NEAR(q.hyb_beta, p.hyb_beta, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Grid, ParamSpaceRoundTrip,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                                            ::testing::Bool(), ::testing::Range(1, 5)));

// ---------------------------------------------------------------------------
// DataDrivenUser: hazards are monotone in stall time and bounded, for every
// archetype x tolerance combination.
// ---------------------------------------------------------------------------

using UserCase = std::tuple<user::StallArchetype, double /*tolerance*/>;

class UserHazardProperty : public ::testing::TestWithParam<UserCase> {};

TEST_P(UserHazardProperty, MonotoneAndBounded) {
  const auto [archetype, tolerance] = GetParam();
  user::DataDrivenUser::Config cfg;
  cfg.stall_archetype = archetype;
  cfg.tolerance = tolerance;
  user::DataDrivenUser u(cfg);
  double prev = -1.0;
  for (double s = 0.0; s <= 25.0; s += 0.25) {
    const double h = u.stall_hazard(s, 1);
    EXPECT_GE(h, prev - 1e-12);
    EXPECT_GE(h, 0.0);
    EXPECT_LE(h, 1.0);
    prev = h;
  }
  // More stall events never reduce the hazard.
  EXPECT_GE(u.stall_hazard(5.0, 4), u.stall_hazard(5.0, 1) - 1e-12);
}

TEST_P(UserHazardProperty, ExitProbabilityIsProbability) {
  const auto [archetype, tolerance] = GetParam();
  user::DataDrivenUser::Config cfg;
  cfg.stall_archetype = archetype;
  cfg.tolerance = tolerance;
  user::DataDrivenUser u(cfg);
  u.begin_session();
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    sim::SegmentRecord seg;
    seg.level = static_cast<std::size_t>(rng.uniform_int(0, 3));
    seg.bitrate = trace::BitrateLadder::default_ladder().bitrate(seg.level);
    seg.position = rng.uniform(0.0, 120.0);
    seg.stall_time = rng.bernoulli(0.3) ? rng.uniform(0.1, 8.0) : 0.0;
    seg.cumulative_stall = seg.stall_time + rng.uniform(0.0, 10.0);
    seg.cumulative_stall_events = static_cast<std::size_t>(rng.uniform_int(0, 6));
    const double p = u.exit_probability(seg);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, UserHazardProperty,
    ::testing::Combine(::testing::Values(user::StallArchetype::kSensitive,
                                         user::StallArchetype::kThreshold,
                                         user::StallArchetype::kInsensitive),
                       ::testing::Values(1.0, 3.0, 6.0, 12.0)));

// ---------------------------------------------------------------------------
// Gaussian process: posterior interpolates data and variance is bounded by
// the prior, across kernel hyperparameters.
// ---------------------------------------------------------------------------

using GpCase = std::tuple<double /*length_scale*/, double /*noise*/>;

class GpPosteriorProperty : public ::testing::TestWithParam<GpCase> {};

TEST_P(GpPosteriorProperty, PosteriorSaneAcrossHyperparameters) {
  const auto [length_scale, noise] = GetParam();
  bayesopt::GpConfig cfg;
  cfg.length_scale = length_scale;
  cfg.noise_variance = noise;
  bayesopt::GaussianProcess gp(cfg);
  Rng rng(7);
  for (int i = 0; i < 12; ++i) {
    const double x = rng.uniform();
    gp.observe({x}, std::sin(6.0 * x));
  }
  for (double x = 0.0; x <= 1.0; x += 0.05) {
    const auto p = gp.predict({x});
    EXPECT_GE(p.variance, 0.0);
    EXPECT_LE(p.variance, cfg.signal_variance + 1e-9);
    EXPECT_TRUE(std::isfinite(p.mean));
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, GpPosteriorProperty,
                         ::testing::Combine(::testing::Values(0.05, 0.15, 0.3, 0.6),
                                            ::testing::Values(1e-6, 1e-4, 1e-2)));

// ---------------------------------------------------------------------------
// Exit net: outputs are probabilities for any bounded input, across seeds.
// ---------------------------------------------------------------------------

class ExitNetProperty : public ::testing::TestWithParam<int> {};

TEST_P(ExitNetProperty, OutputsAreProbabilities) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  predictor::StallExitNet net(rng);
  Rng data(static_cast<std::uint64_t>(GetParam()) * 31 + 1);
  for (int i = 0; i < 25; ++i) {
    nn::Tensor f({predictor::kChannels, predictor::kHistoryLen});
    for (std::size_t j = 0; j < f.size(); ++j) f[j] = data.uniform(-1.0, 2.0);
    const double p = net.predict(f);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    EXPECT_TRUE(std::isfinite(p));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExitNetProperty, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Session simulation conservation laws over (bandwidth model x video length).
// ---------------------------------------------------------------------------

using SessionCase = std::tuple<double /*mean bw*/, std::size_t /*segments*/>;

class SessionConservation : public ::testing::TestWithParam<SessionCase> {};

TEST_P(SessionConservation, AccountingConsistent) {
  const auto [mean_bw, segments] = GetParam();
  const trace::Video video(trace::BitrateLadder::default_ladder(), segments, 1.0);
  trace::GaussMarkovBandwidth bw({.mean = mean_bw, .rho = 0.9, .noise_sd = mean_bw * 0.2});
  abr::Hyb hyb;
  const sim::SessionSimulator sim({});
  Rng rng(11);
  const auto result = sim.run(video, hyb, bw, nullptr, rng);

  ASSERT_EQ(result.segments.size(), segments);
  EXPECT_DOUBLE_EQ(result.watch_time, static_cast<double>(segments));
  double stall_sum = 0.0;
  std::size_t events = 0;
  double bitrate_sum = 0.0;
  for (const auto& seg : result.segments) {
    stall_sum += seg.stall_time;
    if (seg.stall_time > 0.05) ++events;
    bitrate_sum += seg.bitrate;
    EXPECT_GE(seg.buffer_after, 0.0);
    EXPECT_GT(seg.throughput, 0.0);
  }
  EXPECT_NEAR(result.total_stall, stall_sum, 1e-9);
  EXPECT_EQ(result.stall_events, events);
  EXPECT_NEAR(result.mean_bitrate, bitrate_sum / static_cast<double>(segments), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Grid, SessionConservation,
                         ::testing::Combine(::testing::Values(500.0, 1500.0, 6000.0),
                                            ::testing::Values(std::size_t{5},
                                                              std::size_t{30},
                                                              std::size_t{120})));

// ---------------------------------------------------------------------------
// Session log: encode/decode round trip across session shapes.
// ---------------------------------------------------------------------------

class SessionLogRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(SessionLogRoundTrip, RoundTripsThroughBytes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto segments = static_cast<std::size_t>(rng.uniform_int(1, 60));
  const trace::Video video(trace::BitrateLadder::default_ladder(), segments, 1.0);
  trace::GaussMarkovBandwidth bw({.mean = rng.uniform(400.0, 8000.0)});
  abr::Bba bba;
  const sim::SessionSimulator sim({});

  logstore::SessionLogEntry entry;
  entry.user_id = rng.next();
  entry.timestamp = 1760000000 + static_cast<std::uint64_t>(GetParam());
  entry.video_duration = video.duration();
  entry.session = sim.run(video, bba, bw, nullptr, rng);

  logstore::SessionLogWriter writer;
  writer.append(entry);
  ASSERT_EQ(writer.size(), 1u);
  const auto read = logstore::SessionLogReader::read_bytes(writer.bytes());
  ASSERT_TRUE(read.has_value());
  ASSERT_EQ(read->size(), 1u);
  EXPECT_EQ(read->front(), entry);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionLogRoundTrip, ::testing::Range(1, 9));

TEST(SessionLog, MultipleEntriesAndFileRoundTrip) {
  Rng rng(3);
  const trace::Video video(trace::BitrateLadder::default_ladder(), 10, 1.0);
  trace::ConstantBandwidth bw(2000.0);
  abr::Hyb hyb;
  const sim::SessionSimulator sim({});

  logstore::SessionLogWriter writer;
  for (int i = 0; i < 5; ++i) {
    logstore::SessionLogEntry e;
    e.user_id = static_cast<std::uint64_t>(i);
    e.timestamp = 1700000000u + static_cast<std::uint64_t>(i);
    e.video_duration = video.duration();
    e.session = sim.run(video, hyb, bw, nullptr, rng);
    writer.append(e);
  }
  const std::string path = ::testing::TempDir() + "/lingxi_session_log.bin";
  ASSERT_TRUE(writer.save(path).ok());
  const auto loaded = logstore::SessionLogReader::load(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 5u);
  EXPECT_EQ((*loaded)[4].user_id, 4u);
}

TEST(SessionLog, CorruptionDetected) {
  logstore::SessionLogWriter writer;
  logstore::SessionLogEntry e;
  e.user_id = 1;
  sim::SegmentRecord seg;
  seg.bitrate = 750.0;
  e.session.segments.push_back(seg);
  writer.append(e);
  auto bytes = writer.bytes();
  bytes[bytes.size() / 2] ^= 0x10;
  EXPECT_FALSE(logstore::SessionLogReader::read_bytes(bytes).has_value());
}

// ---------------------------------------------------------------------------
// ECDF properties: monotone, 0/1 at the extremes, inverse is a quantile.
// ---------------------------------------------------------------------------

class EcdfProperty : public ::testing::TestWithParam<int> {};

TEST_P(EcdfProperty, MonotoneAndInverseConsistent) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 17);
  std::vector<double> xs;
  const int n = 50 + GetParam() * 37;
  for (int i = 0; i < n; ++i) xs.push_back(rng.normal(10.0, 4.0));
  const stats::Ecdf cdf(xs);

  double prev = 0.0;
  for (double x = -10.0; x <= 30.0; x += 0.5) {
    const double v = cdf(x);
    EXPECT_GE(v, prev);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    prev = v;
  }
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    const double xq = cdf.inverse(q);
    EXPECT_GE(cdf(xq), q - 1e-12);  // quantile property
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcdfProperty, ::testing::Range(1, 8));

// ---------------------------------------------------------------------------
// Monte Carlo pruning soundness: early exit may only trigger when even an
// exit-free completion of the remaining rollouts could not beat the best
// known exit rate — so pruning can never flip the sign of a candidate
// comparison versus the unpruned evaluator.
// ---------------------------------------------------------------------------

class McPruningProperty : public ::testing::TestWithParam<int> {
 public:
  static sim::MonteCarloConfig mc_config(bool pruning) {
    sim::MonteCarloConfig mc;
    mc.samples = 24;
    mc.sample_duration = 20.0;
    mc.enable_pruning = pruning;
    mc.min_samples_before_prune = 4;
    return mc;
  }

  /// Evaluate a HYB candidate with the given beta from a fixed seed. The Rng
  /// is re-seeded per call so pruned and unpruned runs draw identical
  /// rollouts up to the prune point.
  static sim::MonteCarloResult evaluate(double beta, bool pruning, double best_known,
                                        std::uint64_t seed) {
    const sim::MonteCarloEvaluator eval(mc_config(pruning), {});
    const auto video =
        eval.make_virtual_video(trace::BitrateLadder::default_ladder(), 1.0);
    abr::Hyb hyb;
    abr::QoeParams params;
    params.hyb_beta = beta;
    hyb.set_params(params);
    // Stall-sensitive user over a weak link: exits actually happen, so the
    // comparison is non-trivial.
    user::DataDrivenUser::Config ucfg;
    ucfg.stall_archetype = user::StallArchetype::kSensitive;
    ucfg.tolerance = 1.5;
    const testing_util::InlineExitEvaluator exits(
        [ucfg] { return std::make_unique<user::DataDrivenUser>(ucfg); });
    trace::NormalBandwidth bandwidth(650.0, 280.0);
    Rng rng(seed);
    return eval.evaluate_rollouts(video, hyb, exits, bandwidth, 1.0, best_known, rng);
  }
};

TEST_P(McPruningProperty, PruningPreservesComparisonSign) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  constexpr double kIncumbentBeta = 0.5;
  constexpr double kChallengerBeta = 0.95;
  const double incumbent =
      evaluate(kIncumbentBeta, false, std::numeric_limits<double>::infinity(), seed)
          .exit_rate;
  const double challenger_full =
      evaluate(kChallengerBeta, false, std::numeric_limits<double>::infinity(), seed + 1)
          .exit_rate;

  // Challenger judged against the incumbent's unpruned rate, and against
  // tighter/looser thresholds around it.
  for (double best_known : {incumbent, incumbent * 0.5, incumbent * 0.25,
                            incumbent * 2.0, 1e-3}) {
    if (best_known <= 0.0) continue;
    const auto pruned = evaluate(kChallengerBeta, true, best_known, seed + 1);
    EXPECT_EQ(pruned.exit_rate < best_known, challenger_full < best_known)
        << "best_known=" << best_known << " pruned=" << pruned.exit_rate
        << " full=" << challenger_full << " was_pruned=" << pruned.pruned;
    // A run that was NOT pruned must reproduce the unpruned estimate.
    if (!pruned.pruned) {
      EXPECT_DOUBLE_EQ(pruned.exit_rate, challenger_full);
      EXPECT_EQ(pruned.samples_run, mc_config(true).samples);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, McPruningProperty, ::testing::Range(1, 11));

TEST(McPruning, EngagesAgainstUnbeatableBaseline) {
  // With a near-zero best-known exit rate, a bad candidate must prune early.
  bool any_pruned = false;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto result = McPruningProperty::evaluate(0.95, true, 1e-4, seed);
    any_pruned = any_pruned || result.pruned;
    if (result.pruned) {
      EXPECT_LT(result.samples_run, McPruningProperty::mc_config(true).samples);
    }
  }
  EXPECT_TRUE(any_pruned);
}

// ---------------------------------------------------------------------------
// Batched-inference and cross-user wave invariance: a LingXi fleet's merged
// FleetAccumulator is bitwise identical over the whole (threads x
// users_per_shard x Monte Carlo batch size) grid — wider waves and larger
// shards regroup predictor forwards (users of a shard interleave as
// pausable tasks and pool their exit queries into one flush) but must not
// change a single bit of any result, nor the telemetry archive bytes.
// ---------------------------------------------------------------------------

using WaveCase = std::tuple<int /*threads*/, int /*users_per_shard*/, int /*batch*/>;

class CrossUserWaveInvariance : public ::testing::TestWithParam<WaveCase> {
 public:
  /// Recorded from the per-user schedule (one user at a time, flushes scoped
  /// to one optimization; serial, shard 2, configured batch) before that
  /// schedule was folded into users_per_shard = 1, so the grid stays pinned
  /// to its output rather than to a cell of itself.
  static constexpr std::uint32_t kPerOptimizationChecksum = 0x2c94fb66u;
  static constexpr std::int64_t kPerOptimizationWatchTicks = 1367000000;
  static constexpr std::uint64_t kPerOptimizationOptimizations = 2;
  static constexpr std::uint64_t kPerOptimizationMcEvaluations = 4;

  static sim::FleetConfig fleet_config() {
    sim::FleetConfig cfg;
    cfg.users = 8;
    cfg.days = 2;
    cfg.sessions_per_user_day = 6;
    cfg.users_per_shard = 2;
    cfg.enable_lingxi = true;
    cfg.drift_user_tolerance = true;
    // Weak links so stalls (and therefore optimizations + net forwards)
    // actually happen — otherwise the property would be vacuous.
    cfg.network.median_bandwidth = 1100.0;
    cfg.network.sigma = 0.4;
    cfg.lingxi.space.optimize_stall = false;
    cfg.lingxi.space.optimize_switch = false;
    cfg.lingxi.space.optimize_beta = true;
    cfg.lingxi.obo_rounds = 2;
    cfg.lingxi.monte_carlo.samples = 6;
    cfg.lingxi.monte_carlo.sample_duration = 12.0;
    cfg.lingxi.monte_carlo.min_samples_before_prune = 3;
    return cfg;
  }

  /// `batch` 0 keeps the configured Monte Carlo batch size.
  static sim::FleetAccumulator run(std::size_t threads, std::size_t users_per_shard,
                                   std::size_t batch,
                                   telemetry::TelemetrySink* sink = nullptr) {
    sim::FleetConfig cfg = fleet_config();
    cfg.threads = threads;
    cfg.users_per_shard = users_per_shard;
    if (batch > 0) cfg.lingxi.monte_carlo.batch_size = batch;
    sim::FleetRunner runner(cfg, [] { return std::make_unique<abr::Hyb>(); });
    runner.set_predictor_factory([] {
      Rng net_rng(4242);
      return predictor::HybridExitPredictor(
          std::make_shared<predictor::StallExitNet>(net_rng),
          std::make_shared<predictor::OverallStatsModel>());
    });
    if (sink != nullptr) runner.set_telemetry_sink(sink);
    return runner.run(77);
  }
};

TEST_P(CrossUserWaveInvariance, ChecksumMatchesPerOptimizationGolden) {
  const auto [threads, users_per_shard, batch] = GetParam();
  const sim::FleetAccumulator acc =
      run(static_cast<std::size_t>(threads), static_cast<std::size_t>(users_per_shard),
          static_cast<std::size_t>(batch));
  EXPECT_EQ(acc.checksum(), kPerOptimizationChecksum)
      << std::hex << acc.checksum() << std::dec << " threads=" << threads
      << " users_per_shard=" << users_per_shard << " batch=" << batch;
  // Raw fields too, in case of an unlikely CRC collision; the optimization
  // counts also keep the property from being vacuous.
  EXPECT_EQ(acc.watch_ticks, kPerOptimizationWatchTicks);
  EXPECT_EQ(acc.lingxi_optimizations, kPerOptimizationOptimizations);
  EXPECT_EQ(acc.lingxi_mc_evaluations, kPerOptimizationMcEvaluations);
}

INSTANTIATE_TEST_SUITE_P(Grid, CrossUserWaveInvariance,
                         ::testing::Combine(::testing::Values(1, 4),
                                            ::testing::Values(1, 3, 8),
                                            ::testing::Values(0, 1, 2, 7, 64)));

// The dense kernel's ISA dispatch (nn::dense_isa) must be invisible to
// fleet results: every supported ISA reproduces the scalar checksum bit for
// bit. The override is process-global, so the sweep runs inside one test.
TEST(CrossUserWaveInvariance, ChecksumInvariantAcrossDenseIsa) {
  const nn::DenseIsa before = nn::dense_isa();
  ASSERT_EQ(nn::set_dense_isa_for_testing(nn::DenseIsa::kScalar), nn::DenseIsa::kScalar);
  const sim::FleetAccumulator reference = CrossUserWaveInvariance::run(1, 3, 7);
  ASSERT_GT(reference.lingxi_optimizations, 0u);
  if (nn::dense_isa_supported(nn::DenseIsa::kAvx2)) {
    ASSERT_EQ(nn::set_dense_isa_for_testing(nn::DenseIsa::kAvx2), nn::DenseIsa::kAvx2);
    const sim::FleetAccumulator acc = CrossUserWaveInvariance::run(1, 3, 7);
    EXPECT_EQ(acc.checksum(), reference.checksum());
    EXPECT_EQ(acc.watch_ticks, reference.watch_ticks);
  }
  nn::set_dense_isa_for_testing(before);
}

TEST(CrossUserWaveArchive, BytesIdenticalUnderInterleavedExecution) {
  // ShardedCapture buffers per user, so interleaving users within a shard
  // must leave the merged archive — manifest and every shard byte stream —
  // untouched. Archive shard granularity is fixed; only the execution
  // schedule varies. The reference runs one user per shard (flushes scoped
  // to one optimization), and its bytes are pinned by the archive checksum
  // recorded from the per-user schedule that shard size replaced.
  const auto capture_run = [](std::size_t threads, std::size_t users_per_shard,
                              std::size_t batch) {
    telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{4});
    CrossUserWaveInvariance::run(threads, users_per_shard, batch, &capture);
    return capture.finish();
  };

  const telemetry::FleetArchive reference = capture_run(1, 1, 0);
  EXPECT_EQ(reference.checksum(), 0x2284136du) << std::hex << reference.checksum();
  EXPECT_EQ(reference.total_bytes(), 123088u);

  const WaveCase interleaved_cases[] = {{1, 3, 7}, {4, 8, 64}, {2, 1, 1}, {1, 8, 7}};
  for (const auto& [threads, users_per_shard, batch] : interleaved_cases) {
    const telemetry::FleetArchive archive =
        capture_run(static_cast<std::size_t>(threads),
                    static_cast<std::size_t>(users_per_shard), static_cast<std::size_t>(batch));
    EXPECT_EQ(archive.checksum(), reference.checksum())
        << "threads=" << threads << " users_per_shard=" << users_per_shard
        << " batch=" << batch;
    ASSERT_EQ(archive.shards.size(), reference.shards.size());
    for (std::size_t s = 0; s < reference.shards.size(); ++s) {
      EXPECT_TRUE(archive.shards[s] == reference.shards[s]) << "shard " << s;
    }
  }
}

// ---------------------------------------------------------------------------
// Observability parity: installing the obs registry + tracer must not change
// a single result bit. For a grid of (threads x shard size) cases, the merged
// accumulator checksum AND the telemetry archive bytes of an instrumented
// run are compared against the obs-off run — while asserting the registry
// actually recorded the hot-path metrics (so the property is not vacuous).
// ---------------------------------------------------------------------------

TEST(ObservabilityParity, ChecksumAndArchiveBytesIdenticalWithObsEnabled) {
  struct ObsCase {
    std::size_t threads;
    std::size_t users_per_shard;
    std::size_t batch;
  };
  const ObsCase cases[] = {{1, 1, 0}, {4, 1, 7}, {1, 3, 7}, {4, 8, 64}};
  const auto capture_run = [](const ObsCase& c) {
    telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{4});
    const sim::FleetAccumulator acc =
        CrossUserWaveInvariance::run(c.threads, c.users_per_shard, c.batch, &capture);
    return std::make_pair(acc, capture.finish());
  };
  for (const ObsCase& c : cases) {
    const auto [ref_acc, ref_archive] = capture_run(c);

    // The FULL health plane: registry + tracer + per-day timeline + SLO
    // monitor. The timeline forces run_days onto 1-day chained legs, so this
    // also pins that the chunking is bitwise invisible.
    const std::string timeline_path =
        ::testing::TempDir() + "/lingxi_obs_parity_timeline.bin";
    obs::Registry registry;
    obs::Tracer tracer;
    obs::TimelineWriter timeline(timeline_path);
    obs::HealthMonitor monitor(
        {{obs::SloKind::kGaugeFloor, "sim.fleet.sessions_total", 1.0, "sessions-floor"}});
    obs::Registry::install(&registry);
    obs::Tracer::install(&tracer);
    obs::TimelineWriter::install(&timeline);
    obs::HealthMonitor::install(&monitor);
    const auto [obs_acc, obs_archive] = capture_run(c);
    obs::Registry::install(nullptr);
    obs::Tracer::install(nullptr);
    obs::TimelineWriter::install(nullptr);
    obs::HealthMonitor::install(nullptr);
    EXPECT_TRUE(timeline.close().ok());
    EXPECT_EQ(timeline.days_written(), 2u);  // one record per fleet day
    EXPECT_TRUE(monitor.healthy());
    std::filesystem::remove(timeline_path);

    EXPECT_EQ(obs_acc.checksum(), ref_acc.checksum())
        << "threads=" << c.threads << " users_per_shard=" << c.users_per_shard
        << " batch=" << c.batch;
    EXPECT_EQ(obs_archive.checksum(), ref_archive.checksum());
    ASSERT_EQ(obs_archive.shards.size(), ref_archive.shards.size());
    for (std::size_t s = 0; s < ref_archive.shards.size(); ++s) {
      EXPECT_TRUE(obs_archive.shards[s] == ref_archive.shards[s]) << "shard " << s;
    }

    // Not vacuous: the instrumented run recorded sessions and predictor
    // flushes, and the tracer saw spans.
    const obs::RegistrySnapshot snap = registry.snapshot();
    const obs::MetricSnapshot* steps = snap.find("sim.session.step_us");
    ASSERT_NE(steps, nullptr);
    EXPECT_EQ(steps->count, obs_acc.sessions);
    EXPECT_GT(registry.counter("predictor.pool.flushes"), 0u);
    EXPECT_GE(registry.counter("predictor.pool.queries"),
              registry.counter("predictor.pool.flushes"));
    EXPECT_GT(tracer.retained_events() + tracer.dropped_events(), 0u);
    EXPECT_GT(registry.counter("core.optimization.rounds"), 0u);
  }
}

// ---------------------------------------------------------------------------
// Snapshot/resume parity (the snapshot subsystem's headline contract): for
// any (threads x users_per_shard x Monte Carlo batch) grid
// point, simulating days [0, D+K) in one run vs. snapshot-at-D (through a
// disk round trip) then resume must produce a bitwise-identical
// FleetAccumulator AND bitwise-identical telemetry archive bytes.
// ---------------------------------------------------------------------------

using SnapshotCase = std::tuple<int /*threads*/, int /*users_per_shard*/, int /*batch*/>;

class SnapshotResumeParity : public ::testing::TestWithParam<SnapshotCase> {
 public:
  static constexpr std::uint64_t kSeed = 77;
  static constexpr std::size_t kBoundary = 2;  // D = 2, K = 2 over 4 days

  /// `batch` 0 keeps the configured Monte Carlo batch size.
  static sim::FleetConfig grid_config(int threads, int users_per_shard, int batch) {
    sim::FleetConfig cfg = CrossUserWaveInvariance::fleet_config();
    cfg.days = 4;
    cfg.threads = static_cast<std::size_t>(threads);
    cfg.users_per_shard = static_cast<std::size_t>(users_per_shard);
    if (batch > 0) cfg.lingxi.monte_carlo.batch_size = static_cast<std::size_t>(batch);
    return cfg;
  }

  static sim::FleetRunner::PredictorFactory predictor_factory() {
    return [] {
      Rng net_rng(4242);
      return predictor::HybridExitPredictor(
          std::make_shared<predictor::StallExitNet>(net_rng),
          std::make_shared<predictor::OverallStatsModel>());
    };
  }

  static sim::FleetRunner make_runner(const sim::FleetConfig& cfg) {
    sim::FleetRunner runner(cfg, [] { return std::make_unique<abr::Hyb>(); });
    runner.set_predictor_factory(predictor_factory());
    return runner;
  }
};

TEST_P(SnapshotResumeParity, DiskResumeMatchesFullRunBitwise) {
  const auto [threads, users_per_shard, batch] = GetParam();
  const sim::FleetConfig cfg = grid_config(threads, users_per_shard, batch);

  // Reference: the uninterrupted [0, D+K) run, captured.
  sim::FleetRunner full_runner = make_runner(cfg);
  telemetry::ShardedCapture full_capture(telemetry::ShardedCapture::Config{4});
  full_runner.set_telemetry_sink(&full_capture);
  const sim::FleetAccumulator full = full_runner.run(kSeed);
  const telemetry::FleetArchive full_archive = full_capture.finish();
  ASSERT_GT(full.lingxi_optimizations, 0u);

  // Leg 1: [0, D), snapshotted to disk.
  sim::FleetRunner leg_runner = make_runner(cfg);
  telemetry::ShardedCapture leg_capture(telemetry::ShardedCapture::Config{4});
  leg_runner.set_telemetry_sink(&leg_capture);
  sim::FleetDayState state;
  leg_runner.run_days(kSeed, 0, kBoundary, nullptr, &state);
  auto snap = snapshot::capture_snapshot(leg_runner, kSeed, std::move(state), &leg_capture);
  ASSERT_TRUE(snap.has_value()) << snap.error().message;
  const std::string dir = ::testing::TempDir() + "/lingxi_prop_snap_" +
                          std::to_string(threads) + "_" + std::to_string(users_per_shard) +
                          "_" + std::to_string(batch);
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(snapshot::save_snapshot(*snap, dir, 3).ok());

  // Leg 2: load, verify compatibility, resume [D, D+K) with a fresh runner,
  // wrapped factory and restored capture — the cross-process shape.
  auto loaded = snapshot::load_snapshot(dir);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().message;
  ASSERT_TRUE(snapshot::check_compatible(*loaded, cfg, kSeed).ok());
  sim::FleetRunner resumed_runner(cfg, [] { return std::make_unique<abr::Hyb>(); });
  resumed_runner.set_predictor_factory(
      snapshot::resume_predictor_factory(predictor_factory(), loaded->net_model));
  telemetry::ShardedCapture resumed_capture(telemetry::ShardedCapture::Config{4});
  ASSERT_TRUE(snapshot::restore_capture(resumed_capture, cfg, *loaded).ok());
  resumed_runner.set_telemetry_sink(&resumed_capture);
  const sim::FleetAccumulator resumed =
      resumed_runner.run_days(kSeed, kBoundary, cfg.days, &loaded->state);

  EXPECT_EQ(resumed.checksum(), full.checksum())
      << "threads=" << threads << " users_per_shard=" << users_per_shard
      << " batch=" << batch;
  EXPECT_EQ(resumed.watch_ticks, full.watch_ticks);
  EXPECT_EQ(resumed.stall_ticks, full.stall_ticks);
  EXPECT_EQ(resumed.bitrate_time_ticks, full.bitrate_time_ticks);
  EXPECT_EQ(resumed.lingxi_optimizations, full.lingxi_optimizations);
  EXPECT_EQ(resumed.lingxi_mc_evaluations, full.lingxi_mc_evaluations);
  EXPECT_EQ(resumed.adjusted_user_days, full.adjusted_user_days);

  const telemetry::FleetArchive resumed_archive = resumed_capture.finish();
  EXPECT_EQ(resumed_archive.checksum(), full_archive.checksum());
  ASSERT_EQ(resumed_archive.shards.size(), full_archive.shards.size());
  for (std::size_t s = 0; s < full_archive.shards.size(); ++s) {
    EXPECT_TRUE(resumed_archive.shards[s] == full_archive.shards[s]) << "shard " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, SnapshotResumeParity,
                         ::testing::Combine(::testing::Values(1, 4),
                                            ::testing::Values(1, 8),
                                            ::testing::Values(0, 64)));

// ---------------------------------------------------------------------------
// Deterministic timeline (the health-timeline headline contract): the
// deterministic section of every day record — the accumulator-derived
// `sim.fleet.*` gauges — is BITWISE identical across the whole (threads x
// users_per_shard x Monte Carlo batch) grid, and an SLO rule over a
// deterministic metric fires on the same fleet day in every cell. A
// companion test pins the same bytes across a checkpoint/kill/resume splice:
// leg timelines concatenate to the uninterrupted run's timeline.
// ---------------------------------------------------------------------------

class DeterministicTimeline : public ::testing::TestWithParam<SnapshotCase> {
 public:
  static constexpr std::uint64_t kSeed = 77;

  struct TimelineRun {
    sim::FleetAccumulator acc;
    std::vector<obs::TimelineRecord> records;
    std::vector<obs::HealthAlert> alerts;
  };

  /// Run the 8-user / 4-day grid fleet with the full health plane installed
  /// and return the decoded timeline. `rules` arms the SLO monitor.
  static TimelineRun run_with_timeline(const sim::FleetConfig& cfg,
                                       const std::vector<obs::SloRule>& rules,
                                       const std::string& tag) {
    const std::string path = ::testing::TempDir() + "/lingxi_dtl_" + tag + ".bin";
    TimelineRun out;
    {
      obs::Registry registry;
      obs::TimelineWriter writer(path);
      obs::HealthMonitor monitor(rules);
      obs::Registry::install(&registry);
      obs::TimelineWriter::install(&writer);
      obs::HealthMonitor::install(&monitor);
      sim::FleetRunner runner = SnapshotResumeParity::make_runner(cfg);
      out.acc = runner.run(kSeed);
      obs::Registry::install(nullptr);
      obs::TimelineWriter::install(nullptr);
      obs::HealthMonitor::install(nullptr);
      EXPECT_TRUE(writer.close().ok());
      out.alerts = monitor.alerts();
    }
    auto reader = obs::TimelineReader::open(path);
    EXPECT_TRUE(static_cast<bool>(reader)) << reader.error().message;
    auto records = reader->read_all();
    EXPECT_TRUE(static_cast<bool>(records)) << records.error().message;
    out.records = std::move(*records);
    std::filesystem::remove(path);
    return out;
  }

  /// Day records only (alert records interleave with them in file order).
  static std::vector<const obs::TimelineRecord*> day_records(const TimelineRun& run) {
    std::vector<const obs::TimelineRecord*> days;
    for (const obs::TimelineRecord& r : run.records) {
      if (r.type == obs::TimelineRecord::Type::kDay) days.push_back(&r);
    }
    return days;
  }

  static double det_gauge(const obs::TimelineRecord& day, std::string_view name) {
    for (const obs::MetricSnapshot& m : day.deterministic) {
      if (m.name == name) return m.value;
    }
    ADD_FAILURE() << "gauge " << name << " missing from deterministic section";
    return 0.0;
  }

  struct Reference {
    std::vector<obs::SloRule> rules;
    TimelineRun run;
  };

  /// Reference cell (serial, one user per shard, configured batch)
  /// plus an SLO rule derived from a probe run so that the ceiling on the
  /// deterministic sessions_total is crossed mid-run — the alert must then
  /// land on the SAME day in every grid cell.
  static const Reference& reference() {
    static const Reference* ref = [] {
      auto* r = new Reference;
      const sim::FleetConfig cfg = SnapshotResumeParity::grid_config(1, 1, 0);
      const TimelineRun probe = run_with_timeline(cfg, {}, "probe");
      auto days = day_records(probe);
      EXPECT_EQ(days.size(), 4u);
      const double day2 = det_gauge(*days[1], "sim.fleet.sessions_total");
      const double day3 = det_gauge(*days[2], "sim.fleet.sessions_total");
      EXPECT_LT(day2, day3);
      r->rules = {{obs::SloKind::kGaugeCeiling, "sim.fleet.sessions_total",
                   0.5 * (day2 + day3), "sessions-ceiling"}};
      r->run = run_with_timeline(cfg, r->rules, "ref");
      return r;
    }();
    return *ref;
  }
};

TEST_P(DeterministicTimeline, DetSectionBytesIdenticalAcrossGrid) {
  const Reference& ref = reference();
  const auto ref_days = day_records(ref.run);
  ASSERT_EQ(ref_days.size(), 4u);  // one record per fleet day
  // The derived ceiling fires exactly once, on day 3 (the first boundary
  // whose deterministic sessions_total exceeds it), and rides the timeline.
  ASSERT_EQ(ref.run.alerts.size(), 1u);
  EXPECT_EQ(ref.run.alerts[0].day, 3u);
  EXPECT_EQ(ref.run.alerts[0].rule, "sessions-ceiling");

  const auto [threads, users_per_shard, batch] = GetParam();
  const std::string tag = std::to_string(threads) + "_" + std::to_string(users_per_shard) +
                          "_" + std::to_string(batch);
  const TimelineRun run = run_with_timeline(
      SnapshotResumeParity::grid_config(threads, users_per_shard, batch), ref.rules, tag);

  // Result parity first: arming the health plane changed no result bit.
  EXPECT_EQ(run.acc.checksum(), ref.run.acc.checksum()) << tag;

  // The deterministic section of every day record is bitwise identical.
  const auto days = day_records(run);
  ASSERT_EQ(days.size(), ref_days.size()) << tag;
  for (std::size_t d = 0; d < days.size(); ++d) {
    EXPECT_EQ(days[d]->day, ref_days[d]->day) << tag;
    EXPECT_EQ(days[d]->deterministic_bytes, ref_days[d]->deterministic_bytes)
        << tag << " day " << days[d]->day;
  }

  // The deterministic SLO rule fired on the same fleet day.
  ASSERT_EQ(run.alerts.size(), ref.run.alerts.size()) << tag;
  for (std::size_t a = 0; a < run.alerts.size(); ++a) {
    EXPECT_EQ(run.alerts[a].day, ref.run.alerts[a].day) << tag;
    EXPECT_EQ(run.alerts[a].rule, ref.run.alerts[a].rule) << tag;
    EXPECT_EQ(run.alerts[a].observed, ref.run.alerts[a].observed) << tag;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, DeterministicTimeline,
                         ::testing::Combine(::testing::Values(1, 4),
                                            ::testing::Values(1, 8),
                                            ::testing::Values(0, 64)));

TEST(DeterministicTimelineSplice, LegTimelinesConcatenateToFullRun) {
  // Kill/resume through the snapshot subsystem's disk round trip: the
  // resumed process writes its own timeline with fresh obs sinks, and the
  // two legs' day records concatenate to the uninterrupted run's — same
  // days, same deterministic bytes — while the deterministic SLO alert
  // fires on the same day (it lands in leg 2, whose monitor starts cold).
  const auto& ref = DeterministicTimeline::reference();
  const sim::FleetConfig cfg = SnapshotResumeParity::grid_config(4, 3, 7);

  const DeterministicTimeline::TimelineRun full =
      DeterministicTimeline::run_with_timeline(cfg, ref.rules, "splice_full");
  const auto full_days = DeterministicTimeline::day_records(full);
  ASSERT_EQ(full_days.size(), 4u);
  ASSERT_EQ(full.alerts.size(), 1u);
  ASSERT_EQ(full.alerts[0].day, 3u);

  // Leg 1: days [0, 2) with its own health plane, snapshotted to disk.
  const std::string dir = ::testing::TempDir() + "/lingxi_dtl_splice_snap";
  std::filesystem::remove_all(dir);
  DeterministicTimeline::TimelineRun leg1;
  sim::FleetDayState state;
  {
    const std::string path = ::testing::TempDir() + "/lingxi_dtl_leg1.bin";
    obs::Registry registry;
    obs::TimelineWriter writer(path);
    obs::HealthMonitor monitor(ref.rules);
    obs::Registry::install(&registry);
    obs::TimelineWriter::install(&writer);
    obs::HealthMonitor::install(&monitor);
    sim::FleetRunner runner = SnapshotResumeParity::make_runner(cfg);
    runner.run_days(DeterministicTimeline::kSeed, 0, 2, nullptr, &state);
    auto snap = snapshot::capture_snapshot(runner, DeterministicTimeline::kSeed,
                                           std::move(state), nullptr);
    obs::Registry::install(nullptr);
    obs::TimelineWriter::install(nullptr);
    obs::HealthMonitor::install(nullptr);
    ASSERT_TRUE(snap.has_value()) << snap.error().message;
    ASSERT_TRUE(snapshot::save_snapshot(*snap, dir, 3).ok());
    EXPECT_TRUE(writer.close().ok());
    leg1.alerts = monitor.alerts();
    auto reader = obs::TimelineReader::open(path);
    ASSERT_TRUE(static_cast<bool>(reader));
    auto records = reader->read_all();
    ASSERT_TRUE(static_cast<bool>(records)) << records.error().message;
    leg1.records = std::move(*records);
    std::filesystem::remove(path);
  }
  EXPECT_TRUE(leg1.alerts.empty());  // the ceiling is not yet crossed

  // Leg 2: a "new process" — fresh runner, restored predictor, fresh sinks.
  auto loaded = snapshot::load_snapshot(dir);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().message;
  ASSERT_TRUE(snapshot::check_compatible(*loaded, cfg, DeterministicTimeline::kSeed).ok());
  DeterministicTimeline::TimelineRun leg2;
  {
    const std::string path = ::testing::TempDir() + "/lingxi_dtl_leg2.bin";
    obs::Registry registry;
    obs::TimelineWriter writer(path);
    obs::HealthMonitor monitor(ref.rules);
    obs::Registry::install(&registry);
    obs::TimelineWriter::install(&writer);
    obs::HealthMonitor::install(&monitor);
    sim::FleetRunner runner(cfg, [] { return std::make_unique<abr::Hyb>(); });
    runner.set_predictor_factory(snapshot::resume_predictor_factory(
        SnapshotResumeParity::predictor_factory(), loaded->net_model));
    leg2.acc = runner.run_days(DeterministicTimeline::kSeed, 2, cfg.days, &loaded->state);
    obs::Registry::install(nullptr);
    obs::TimelineWriter::install(nullptr);
    obs::HealthMonitor::install(nullptr);
    EXPECT_TRUE(writer.close().ok());
    leg2.alerts = monitor.alerts();
    auto reader = obs::TimelineReader::open(path);
    ASSERT_TRUE(static_cast<bool>(reader));
    auto records = reader->read_all();
    ASSERT_TRUE(static_cast<bool>(records)) << records.error().message;
    leg2.records = std::move(*records);
    std::filesystem::remove(path);
  }
  std::filesystem::remove_all(dir);

  // Results splice bitwise (the snapshot contract, re-checked with obs on).
  EXPECT_EQ(leg2.acc.checksum(), full.acc.checksum());

  // Day records concatenate: leg1 holds days 1-2, leg2 days 3-4, and each
  // deterministic section matches the uninterrupted run byte for byte.
  const auto leg1_days = DeterministicTimeline::day_records(leg1);
  const auto leg2_days = DeterministicTimeline::day_records(leg2);
  ASSERT_EQ(leg1_days.size(), 2u);
  ASSERT_EQ(leg2_days.size(), 2u);
  const std::vector<const obs::TimelineRecord*> spliced = {
      leg1_days[0], leg1_days[1], leg2_days[0], leg2_days[1]};
  for (std::size_t d = 0; d < full_days.size(); ++d) {
    EXPECT_EQ(spliced[d]->day, full_days[d]->day) << "day index " << d;
    EXPECT_EQ(spliced[d]->deterministic_bytes, full_days[d]->deterministic_bytes)
        << "day " << full_days[d]->day;
  }

  // The deterministic alert fires in leg 2, on the same day as the full run.
  ASSERT_EQ(leg2.alerts.size(), 1u);
  EXPECT_EQ(leg2.alerts[0].day, full.alerts[0].day);
  EXPECT_EQ(leg2.alerts[0].rule, full.alerts[0].rule);
  EXPECT_EQ(leg2.alerts[0].observed, full.alerts[0].observed);
}

// ---------------------------------------------------------------------------
// Scenario determinism (the scenario subsystem's headline contract): with a
// script that fires every event kind — bandwidth shock, diurnal session
// curve, flash crowd, churn, cohort override — the merged accumulator
// checksum AND the telemetry archive bytes are identical across the whole
// (threads x users_per_shard x Monte Carlo batch) grid. Two
// companion tests pin the transparency half of the contract: an empty
// script is byte-for-byte the unscripted run, and a behaviorally NEUTRAL
// non-empty script (scale-1 shock, all-ones curve, day-0 flash crowd,
// default-config override) reproduces the unscripted accumulator and shard
// bytes while only the manifest — whose config digest pins the script —
// differs.
// ---------------------------------------------------------------------------

class ScenarioParity : public ::testing::TestWithParam<SnapshotCase> {
 public:
  static constexpr std::uint64_t kSeed = 77;

  /// Every event kind fires inside the 8-user / 4-day grid fleet. Cohorts
  /// deliberately cut across the users_per_shard=8 single-shard case and the
  /// users_per_shard=1 all-shards case alike; the override uses a stride so
  /// no cohort boundary aligns with a shard boundary.
  static scenario::ScenarioScript event_script() {
    scenario::ScenarioScript script;
    scenario::BandwidthShock shock;
    shock.cohort = {0, 4, 1, 0};
    shock.first_day = 1;
    shock.last_day = 3;
    shock.bandwidth_scale = 0.5;
    shock.sd_scale = 1.3;
    script.shocks.push_back(shock);

    scenario::SessionCurve curve;
    curve.cohort = {0, 8, 1, 0};
    curve.multipliers = {1.0, 1.5, 0.5, 1.0};
    script.curves.push_back(curve);

    scenario::FlashCrowd crowd;
    crowd.cohort = {6, 8, 1, 0};
    crowd.arrival_day = 1;
    script.flash_crowds.push_back(crowd);

    scenario::ChurnEvent churn;
    churn.cohort = {2, 4, 1, 0};
    churn.day = 2;
    script.churns.push_back(churn);

    scenario::CohortOverride mobile;  // slots 1 and 5
    mobile.cohort = {0, 8, 4, 1};
    mobile.population.sensitive_fraction = 0.50;
    mobile.population.threshold_fraction = 0.35;
    mobile.population.insensitive_fraction = 0.15;
    mobile.population.low_tolerance_fraction = 0.40;
    mobile.population.mid_tolerance_fraction = 0.45;
    mobile.population.high_tolerance_fraction = 0.10;
    mobile.population.very_high_tolerance_fraction = 0.05;
    script.cohorts.push_back(mobile);
    return script;
  }

  /// Non-empty but behaviorally inert: exercises the scenario-on code paths
  /// (override factory branch, arrival/curve/shock queries, override drift
  /// population) without perturbing a single random draw or result bit.
  static scenario::ScenarioScript neutral_script() {
    scenario::ScenarioScript script;
    scenario::BandwidthShock shock;
    shock.cohort = {0, 8, 1, 0};
    shock.first_day = 0;
    shock.last_day = 4;
    shock.bandwidth_scale = 1.0;
    shock.sd_scale = 1.0;
    script.shocks.push_back(shock);

    scenario::SessionCurve curve;
    curve.cohort = {0, 8, 1, 0};
    curve.multipliers = {1.0};
    script.curves.push_back(curve);

    scenario::FlashCrowd crowd;
    crowd.cohort = {0, 8, 1, 0};
    crowd.arrival_day = 0;  // present from day 0: nobody is ever absent
    script.flash_crowds.push_back(crowd);

    scenario::CohortOverride stock;  // default config == fleet population
    stock.cohort = {0, 8, 1, 0};
    script.cohorts.push_back(stock);
    return script;
  }

  static std::pair<sim::FleetAccumulator, telemetry::FleetArchive> run(
      const scenario::ScenarioScript& script, int threads, int users_per_shard,
      int batch) {
    sim::FleetConfig cfg = SnapshotResumeParity::grid_config(threads, users_per_shard, batch);
    cfg.scenario = script;
    sim::FleetRunner runner = SnapshotResumeParity::make_runner(cfg);
    telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{4});
    runner.set_telemetry_sink(&capture);
    const sim::FleetAccumulator acc = runner.run(kSeed);
    return std::make_pair(acc, capture.finish());
  }
};

TEST_P(ScenarioParity, ChecksumAndArchiveBytesIdenticalAcrossGrid) {
  static const auto reference = run(event_script(), 1, 1, 0);
  // Meaningful only if the scripted world actually moved: the two churned
  // slots emit departure summaries on top of the 8 horizon summaries, and
  // LingXi kept optimizing through the events.
  ASSERT_EQ(reference.first.users, 10u);
  ASSERT_GT(reference.first.lingxi_optimizations, 0u);

  const auto [threads, users_per_shard, batch] = GetParam();
  const auto [acc, archive] = run(event_script(), threads, users_per_shard, batch);
  EXPECT_EQ(acc.checksum(), reference.first.checksum())
      << "threads=" << threads << " users_per_shard=" << users_per_shard
      << " batch=" << batch;
  EXPECT_EQ(acc.sessions, reference.first.sessions);
  EXPECT_EQ(acc.users, reference.first.users);
  EXPECT_EQ(acc.watch_ticks, reference.first.watch_ticks);
  EXPECT_EQ(acc.stall_ticks, reference.first.stall_ticks);
  EXPECT_EQ(acc.bitrate_time_ticks, reference.first.bitrate_time_ticks);
  EXPECT_EQ(acc.lingxi_optimizations, reference.first.lingxi_optimizations);
  EXPECT_EQ(acc.lingxi_mc_evaluations, reference.first.lingxi_mc_evaluations);
  EXPECT_EQ(acc.adjusted_user_days, reference.first.adjusted_user_days);

  EXPECT_EQ(archive.checksum(), reference.second.checksum());
  ASSERT_EQ(archive.shards.size(), reference.second.shards.size());
  for (std::size_t s = 0; s < reference.second.shards.size(); ++s) {
    EXPECT_TRUE(archive.shards[s] == reference.second.shards[s]) << "shard " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, ScenarioParity,
                         ::testing::Combine(::testing::Values(1, 4),
                                            ::testing::Values(1, 8),
                                            ::testing::Values(0, 64)));

TEST(ScenarioScript, EventScriptActuallyChangesTheRun) {
  // Non-vacuity for the grid above: the scripted run differs from the
  // unscripted one in exactly the expected shape — extra user summaries from
  // the churn departures and a different session tally from the curve +
  // flash-crowd absence.
  const auto scripted = ScenarioParity::run(ScenarioParity::event_script(), 1, 2, 0);
  const auto plain = ScenarioParity::run(scenario::ScenarioScript{}, 1, 2, 0);
  EXPECT_EQ(scripted.first.users, plain.first.users + 2);
  EXPECT_NE(scripted.first.sessions, plain.first.sessions);
  EXPECT_NE(scripted.first.checksum(), plain.first.checksum());
}

TEST(ScenarioScript, EmptyScriptIsByteForByteTheUnscriptedRun) {
  // Unscripted reference built WITHOUT touching FleetConfig::scenario.
  const sim::FleetConfig cfg = SnapshotResumeParity::grid_config(4, 3, 7);
  sim::FleetRunner runner = SnapshotResumeParity::make_runner(cfg);
  telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{4});
  runner.set_telemetry_sink(&capture);
  const sim::FleetAccumulator plain = runner.run(ScenarioParity::kSeed);
  const telemetry::FleetArchive plain_archive = capture.finish();

  const auto [acc, archive] = ScenarioParity::run(scenario::ScenarioScript{}, 4, 3, 7);
  EXPECT_EQ(acc.checksum(), plain.checksum());
  // Full archive equality INCLUDING the manifest: the config digest skips
  // the scenario section when the script is empty, so existing archives and
  // snapshots keep their digests.
  EXPECT_EQ(archive.manifest.config_digest, plain_archive.manifest.config_digest);
  EXPECT_EQ(archive.checksum(), plain_archive.checksum());
  ASSERT_EQ(archive.shards.size(), plain_archive.shards.size());
  for (std::size_t s = 0; s < plain_archive.shards.size(); ++s) {
    EXPECT_TRUE(archive.shards[s] == plain_archive.shards[s]) << "shard " << s;
  }
}

TEST(ScenarioScript, NeutralScriptIsBitTransparent) {
  // The strong transparency property: a NON-empty script whose events are
  // all no-ops runs the scenario code paths yet reproduces the unscripted
  // results and shard bytes exactly. Only the manifest moves, because a
  // non-empty script is pinned into the config digest.
  const scenario::ScenarioScript script = ScenarioParity::neutral_script();
  ASSERT_FALSE(script.empty());
  const auto neutral = ScenarioParity::run(script, 1, 2, 0);
  const auto plain = ScenarioParity::run(scenario::ScenarioScript{}, 1, 2, 0);
  EXPECT_EQ(neutral.first.checksum(), plain.first.checksum());
  EXPECT_EQ(neutral.first.sessions, plain.first.sessions);
  EXPECT_EQ(neutral.first.users, plain.first.users);
  ASSERT_EQ(neutral.second.shards.size(), plain.second.shards.size());
  for (std::size_t s = 0; s < plain.second.shards.size(); ++s) {
    EXPECT_TRUE(neutral.second.shards[s] == plain.second.shards[s]) << "shard " << s;
  }
  EXPECT_NE(neutral.second.manifest.config_digest, plain.second.manifest.config_digest);
}

// ---------------------------------------------------------------------------
// Permutation invariance of batch assembly: the order in which queries are
// gathered into a predictor batch must not change any individual result —
// each row's forward is an independent, order-preserving accumulation.
// ---------------------------------------------------------------------------

TEST(PredictBatchAssembly, PermutationInvariantAndScalarExact) {
  Rng rng(31);
  auto net = std::make_shared<predictor::StallExitNet>(rng);
  auto os = std::make_shared<predictor::OverallStatsModel>();
  for (std::size_t i = 0; i < 300; ++i) {
    os->observe(i % 4, static_cast<predictor::SwitchType>(i % 3), rng.bernoulli(0.04));
  }
  const predictor::HybridExitPredictor predictor(net, os);

  // Distinct engagement states (varied stall histories) -> distinct queries.
  constexpr std::size_t kQueries = 13;
  std::vector<predictor::EngagementState> states;
  for (std::size_t s = 0; s < kQueries; ++s) {
    Rng hist_rng(900 + s);
    predictor::EngagementState state;
    state.begin_session();
    for (std::size_t i = 0; i < 24; ++i) {
      sim::SegmentRecord seg;
      seg.index = i;
      seg.level = i % 4;
      seg.bitrate = hist_rng.uniform(300.0, 4000.0);
      seg.throughput = hist_rng.uniform(500.0, 8000.0);
      seg.stall_time = hist_rng.bernoulli(0.35) ? hist_rng.uniform(0.1, 3.0) : 0.0;
      state.on_segment(seg, 1.0);
      if (seg.stall_time > 0.0 && hist_rng.bernoulli(0.3)) state.on_stall_exit();
    }
    states.push_back(std::move(state));
  }

  std::vector<predictor::HybridExitPredictor::ExitQuery> queries(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    queries[i].state = &states[i];
    queries[i].level = i % 4;
    queries[i].stall_time = i % 4 == 0 ? 0.0 : 0.1 + 0.15 * static_cast<double>(i);
    queries[i].sw = static_cast<predictor::SwitchType>(i % 3);
  }

  // Oracle: the training forward (StallExitNet::predict) through the same OS
  // lookup and blend.
  std::vector<double> oracle(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    const auto& q = queries[i];
    oracle[i] = q.stall_time <= predictor::HybridExitPredictor::kNnStallThreshold
                    ? std::clamp(os->predict(q.level, q.sw), 0.0, 1.0)
                    : predictor.finish_stalled(q, net->predict(q.state->features()));
  }

  std::vector<double> in_order(kQueries);
  predictor.predict_batch(kQueries, queries.data(), in_order.data());

  // A fixed non-trivial permutation (reverse + interleave via stride 5,
  // coprime with 13).
  std::vector<std::size_t> perm;
  for (std::size_t i = 0; i < kQueries; ++i) perm.push_back((i * 5 + 3) % kQueries);
  std::vector<predictor::HybridExitPredictor::ExitQuery> shuffled;
  for (const std::size_t p : perm) shuffled.push_back(queries[p]);
  std::vector<double> permuted(kQueries);
  predictor.predict_batch(kQueries, shuffled.data(), permuted.data());

  for (std::size_t i = 0; i < kQueries; ++i) {
    EXPECT_EQ(in_order[i], oracle[i]) << "in-order query " << i;
    EXPECT_EQ(permuted[i], oracle[perm[i]]) << "permuted slot " << i;
  }
}

}  // namespace
}  // namespace lingxi
