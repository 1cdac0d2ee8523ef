// Ablation benches for the design choices called out in DESIGN.md / §4-§6:
//   1. Monte Carlo sample count vs decision quality (exit-rate estimate
//      variance) — why M need not be large;
//   2. virtual-playback pruning on/off — samples saved at equal decisions;
//   3. trigger threshold eta sweep — optimizations run vs stall outcome;
//   4. Bayesian optimization vs random search at equal budget.
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <vector>

#include "abr/hyb.h"
#include "bayesopt/obo.h"
#include "bench_util.h"
#include "common/running_stats.h"
#include "core/lingxi.h"
#include "sim/fleet_runner.h"
#include "sim/monte_carlo.h"
#include "trace/bandwidth.h"
#include "trace/video.h"

using namespace lingxi;

namespace {

void ablate_mc_samples(const bench::TrainedPredictor& predictor) {
  bench::print_header("Ablation 1: Monte Carlo sample count vs estimate spread");
  // Fixed user state and candidate; the exit-rate estimate across reruns
  // should tighten as M grows.
  predictor::EngagementState state;
  state.begin_session();
  for (int i = 0; i < 3; ++i) {
    sim::SegmentRecord seg;
    seg.bitrate = 750.0;
    seg.level = 1;
    seg.throughput = 900.0;
    seg.stall_time = 1.5;
    seg.cumulative_stall = 1.5 * (i + 1);
    seg.cumulative_stall_events = static_cast<std::size_t>(i + 1);
    state.on_segment(seg, 1.0);
  }
  std::printf("%-10s %-14s %-14s\n", "samples", "mean R_exit", "sd across runs");
  for (std::size_t samples : {2, 4, 8, 16, 32, 64}) {
    sim::MonteCarloConfig mc;
    mc.samples = samples;
    mc.enable_pruning = false;
    const sim::MonteCarloEvaluator eval(mc, {});
    const auto video = eval.make_virtual_video(trace::BitrateLadder::default_ladder(), 1.0);
    const predictor::HybridExitPredictor hybrid = predictor.make();
    const predictor::BatchPredictorExitEvaluator exits(hybrid, state, 1.0);
    abr::Hyb hyb;
    const trace::NormalBandwidth bw(900.0, 300.0);
    RunningStats runs;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      Rng rng(seed);
      runs.add(eval.evaluate_rollouts(video, hyb, exits, bw, 2.0,
                                      std::numeric_limits<double>::infinity(), rng)
                   .exit_rate);
    }
    std::printf("%-10zu %-14.4f %-14.4f\n", samples, runs.mean(), runs.stddev());
  }
}

void ablate_pruning(const bench::TrainedPredictor& predictor) {
  bench::print_header("Ablation 2: virtual-playback pruning");
  for (bool pruning : {false, true}) {
    core::LingXiConfig cfg;
    cfg.space.optimize_beta = true;
    cfg.space.optimize_stall = false;
    cfg.space.optimize_switch = false;
    cfg.obo_rounds = 8;
    cfg.monte_carlo.samples = 16;
    cfg.monte_carlo.enable_pruning = pruning;

    const auto lingxi_predictor = predictor.make();
    core::LingXi lingxi(cfg, lingxi_predictor, trace::BitrateLadder::default_ladder());
    lingxi.begin_session();
    for (int i = 0; i < 5; ++i) {
      sim::SegmentRecord seg;
      seg.bitrate = 750.0;
      seg.level = 1;
      seg.throughput = 900.0;
      seg.stall_time = 1.2;
      lingxi.on_segment(seg);
    }
    abr::Hyb hyb;
    Rng rng(99);
    const auto params = lingxi.maybe_optimize(hyb, 2.0, rng);
    std::printf("pruning=%-5s beta=%.3f evaluations=%llu rollouts_pruned=%llu\n",
                pruning ? "on" : "off", params ? params->hyb_beta : -1.0,
                static_cast<unsigned long long>(lingxi.stats().mc_evaluations),
                static_cast<unsigned long long>(lingxi.stats().mc_rollouts_pruned));
  }
  std::printf("(pruned evaluations stop early yet the chosen beta should be similar)\n");
}

void ablate_trigger(const bench::TrainedPredictor& predictor) {
  bench::print_header("Ablation 3: trigger threshold eta");
  std::printf("%-6s %-16s %-16s %-14s %-14s\n", "eta", "optimizations",
              "adjusted u-days", "stall (s)", "watch (s)");
  for (std::size_t eta : {0, 1, 2, 4, 8}) {
    sim::FleetConfig fleet;
    fleet.users = 40;
    fleet.days = 3;
    fleet.sessions_per_user_day = 8;
    fleet.threads = 0;  // result is thread-count independent
    fleet.enable_lingxi = true;
    fleet.drift_user_tolerance = true;
    // Low-bandwidth, high-variability world: the eta sweep is only
    // informative when stalls actually happen.
    fleet.network.median_bandwidth = 1300.0;
    fleet.network.sigma = 0.5;
    fleet.network.relative_sd = 0.45;
    fleet.session_jitter_sigma = 0.4;
    // Match the production A/B setup (§5.3): search HYB's beta only.
    fleet.lingxi.space.optimize_stall = false;
    fleet.lingxi.space.optimize_switch = false;
    fleet.lingxi.space.optimize_beta = true;
    fleet.lingxi.trigger_stall_threshold = eta;
    fleet.lingxi.obo_rounds = 4;
    fleet.lingxi.monte_carlo.samples = 6;

    sim::FleetRunner runner(fleet, [] { return std::make_unique<abr::Hyb>(); });
    runner.set_predictor_factory([&] { return predictor.make(); });
    const sim::FleetAccumulator result = runner.run(12345);
    std::printf("%-6zu %-16llu %-16llu %-14.1f %-14.1f\n", eta,
                static_cast<unsigned long long>(result.lingxi_optimizations),
                static_cast<unsigned long long>(result.adjusted_user_days),
                result.total_stall_time(), result.total_watch_time());
  }
  std::printf("(small eta = more frequent personalization; eta=2 is the paper's "
              "compromise)\n");
}

void ablate_bo_vs_random() {
  bench::print_header("Ablation 4: Bayesian optimization vs random search");
  // Optimize a synthetic exit-rate-like objective: smooth 2d bowl + noise.
  auto objective = [](double x, double y, Rng& rng) {
    return 0.3 * (x - 0.65) * (x - 0.65) + 0.2 * (y - 0.25) * (y - 0.25) +
           rng.normal(0.0, 0.002);
  };
  std::printf("%-10s %-16s %-16s\n", "budget", "BO best (mean)", "random best (mean)");
  for (int budget : {5, 10, 20}) {
    RunningStats bo, random_search;
    for (std::uint64_t trial = 0; trial < 20; ++trial) {
      Rng rng(trial * 31 + static_cast<std::uint64_t>(budget));
      bayesopt::OnlineBayesOpt obo(2);
      for (int i = 0; i < budget; ++i) {
        const auto x = obo.next_candidate(rng);
        obo.update(x, objective(x[0], x[1], rng));
      }
      bo.add(obo.best_value());

      Rng rng2(trial * 37 + static_cast<std::uint64_t>(budget));
      double best = 1e9;
      for (int i = 0; i < budget; ++i) {
        best = std::min(best, objective(rng2.uniform(), rng2.uniform(), rng2));
      }
      random_search.add(best);
    }
    std::printf("%-10d %-16.5f %-16.5f\n", budget, bo.mean(), random_search.mean());
  }
  std::printf("(BO should match or beat random search, increasingly so with budget)\n");
}

}  // namespace

int main() {
  std::printf("training shared exit-rate predictor...\n");
  const auto predictor = bench::train_predictor(333, 0.5);
  ablate_mc_samples(predictor);
  ablate_pruning(predictor);
  ablate_trigger(predictor);
  ablate_bo_vs_random();
  return 0;
}
