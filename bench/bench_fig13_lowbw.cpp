// Figure 13: "LingXi Performance under Different BW" (§5.4) — the long-tail
// story.
//
//   (a) LingXi-assigned beta (mean, SD) per bandwidth bucket — beta grows
//       with bandwidth (conservative when stalls threaten, aggressive when
//       they don't);
//   (b) relative stall-time change vs the static-beta control per bucket —
//       large reductions below 2000 kbps (paper: up to -15%), converging to
//       ~0 at high bandwidth.
//
// Both arms run on sim::FleetRunner (via analytics::PopulationExperiment)
// with batched predictor inference; the bucket computation itself lives in
// analytics::fig13 and is locked by tests/test_fig13_regression.cpp.
#include <cstdio>
#include <memory>

#include "abr/hyb.h"
#include "analytics/fig13.h"
#include "bench_util.h"

using namespace lingxi;

int main() {
  std::printf("training shared exit-rate predictor...\n");
  const auto predictor = bench::train_predictor(909, 0.7);

  analytics::ExperimentConfig cfg;
  cfg.users = 400;
  cfg.days = 6;
  cfg.sessions_per_user_day = 12;
  cfg.intervention_day = 0;  // LingXi active the whole time (post-deploy view)
  cfg.threads = 0;           // fleet-parallel: all hardware threads
  cfg.lingxi.monte_carlo.batch_size = 16;  // batched candidate-session inference
  cfg.network.median_bandwidth = 3500.0;
  cfg.network.sigma = 0.9;        // wide spread across buckets
  cfg.network.relative_sd = 0.45;  // bursty links: stalls happen while the
                                   // buffer still matters, so beta has bite
  cfg.lingxi.obo_rounds = 6;
  cfg.lingxi.monte_carlo.samples = 16;
  cfg.lingxi.adoption_margin = 0.1;

  const analytics::PopulationExperiment experiment(
      cfg, [] { return std::make_unique<abr::Hyb>(); },
      [&] { return predictor.make(); });
  const analytics::Fig13Result fig = analytics::run_fig13(experiment, 555);

  bench::print_header("Figure 13(a): LingXi beta vs bandwidth");
  std::printf("%-14s %-10s %-10s %-8s\n", "bandwidth", "mean beta", "sd", "user-days");
  for (const auto& b : fig.buckets) {
    if (b.user_days == 0) continue;
    std::printf("%-14s %-10.3f %-10.3f %-8zu\n", b.label.c_str(), b.mean_beta, b.sd_beta,
                b.user_days);
  }
  std::printf("(expect mean beta increasing with bandwidth)\n");

  bench::print_header("Figure 13(b): relative stall-time change vs baseline");
  std::printf("%-14s %-18s %-14s %-14s\n", "bandwidth", "stall diff (%)",
              "control (s)", "treatment (s)");
  for (const auto& b : fig.buckets) {
    if (b.control_stall <= 0.0) continue;
    std::printf("%-14s %+-18.1f %-14.1f %-14.1f\n", b.label.c_str(), b.stall_diff_pct(),
                b.control_stall, b.treatment_stall);
  }
  std::printf("(paper: up to -15%% below 2000 kbps; ~0 at high bandwidth)\n");
  return 0;
}
