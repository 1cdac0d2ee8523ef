// Golden regression for the Fig. 13 pipeline on its FleetRunner-backed
// driver: a tiny-population run is compared against a committed JSON fixture
// (tests/data/fig13_golden.json), so any change to the experiment driver,
// the fleet substrate, the batched predictor path, or the bucket computation
// that moves the figure's numbers fails loudly.
//
// The same run is repeated with worker threads and a batched predictor and
// must render byte-identical JSON — the figure is independent of every
// throughput knob.
//
// Regenerating the fixture (after an intentional numbers change):
//   LINGXI_REGEN_FIG13_GOLDEN=1 ./test_fig13_regression
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "abr/hyb.h"
#include "analytics/fig13.h"
#include "common/rng.h"
#include "predictor/exit_net.h"
#include "predictor/hybrid.h"
#include "predictor/os_model.h"

#ifndef LINGXI_TEST_DATA_DIR
#define LINGXI_TEST_DATA_DIR "tests/data"
#endif

namespace lingxi {
namespace {

constexpr std::uint64_t kSeed = 555;

analytics::ExperimentConfig tiny_config() {
  analytics::ExperimentConfig cfg;
  cfg.users = 8;
  cfg.days = 4;
  cfg.sessions_per_user_day = 6;
  cfg.intervention_day = 0;  // post-deploy view, as in the full bench
  // Bursty mid-bandwidth world: buffers build between bandwidth dips, so
  // HYB's beta actually flips decisions AND stalls still fire the trigger —
  // the treatment arm measurably diverges from control (at these settings
  // LingXi cuts summed stall by ~20%), so the fixture pins LingXi's effect,
  // not just the plumbing. A purely starved world pins nothing: every
  // session runs at ladder level 0 whatever beta is.
  cfg.network.median_bandwidth = 2800.0;
  cfg.network.sigma = 0.35;
  cfg.network.relative_sd = 0.45;
  cfg.lingxi.obo_rounds = 3;
  cfg.lingxi.monte_carlo.samples = 4;
  cfg.lingxi.monte_carlo.sample_duration = 10.0;
  cfg.lingxi.adoption_margin = 0.0;
  return cfg;
}

std::function<predictor::HybridExitPredictor()> predictor_factory() {
  // Deterministic untrained net: the fixture pins the pipeline, not model
  // quality, and skipping training keeps the regression fast. The factory is
  // re-seeded per call so every arm/user sees identical weights.
  return [] {
    Rng net_rng(7777);
    return predictor::HybridExitPredictor(
        std::make_shared<predictor::StallExitNet>(net_rng),
        std::make_shared<predictor::OverallStatsModel>());
  };
}

std::string run_tiny_fig13(std::size_t threads, std::size_t batch) {
  analytics::ExperimentConfig cfg = tiny_config();
  cfg.threads = threads;
  cfg.lingxi.monte_carlo.batch_size = batch;
  const analytics::PopulationExperiment experiment(
      cfg, [] { return std::make_unique<abr::Hyb>(); }, predictor_factory());
  return analytics::to_json(analytics::run_fig13(experiment, kSeed));
}

std::string golden_path() {
  return std::string(LINGXI_TEST_DATA_DIR) + "/fig13_golden.json";
}

/// Every numeric token in the text, in order (labels like "0-2 Mbps"
/// contribute identically on both sides, so sequence comparison is sound).
std::vector<double> numbers_in(const std::string& text) {
  std::vector<double> out;
  const char* p = text.c_str();
  const char* end = p + text.size();
  while (p < end) {
    if ((*p >= '0' && *p <= '9') ||
        (*p == '-' && p + 1 < end && p[1] >= '0' && p[1] <= '9')) {
      char* next = nullptr;
      out.push_back(std::strtod(p, &next));
      p = next;
    } else {
      ++p;
    }
  }
  return out;
}

TEST(Fig13Regression, MatchesCommittedGolden) {
  const std::string actual = run_tiny_fig13(/*threads=*/1, /*batch=*/1);

  if (std::getenv("LINGXI_REGEN_FIG13_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << actual;
    return;
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in.good()) << "missing fixture " << golden_path()
                         << " (regenerate with LINGXI_REGEN_FIG13_GOLDEN=1)";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();

  const std::vector<double> want = numbers_in(golden);
  const std::vector<double> got = numbers_in(actual);
  ASSERT_EQ(got.size(), want.size()) << "fixture shape changed:\n" << actual;
  for (std::size_t i = 0; i < want.size(); ++i) {
    // Numeric (not string) comparison with a tight relative tolerance:
    // simulations are deterministic, but FP contraction may differ a ulp or
    // two across compilers.
    const double tol = std::max(1e-9, 1e-6 * std::abs(want[i]));
    EXPECT_NEAR(got[i], want[i], tol) << "token " << i << "\n" << actual;
  }
}

TEST(Fig13Regression, IndependentOfThreadsAndBatch) {
  const std::string scalar = run_tiny_fig13(/*threads=*/1, /*batch=*/1);
  const std::string batched = run_tiny_fig13(/*threads=*/2, /*batch=*/7);
  // Byte-identical JSON: the figure cannot depend on throughput knobs.
  EXPECT_EQ(scalar, batched);
}

}  // namespace
}  // namespace lingxi
