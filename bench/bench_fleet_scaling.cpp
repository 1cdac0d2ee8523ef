// Fleet scaling: sessions/sec of sim::FleetRunner at 1/2/4/8 worker threads,
// and batched predictor inference on the LingXi fleet.
//
// Four sections:
//   * a raw-simulation fleet (no LingXi) — pure session-loop throughput;
//   * a LingXi treatment fleet with width-1 Monte Carlo waves (monte_carlo
//     batch_size 1, labelled "scalar": one rollout at a time, one 1-row
//     forward per stalled segment) — the Fig. 10-12 experiment shape;
//   * the same fleet with per-optimization batching (--batch N, default 16):
//     N Monte Carlo rollouts advance in lockstep and the stall-exit net
//     evaluates whole waves per forward, scoped to one optimization (one
//     user per shard). Both arms run the same inference forward, so their
//     ratio measures what wave width buys, not a second engine;
//   * cross-user vs per-optimization (a larger fleet, 512 users full mode):
//     with many users per shard, the cohort waves pool every stalled exit
//     query across the shard's users into one flush; the per-optimization
//     arm runs the same fleet at one user per shard. Reported with the mean
//     batch occupancy per flush of both arms.
//
// Checksum contract: within a section the merged FleetAccumulator checksum
// must be identical at every thread count; the batched sections must
// reproduce the width-1 section's checksum bit for bit; and both shard
// sizes must agree bitwise on the comparison fleet. A mismatch is a
// determinism bug and exits non-zero — CI runs this binary as the
// batched-path smoke.
//
// The summary's gated ratios (batched/scalar, cross/per-opt) compare serial
// sessions/s. Under --smoke each of those four serial arms is timed as the
// median of 3 repetitions, interleaved A, B, A, B, A, B per pair, so one
// host-side burst during a ~50 ms run cannot decide a ratio.
//
// Flags: --batch N (lockstep batch, default 16), --users-per-shard N
// (override the comparison fleet's shard size), --json PATH
// (machine-readable summary), --smoke (shrunk configs + {1,2} threads +
// repeated gated arms for CI), --metrics-json PATH (obs registry snapshot across all
// sections), --trace-out PATH (Chrome trace_event JSON of the instrumented
// spans), --timeline-out PATH (per-day health timeline across all sections),
// --slo SPEC (repeatable kind:metric:threshold[:name] SLO rules; a fired
// rule exits 3). The dense kernel ISA follows nn::dense_isa() and is
// reported in the summary; force it with LINGXI_DENSE_ISA.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "abr/hyb.h"
#include "bench_util.h"
#include "nn/dense.h"
#include "sim/fleet_runner.h"

using namespace lingxi;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct TimedRun {
  double wall = 0.0;
  double rate = 0.0;  ///< sessions/s
  std::uint32_t checksum = 0;
  sim::FleetRunStats stats;
};

/// One timed fleet run of `cfg` at its configured thread count.
TimedRun timed_run(const sim::FleetConfig& cfg,
                   const sim::FleetRunner::PredictorFactory& predictor_factory,
                   std::uint64_t seed) {
  sim::FleetRunner runner(cfg, [] { return std::make_unique<abr::Hyb>(); });
  if (predictor_factory) runner.set_predictor_factory(predictor_factory);
  TimedRun out;
  const auto start = std::chrono::steady_clock::now();
  const sim::FleetAccumulator result = runner.run(seed, &out.stats);
  out.wall = seconds_since(start);
  out.rate = out.wall > 0.0 ? static_cast<double>(result.sessions) / out.wall : 0.0;
  out.checksum = result.checksum();
  return out;
}

/// One fleet at every thread count; the first (serial) run is the reference
/// every later checksum must match.
struct ScalingRun {
  std::vector<TimedRun> runs;  ///< one per thread count
  bool checksums_match = true;
  const TimedRun& serial() const { return runs.front(); }
};

ScalingRun run_threads(const sim::FleetConfig& base,
                       const sim::FleetRunner::PredictorFactory& predictor_factory,
                       std::uint64_t seed, const std::vector<std::size_t>& thread_counts) {
  ScalingRun out;
  for (std::size_t threads : thread_counts) {
    sim::FleetConfig cfg = base;
    cfg.threads = threads;
    out.runs.push_back(timed_run(cfg, predictor_factory, seed));
    out.checksums_match =
        out.checksums_match && out.runs.back().checksum == out.serial().checksum;
  }
  return out;
}

ScalingRun run_scaling(const char* title, const sim::FleetConfig& base,
                       const sim::FleetRunner::PredictorFactory& predictor_factory,
                       std::uint64_t seed, const std::vector<std::size_t>& thread_counts) {
  bench::print_header(title);
  std::printf("%-10s %-12s %-14s %-12s %-10s\n", "threads", "wall (s)", "sessions/s",
              "speedup", "checksum");
  const ScalingRun out = run_threads(base, predictor_factory, seed, thread_counts);
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    const TimedRun& run = out.runs[i];
    std::printf("%-10zu %-12.3f %-14.0f %-12.2f 0x%08x\n", thread_counts[i], run.wall,
                run.rate, out.serial().rate > 0.0 ? run.rate / out.serial().rate : 0.0,
                run.checksum);
  }
  std::printf("merged metrics bitwise identical across thread counts: %s\n",
              out.checksums_match ? "yes" : "NO — DETERMINISM BUG");
  return out;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Serial sessions/s of two gated arms: the median of `reps` runs each,
/// interleaved A, B, A, B, ... so host noise hits both arms alike. Clears
/// `checksums_match` if any repetition disagrees with `checksum`.
std::pair<double, double> interleaved_serial_rates(
    const sim::FleetConfig& a, const sim::FleetConfig& b,
    const sim::FleetRunner::PredictorFactory& predictor_factory, std::uint64_t seed,
    std::size_t reps, std::uint32_t checksum, bool& checksums_match) {
  std::vector<double> rates_a, rates_b;
  for (std::size_t r = 0; r < reps; ++r) {
    for (const sim::FleetConfig* cfg : {&a, &b}) {
      sim::FleetConfig serial = *cfg;
      serial.threads = 1;
      const TimedRun run = timed_run(serial, predictor_factory, seed);
      (cfg == &a ? rates_a : rates_b).push_back(run.rate);
      checksums_match = checksums_match && run.checksum == checksum;
    }
  }
  return {median(rates_a), median(rates_b)};
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t batch = 16;
  std::size_t users_per_shard = 0;  // 0 = per-section defaults
  const char* json_path = nullptr;
  std::string metrics_path;
  std::string trace_path;
  std::string timeline_path;
  std::vector<std::string> slo_specs;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      batch = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--users-per-shard") == 0 && i + 1 < argc) {
      users_per_shard = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--timeline-out") == 0 && i + 1 < argc) {
      timeline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--slo") == 0 && i + 1 < argc) {
      slo_specs.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--batch N] [--users-per-shard N] "
                   "[--json PATH] [--metrics-json PATH] [--trace-out PATH] "
                   "[--timeline-out PATH] [--slo SPEC] [--smoke]\n",
                   argv[0]);
      return 2;
    }
  }
  std::vector<obs::SloRule> slo_rules;
  if (!bench::parse_slo_flags(slo_specs, slo_rules)) return 2;
  const bench::ObsScope obs(metrics_path, trace_path, timeline_path, std::move(slo_rules));
  const std::vector<std::size_t> thread_counts =
      smoke ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4, 8};

  sim::FleetConfig raw;
  raw.users = smoke ? 64 : 256;
  raw.days = 2;
  raw.sessions_per_user_day = 12;
  raw.users_per_shard = 8;
  raw.enable_lingxi = false;
  raw.drift_user_tolerance = true;
  raw.session_jitter_sigma = 0.3;
  raw.network.median_bandwidth = 2500.0;
  raw.network.sigma = 0.6;
  raw.video.mean_duration = 40.0;
  std::printf("raw fleet: %zu users x %zu days x %zu sessions\n", raw.users, raw.days,
              raw.sessions_per_user_day);
  run_scaling("Fleet scaling: raw session simulation", raw, nullptr, 7, thread_counts);

  std::printf("\ntraining shared exit-rate predictor for the LingXi fleet...\n");
  const auto predictor = bench::train_predictor(91, smoke ? 0.1 : 0.25);
  const auto predictor_factory = [&] { return predictor.make(); };

  sim::FleetConfig treated;
  treated.users = smoke ? 16 : 64;
  treated.days = 2;
  treated.sessions_per_user_day = 8;
  // Sections 2-3 measure per-optimization batching: one user per shard, so
  // each flush holds one wave of one user's rollouts. The cross-user
  // comparison section below pools users per shard.
  treated.users_per_shard = 1;
  treated.enable_lingxi = true;
  treated.drift_user_tolerance = true;
  treated.network.median_bandwidth = 1500.0;
  treated.network.sigma = 0.5;
  treated.network.relative_sd = 0.35;
  treated.lingxi.space.optimize_stall = false;
  treated.lingxi.space.optimize_switch = false;
  treated.lingxi.space.optimize_beta = true;
  treated.lingxi.obo_rounds = 4;
  treated.lingxi.monte_carlo.samples = 16;
  std::printf("lingxi fleet: %zu users x %zu days x %zu sessions, %zu MC samples\n",
              treated.users, treated.days, treated.sessions_per_user_day,
              treated.lingxi.monte_carlo.samples);

  treated.lingxi.monte_carlo.batch_size = 1;
  const ScalingRun scalar =
      run_scaling("Fleet scaling: LingXi fleet, width-1 waves (batch 1)", treated,
                  predictor_factory, 11, thread_counts);

  sim::FleetConfig batched_cfg = treated;
  batched_cfg.lingxi.monte_carlo.batch_size = batch;
  char title[96];
  std::snprintf(title, sizeof(title),
                "Fleet scaling: LingXi fleet, batched inference (batch %zu)", batch);
  const ScalingRun batched =
      run_scaling(title, batched_cfg, predictor_factory, 11, thread_counts);

  bench::print_header("Batch N vs batch 1 (same seed, same checksum contract)");
  std::printf("%-10s %-16s %-16s %-10s\n", "threads", "scalar sess/s", "batched sess/s",
              "speedup");
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    const double scalar_rate = scalar.runs[i].rate;
    const double batched_rate = batched.runs[i].rate;
    std::printf("%-10zu %-16.0f %-16.0f %-10.2f\n", thread_counts[i], scalar_rate,
                batched_rate, scalar_rate > 0.0 ? batched_rate / scalar_rate : 0.0);
  }
  bool parity = scalar.serial().checksum == batched.serial().checksum;
  std::printf("scalar checksum 0x%08x, batched checksum 0x%08x: %s\n",
              scalar.serial().checksum, batched.serial().checksum,
              parity ? "bitwise identical" : "MISMATCH — PARITY BUG");

  // Cross-user wave scheduler vs per-optimization batching, at realistic
  // occupancy: many users per shard, all mid-optimization work pooled.
  sim::FleetConfig cohort = batched_cfg;
  cohort.users = smoke ? 24 : 512;
  cohort.users_per_shard = users_per_shard != 0 ? users_per_shard : (smoke ? 3 : 64);
  sim::FleetConfig per_opt_cfg = cohort;
  per_opt_cfg.users_per_shard = 1;
  std::printf(
      "\ncross-user fleet: %zu users x %zu days x %zu sessions, shard %zu, batch %zu, "
      "dense isa %s\n",
      cohort.users, cohort.days, cohort.sessions_per_user_day, cohort.users_per_shard,
      batch, nn::dense_isa_name(nn::dense_isa()));

  const ScalingRun per_opt = run_threads(per_opt_cfg, predictor_factory, 11, thread_counts);
  const ScalingRun cross = run_threads(cohort, predictor_factory, 11, thread_counts);

  bench::print_header("Cross-user waves vs per-optimization batching");
  std::printf("%-18s %-8s %-14s %-14s %-16s %-10s\n", "arm", "shard", "sess/s (1t)",
              "sess/s (max t)", "mean batch/flush", "checksum");
  const sim::FleetRunStats& per_opt_stats = per_opt.serial().stats;
  const sim::FleetRunStats& cross_stats = cross.serial().stats;
  std::printf("%-18s %-8zu %-14.0f %-14.0f %-16.1f 0x%08x\n", "per-optimization",
              per_opt_cfg.users_per_shard, per_opt.serial().rate, per_opt.runs.back().rate,
              per_opt_stats.mean_flush_occupancy(), per_opt.serial().checksum);
  std::printf("%-18s %-8zu %-14.0f %-14.0f %-16.1f 0x%08x\n", "cross-user waves",
              cohort.users_per_shard, cross.serial().rate, cross.runs.back().rate,
              cross_stats.mean_flush_occupancy(), cross.serial().checksum);
  std::printf("max flush %llu vs %llu queries\n",
              static_cast<unsigned long long>(cross_stats.pool_max_flush),
              static_cast<unsigned long long>(per_opt_stats.pool_max_flush));
  bool shard_parity = per_opt.serial().checksum == cross.serial().checksum &&
                      per_opt.checksums_match && cross.checksums_match;

  // Gated serial rates: single runs above, or under --smoke the medians of
  // interleaved repetitions (same checksum contract).
  const std::size_t reps = smoke ? 3 : 1;
  double scalar_rate = scalar.serial().rate;
  double batched_rate = batched.serial().rate;
  double per_opt_rate = per_opt.serial().rate;
  double cross_rate = cross.serial().rate;
  if (reps > 1) {
    std::tie(scalar_rate, batched_rate) =
        interleaved_serial_rates(treated, batched_cfg, predictor_factory, 11, reps,
                                 scalar.serial().checksum, parity);
    std::tie(per_opt_rate, cross_rate) =
        interleaved_serial_rates(per_opt_cfg, cohort, predictor_factory, 11, reps,
                                 cross.serial().checksum, shard_parity);
    std::printf("gated serial rates (median of %zu interleaved runs): scalar %.0f, "
                "batched %.0f, per-optimization %.0f, cross-user %.0f sess/s\n",
                reps, scalar_rate, batched_rate, per_opt_rate, cross_rate);
  }
  const double cohort_speedup = per_opt_rate > 0.0 ? cross_rate / per_opt_rate : 0.0;
  std::printf("batched/scalar (1 thread): %.2fx; cross-user speedup (1 thread): %.2fx\n",
              scalar_rate > 0.0 ? batched_rate / scalar_rate : 0.0, cohort_speedup);
  std::printf("scalar/batched checksums: %s; shard-size checksums: %s\n",
              parity ? "bitwise identical" : "MISMATCH — PARITY BUG",
              shard_parity ? "bitwise identical" : "MISMATCH — PARITY BUG");

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 2;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"smoke\": %s,\n"
                 "  \"batch\": %zu,\n"
                 "  \"serial_repetitions\": %zu,\n"
                 "  \"dense_isa\": \"%s\",\n"
                 "  \"scalar_sessions_per_sec\": %.1f,\n"
                 "  \"batched_sessions_per_sec\": %.1f,\n"
                 "  \"cross_user\": {\n"
                 "    \"users\": %zu,\n"
                 "    \"users_per_shard\": %zu,\n"
                 "    \"per_opt_sessions_per_sec\": %.1f,\n"
                 "    \"cross_user_sessions_per_sec\": %.1f,\n"
                 "    \"speedup\": %.3f,\n"
                 "    \"per_opt_mean_flush_occupancy\": %.2f,\n"
                 "    \"cross_user_mean_flush_occupancy\": %.2f,\n"
                 "    \"checksum\": \"0x%08x\",\n"
                 "    \"checksums_match\": %s\n"
                 "  },\n"
                 "  \"all_checksums_match\": %s\n"
                 "}\n",
                 smoke ? "true" : "false", batch, reps, nn::dense_isa_name(nn::dense_isa()),
                 scalar_rate, batched_rate, cohort.users, cohort.users_per_shard,
                 per_opt_rate, cross_rate, cohort_speedup,
                 per_opt_stats.mean_flush_occupancy(), cross_stats.mean_flush_occupancy(),
                 cross.serial().checksum, shard_parity ? "true" : "false",
                 scalar.checksums_match && batched.checksums_match && parity && shard_parity
                     ? "true"
                     : "false");
    std::fclose(f);
    std::printf("json summary written to %s\n", json_path);
  }

  if (!obs.write()) return 2;

  if (!scalar.checksums_match || !batched.checksums_match || !parity || !shard_parity) {
    return 1;
  }
  if (!obs.slo_ok()) return 3;
  return 0;
}
