// LingXi benchmark program.
//
//   lingxi_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR
//
// Untraced runs (--trace 0) time set-up kSetupRepeats times, then run whole
// units of the workload for S seconds and report the end-to-end metrics as
// medians over units. Traced runs (--trace 1) alternate untraced and traced
// units for S seconds: the untraced ones are the parity reference and the
// baseline of the tracing overhead, the traced ones feed the per-layer
// metrics. The last stdout line is the JSON result; every line before it is
// a comment. The span log of a traced run goes to DIR.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "nn/dense.h"
#include "obs/sampler.h"
#include "predictor/engagement_state.h"
#include "workloads.h"

using namespace lingxi;
using namespace lingxi::perfbench;

namespace {

constexpr int kSetupRepeats = 5;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (run.py checks that they agree).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"sessions_per_s", "sessions/s"},
    {"sessions_per_cpu_s", "sessions/CPU-s"},
    {"peak_rss_mb", "MiB"},
    {"exit_rate", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.run_s", "s"},
    {"sim.worker_util", "ratio"},
    {"sim.session_run_us", "us"},
    {"sim.stall_per_10k", "s/10k-s"},
    {"sim.session.step_us.sum", "us"},
    {"sim.session.step_us.count", "count"},
    {"sim.session.step_us.p50", "us"},
    {"sim.session.step_us.p99", "us"},
    {"sim.wave.flush_us.sum", "us"},
    {"sim.wave.flush_us.count", "count"},
    {"sim.wave.flush_us.p50", "us"},
    {"sim.wave.flush_us.p99", "us"},
    {"sim.wave.fits_us.sum", "us"},
    {"sim.wave.fits_us.count", "count"},
    {"sim.wave.fits_us.p50", "us"},
    {"sim.wave.fits_us.p99", "us"},
    {"abr.select_calls", "count"},
    {"abr.clones", "count"},
    {"abr.select_ns", "ns"},
    {"core.optimize_ms", "ms"},
    {"core.optimize_ms.p95", "ms"},
    {"core.optimize_samples", "count"},
    {"core.ingest_us", "us"},
    {"core.triggers", "count"},
    {"core.optimizations", "count"},
    {"core.pruned_preplay", "count"},
    {"core.mc_evaluations", "count"},
    {"core.mc_rollouts_pruned", "count"},
    {"core.rollout_prune_ratio", "ratio"},
    {"predictor.pool.flushes", "count"},
    {"predictor.pool.queries", "count"},
    {"predictor.rows_per_flush", "rows"},
    {"predictor.rows_per_net_batch", "rows"},
    {"predictor.max_flush", "rows"},
    {"predictor.factory_calls", "count"},
    {"predictor.pool.flush_us.sum", "us"},
    {"predictor.pool.flush_us.count", "count"},
    {"predictor.pool.flush_us.p50", "us"},
    {"predictor.pool.flush_us.p99", "us"},
    {"nn.predict_us_per_row", "us"},
    {"nn.predict_batch_1row_us", "us"},
    {"nn.predict_batch_us_per_row", "us"},
    {"nn.batch_rows", "rows"},
    {"bayesopt.obo.acquisition_us.sum", "us"},
    {"bayesopt.obo.acquisition_us.count", "count"},
    {"bayesopt.obo.acquisition_us.p50", "us"},
    {"bayesopt.obo.acquisition_us.p99", "us"},
    {"bayesopt.gp.refit_us.sum", "us"},
    {"bayesopt.gp.refit_us.count", "count"},
    {"bayesopt.gp.refit_us.p50", "us"},
    {"bayesopt.gp.refit_us.p99", "us"},
    {"telemetry.record_session_us", "us"},
    {"telemetry.finish_s", "s"},
    {"telemetry.archive_write_s", "s"},
    {"telemetry.replay_s", "s"},
    {"telemetry.archive.shard_write_us.sum", "us"},
    {"telemetry.archive.shard_write_us.count", "count"},
    {"telemetry.archive.shard_write_us.p50", "us"},
    {"telemetry.archive.shard_write_us.p99", "us"},
    {"telemetry.archive_bytes_per_session", "B"},
    {"analytics.did_s", "s"},
    {"unattributed_share", "ratio"},
    {"trace.untraced_sessions_per_s", "sessions/s"},
    {"trace.traced_sessions_per_s", "sessions/s"},
    {"trace.overhead_share", "ratio"},
    {"trace.spans", "count"},
};

/// Batch width for the nn timings when the run measured no pooled batches
/// (the controller has no pool): lowbw_fleet's typical rows per net batch.
constexpr std::size_t kDefaultBatchRows = 16;
/// Seed stream of the nn timings' random feature rows.
constexpr std::uint64_t kNnFeatureStream = 5;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: lingxi_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n",
               msg);
  std::exit(2);
}

RunOptions parse_args(int argc, char** argv) {
  RunOptions o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage("missing value");
    const std::string flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(o.seconds > 0.0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) usage("bad --trace");
      o.trace = value[0] == '1';
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) usage("missing or bad --seed");
  if (o.work_dir.empty()) usage("missing --work-dir");
  return o;
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Times direct calls on a private copy of the trained net: the scalar
/// training forward (the controller's 1-row path) and predict_batch at 1 row
/// and at `batch_rows` rows.
void nn_metrics(const predictor::HybridExitPredictor& trained, std::size_t batch_rows,
                std::uint64_t seed, MetricValues& out) {
  predictor::HybridExitPredictor copy = trained.with_private_net();
  predictor::StallExitNet& net = copy.net();
  constexpr std::size_t kCols = predictor::kChannels * predictor::kHistoryLen;
  Rng rng(seed);
  std::vector<double> features(batch_rows * kCols);
  for (double& f : features) f = rng.uniform();
  const nn::Tensor row({predictor::kChannels, predictor::kHistoryLen},
                       std::vector<double>(features.begin(), features.begin() + kCols));
  std::vector<double> probs(batch_rows);
  predictor::StallExitNet::BatchWorkspace ws;
  double sink = 0.0;
  // Median over repetitions of `calls` back-to-back calls, in us per row.
  const auto time_per_row = [&](std::size_t rows, std::size_t calls, auto&& call) {
    Samples reps;
    for (int r = 0; r < 7; ++r) {
      const std::uint64_t start = wall_ns();
      for (std::size_t c = 0; c < calls; ++c) call();
      reps.add(static_cast<double>(wall_ns() - start) * 1e-3 /
               static_cast<double>(calls * rows));
    }
    return reps.median();
  };
  out["nn.predict_us_per_row"] = time_per_row(1, 64, [&] { sink += net.predict(row); });
  out["nn.predict_batch_1row_us"] = time_per_row(1, 64, [&] {
    net.predict_batch(nn::ConstBatchView(features.data(), 1, kCols), probs.data(), &ws);
    sink += probs[0];
  });
  out["nn.predict_batch_us_per_row"] =
      time_per_row(batch_rows, std::max<std::size_t>(4, 256 / batch_rows), [&] {
        net.predict_batch(nn::ConstBatchView(features.data(), batch_rows, kCols),
                          probs.data(), &ws);
        sink += probs[0];
      });
  out["nn.batch_rows"] = static_cast<double>(batch_rows);
  if (!std::isfinite(sink)) std::fprintf(stderr, "perfbench: non-finite net output\n");
}

/// Sessions per second and per CPU-second over a run's units, as medians.
/// Units that time their items (the controller's users) are reduced per item
/// instead: each item's time is its median over the units, and the rate is
/// sessions over the sum of those medians. Host noise arrives in bursts of
/// up to about a second, so a burst that slows one pass of one item is
/// rejected, where a whole-unit figure would absorb it.
class Throughput {
 public:
  void add(const UnitResult& unit) {
    sessions_ = static_cast<double>(unit.sessions);
    rate_.add(sessions_ / unit.wall_s);
    cpu_rate_.add(sessions_ / unit.cpu_s);
    if (!unit.item_wall_s.empty()) {
      item_wall_.push_back(unit.item_wall_s);
      item_cpu_.push_back(unit.item_cpu_s);
    }
  }
  double per_s() const {
    return item_wall_.empty() ? rate_.median() : sessions_ / robust_total(item_wall_);
  }
  double per_cpu_s() const {
    return item_cpu_.empty() ? cpu_rate_.median() : sessions_ / robust_total(item_cpu_);
  }
  void print_units() const {
    std::printf("# sessions/s by unit:");
    for (const double r : rate_.values()) std::printf(" %.1f", r);
    std::printf("\n# sessions/CPU-s by unit:");
    for (const double r : cpu_rate_.values()) std::printf(" %.1f", r);
    std::printf("\n");
  }

 private:
  static double robust_total(const std::vector<std::vector<double>>& units) {
    double total = 0.0;
    for (std::size_t i = 0; i < units.front().size(); ++i) {
      Samples item;
      for (const auto& unit : units) item.add(unit[i]);
      total += item.median();
    }
    return total;
  }

  double sessions_ = 0.0;
  Samples rate_;
  Samples cpu_rate_;
  std::vector<std::vector<double>> item_wall_;
  std::vector<std::vector<double>> item_cpu_;
};

std::string provenance_json(const RunOptions& o, std::size_t workers, std::size_t nproc) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.3f, \"trace\": %d, "
                "\"workers\": %zu, \"nproc\": %zu, \"build_type\": \"%s\", "
                "\"dense_isa\": \"%s\"}",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
                o.trace ? 1 : 0, workers, nproc, LINGXI_PERFBENCH_BUILD_TYPE,
                nn::dense_isa_name(nn::dense_isa()));
  return buf;
}

/// Prints the result line. A metric the workload does not produce (a stage it
/// never runs) prints as 0; every produced value is checked to be finite.
void print_result(Checks& checks, const MetricValues& values, const MetricDef* defs,
                  std::size_t count) {
  std::vector<double> printed(count, 0.0);
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = values.find(defs[i].name);
    const bool ok = it == values.end() || std::isfinite(it->second);
    checks.expect(ok, std::string(defs[i].name) + " is finite");
    if (ok && it != values.end()) printed[i] = it->second;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              checks.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted()),
              static_cast<unsigned long long>(checks.failed()));
  for (std::size_t i = 0; i < count; ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                defs[i].name, printed[i], defs[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options = parse_args(argc, argv);
  const std::size_t nproc = online_cpus();
  options.workers = std::min<std::size_t>(4, nproc);
  Checks checks;
  std::unique_ptr<Workload> workload = make_workload(options, checks);
  if (workload == nullptr) usage(("unknown workload " + options.workload).c_str());
  const std::string provenance = provenance_json(options, workload->workers(), nproc);
  std::printf("# provenance %s\n", provenance.c_str());
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to time a build with assertions on\n");
  return 2;
#endif
  if (std::strcmp(LINGXI_PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to time a %s build; build Release\n",
                 LINGXI_PERFBENCH_BUILD_TYPE);
    return 2;
  }

  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) usage(("cannot create work dir " + options.work_dir).c_str());

  MetricValues values;
  Samples setup;
  for (int i = 0; i < (options.trace ? 1 : kSetupRepeats); ++i) {
    const std::uint64_t start = wall_ns();
    workload->setup();
    setup.add(static_cast<double>(wall_ns() - start) * 1e-9);
  }

  std::uint32_t reference = 0;
  std::size_t units = 0;
  UnitResult first;
  const auto record = [&](const UnitResult& unit, bool traced) {
    if (units == 0 && !traced) {
      first = unit;
      reference = unit.fingerprint;
      values["exit_rate"] = unit.exit_rate;
      values["sim.stall_per_10k"] = unit.stall_per_10k;
    } else {
      checks.expect(unit.fingerprint == reference,
                    options.workload + (traced ? ": traced unit reproduces the untraced outputs"
                                               : ": unit reproduces the first unit's outputs"));
    }
    ++units;
  };
  for (std::size_t i = 0; i < workload->warmup_units(); ++i) {
    record(workload->run_unit(nullptr), false);
  }
  const std::uint64_t phase_start = wall_ns();
  const auto elapsed_s = [&] { return static_cast<double>(wall_ns() - phase_start) * 1e-9; };

  Throughput plain;
  if (!options.trace) {
    std::size_t timed = 0;
    do {
      const UnitResult unit = workload->run_unit(nullptr);
      record(unit, false);
      plain.add(unit);
      ++timed;
    } while (elapsed_s() < options.seconds || timed < workload->min_units());
    values["setup_s"] = setup.median();
    values["sessions_per_s"] = plain.per_s();
    values["sessions_per_cpu_s"] = plain.per_cpu_s();
    values["peak_rss_mb"] =
        static_cast<double>(obs::process_peak_rss_bytes()) / (1024.0 * 1024.0);
    std::printf("# %zu timed units after %zu warm-up, per unit: %llu sessions, %.1f media s "
                "watched\n",
                timed, units - timed,
                static_cast<unsigned long long>(first.sessions), first.watch_s);
    plain.print_units();
    print_result(checks, values, kEndToEnd, std::size(kEndToEnd));
    return 0;
  }

  TraceContext trace;
  Throughput traced_throughput;
  std::size_t traced_units = 0;
  do {
    const UnitResult untraced = workload->run_unit(nullptr);
    record(untraced, false);
    plain.add(untraced);
    obs::Registry::install(&trace.registry);
    const UnitResult traced = workload->run_unit(&trace);
    obs::Registry::install(nullptr);
    record(traced, true);
    traced_throughput.add(traced);
    trace.traced_cpu_s += traced.cpu_s;
    ++traced_units;
  } while (elapsed_s() < options.seconds);

  workload->layer_metrics(trace, traced_units, values);
  const double rows = values["predictor.rows_per_net_batch"];
  nn_metrics(workload->predictor(),
             rows >= 2.0 ? static_cast<std::size_t>(std::lround(rows)) : kDefaultBatchRows,
             mix_seed(options.seed, kNnFeatureStream, 0), values);
  values["unattributed_share"] = 1.0 - trace.attributed_cpu_s / trace.traced_cpu_s;
  values["trace.untraced_sessions_per_s"] = plain.per_s();
  values["trace.traced_sessions_per_s"] = traced_throughput.per_s();
  values["trace.overhead_share"] = 1.0 - traced_throughput.per_s() / plain.per_s();
  values["trace.spans"] = static_cast<double>(trace.spans.size());

  const std::string span_path = options.work_dir + "/spans-" + options.workload + "-" +
                                std::to_string(options.seed) + ".json";
  checks.expect(trace.spans.write_chrome_json(span_path, provenance),
                "span log written to " + span_path);
  std::printf("# traced units %zu, spans %s\n", traced_units, span_path.c_str());
  print_result(checks, values, kPerLayer, std::size(kPerLayer));
  return 0;
}
