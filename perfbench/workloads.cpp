#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "abr/hyb.h"
#include "analytics/experiment.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "core/lingxi.h"
#include "predictor/dataset.h"
#include "sim/fleet_runner.h"
#include "stats/did.h"
#include "telemetry/capture.h"
#include "telemetry/replay.h"
#include "trace/population.h"
#include "trace/video.h"
#include "user/data_driven.h"
#include "user/user_population.h"

namespace lingxi::perfbench {

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

namespace {

// Stream ids under the run seed: users, networks and videos derive from
// --seed alone.
enum Stream : std::uint64_t {
  kFleetStream = 2,
  kUserStream = 3,
  kSessionStream = 4,
};

// The exit predictor stands for the deployed model: it is trained from a
// fixed synthetic log (the seeds the figure benches use), not from --seed,
// so that the seed-to-seed spread of a workload reflects its users rather
// than a differently trained net.
constexpr std::uint64_t kMixedPredictorSeed = 808;
constexpr std::uint64_t kLowBwPredictorSeed = 91;

/// Exit predictor trained on a synthetic production log (OS model on all
/// segments, stall net on the balanced stall subset); `scale` sizes the log.
struct TrainedPredictor {
  std::shared_ptr<predictor::StallExitNet> net;
  std::shared_ptr<predictor::OverallStatsModel> os_model;
};

TrainedPredictor train_predictor(std::uint64_t seed, double scale) {
  Rng rng(seed);
  TrainedPredictor out;
  out.os_model = std::make_shared<predictor::OverallStatsModel>();
  out.net = std::make_shared<predictor::StallExitNet>(rng);
  predictor::DatasetGenConfig gen;
  gen.users = static_cast<std::size_t>(std::max(4.0, 30.0 * scale));
  gen.sessions_per_user = static_cast<std::size_t>(std::max(4.0, 15.0 * scale));
  gen.filter = predictor::DatasetFilter::kAll;
  for (const auto& s : predictor::generate_dataset(gen, rng).samples) {
    out.os_model->observe(1, predictor::SwitchType::kNone, s.exited);
  }
  gen.filter = predictor::DatasetFilter::kStall;
  const auto balanced = predictor::balance(predictor::generate_dataset(gen, rng), rng);
  predictor::TrainConfig train;
  train.epochs = 6;
  if (!balanced.samples.empty()) predictor::train_exit_net(*out.net, balanced, train, rng);
  return out;
}

double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

std::uint32_t crc_add(std::uint32_t crc, std::uint64_t v) {
  return crc32_update(crc, &v, sizeof v);
}

std::uint32_t crc_add(std::uint32_t crc, double v) { return crc32_update(crc, &v, sizeof v); }

/// Standard normal quantile, by bisection on the CDF (set-up only).
double normal_quantile(double q) {
  double lo = -10.0;
  double hi = 10.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    (0.5 * std::erfc(-mid / std::sqrt(2.0)) < q ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

/// Network profile of user `u` of `n`, drawn from stratum u of the
/// population's lognormal bandwidth distribution (Latin hypercube sampling):
/// every seed gets the same spread of bandwidths, jittered within each
/// stratum. Per-user cost is heavy-tailed in bandwidth, so i.i.d. draws
/// would make the workload's cost, not just its timing, vary from seed to
/// seed.
trace::NetworkProfile stratified_profile(const trace::PopulationModel::Config& c,
                                         std::size_t u, std::size_t n, Rng& rng) {
  const double q = (static_cast<double>(u) + rng.uniform()) / static_cast<double>(n);
  trace::NetworkProfile p;
  p.mean_bandwidth =
      std::clamp(std::exp(std::log(c.median_bandwidth) + c.sigma * normal_quantile(q)),
                 c.min_bandwidth, c.max_bandwidth);
  p.relative_sd = c.relative_sd;
  p.rho = c.rho;
  return p;
}

/// One FleetRunner::run inside a `sim.run` span, with worker utilization.
sim::FleetAccumulator run_fleet(const sim::FleetRunner& runner, std::uint64_t seed,
                                sim::FleetRunStats* stats, TraceContext* trace,
                                std::uint64_t parent, const std::string& subject) {
  const double cpu0 = process_cpu_s();
  ScopedSpan span(trace != nullptr ? &trace->spans : nullptr, "sim.run", parent, subject);
  sim::FleetAccumulator acc = runner.run(seed, stats);
  const double wall = span.stop();
  if (trace != nullptr) {
    const auto workers = static_cast<double>(runner.config().threads);
    trace->samples["sim.run_s"].add(wall);
    trace->samples["sim.worker_util"].add((process_cpu_s() - cpu0) / (wall * workers));
  }
  return acc;
}

/// FleetRunner ABR factory: plain HYB, or HYB behind the probe when traced.
sim::FleetRunner::AbrFactory hyb_factory(AbrProbe* probe) {
  if (probe == nullptr) return [] { return std::make_unique<abr::Hyb>(); };
  return [probe] {
    return std::make_unique<ProbedAbr>(std::make_unique<abr::Hyb>(), *probe);
  };
}

sim::FleetRunner::PredictorFactory predictor_factory(const TrainedPredictor& trained,
                                                     TraceContext* trace) {
  return [&trained, trace] {
    if (trace != nullptr) {
      trace->predictor_factory_calls.fetch_add(1, std::memory_order_relaxed);
    }
    return predictor::HybridExitPredictor(trained.net, trained.os_model);
  };
}

void set_lingxi_counters(const core::LingXiStats& s, std::uint64_t abr_clones,
                         std::size_t mc_samples, MetricValues& out) {
  out["core.triggers"] = static_cast<double>(s.triggers);
  out["core.optimizations"] = static_cast<double>(s.optimizations_run);
  out["core.pruned_preplay"] = static_cast<double>(s.pruned_preplay);
  out["core.mc_evaluations"] = static_cast<double>(s.mc_evaluations);
  out["core.mc_rollouts_pruned"] = static_cast<double>(s.mc_rollouts_pruned);
  // With Monte Carlo batch 1 every started rollout clones the candidate's
  // prototype ABR once, and every candidate round clones the live ABR once
  // for that prototype, so rollouts started = clones - evaluations.
  const double budgeted = static_cast<double>(s.mc_evaluations * mc_samples);
  const double started = static_cast<double>(abr_clones) - static_cast<double>(s.mc_evaluations);
  out["core.rollout_prune_ratio"] = budgeted > 0.0 ? 1.0 - started / budgeted : 0.0;
}

void abr_metrics(const TraceContext& trace, std::size_t units, MetricValues& out) {
  const CallTally::Totals select = trace.abr.select.totals();
  out["abr.select_calls"] = static_cast<double>(select.calls) / static_cast<double>(units);
  out["abr.clones"] = static_cast<double>(trace.abr.clones.load()) / static_cast<double>(units);
  out["abr.select_ns"] =
      select.calls > 0 ? static_cast<double>(select.ns) / static_cast<double>(select.calls) : 0.0;
}

/// Reads the program's stage histograms into `out`: sum and count per unit,
/// p50 and p99 per observation.
void histogram_metrics(const obs::RegistrySnapshot& snapshot, std::size_t units,
                       MetricValues& out) {
  static const char* const kStages[] = {
      "sim.session.step_us",     "sim.wave.flush_us",           "sim.wave.fits_us",
      "predictor.pool.flush_us", "bayesopt.obo.acquisition_us", "bayesopt.gp.refit_us",
      "telemetry.archive.shard_write_us"};
  for (const char* stage : kStages) {
    const obs::MetricSnapshot* m = snapshot.find(stage);
    if (m == nullptr) continue;
    const std::string name = stage;
    out[name + ".sum"] = m->value / static_cast<double>(units);
    out[name + ".count"] = static_cast<double>(m->count) / static_cast<double>(units);
    out[name + ".p50"] = m->quantile(0.5);
    out[name + ".p99"] = m->quantile(0.99);
  }
}

double hist_sum_s(const obs::RegistrySnapshot& snap, const char* name) {
  const obs::MetricSnapshot* m = snap.find(name);
  return m != nullptr ? m->value * 1e-6 : 0.0;
}

/// Fleet-level traced metrics shared by ab_mixed and lowbw_fleet.
/// `lingxi_acc` / `lingxi_stats` come from the LingXi-enabled fleet of one
/// traced unit (counts are per unit: every unit repeats the same inputs).
void fleet_layer_metrics(TraceContext& trace, std::size_t units,
                         const sim::FleetAccumulator& lingxi_acc,
                         const sim::FleetRunStats& lingxi_stats, std::size_t mc_samples,
                         MetricValues& out) {
  const obs::RegistrySnapshot snap = trace.registry.snapshot();
  histogram_metrics(snap, units, out);
  out["sim.run_s"] = trace.samples["sim.run_s"].median();
  out["sim.worker_util"] = trace.samples["sim.worker_util"].median();
  if (const obs::MetricSnapshot* step = snap.find("sim.session.step_us");
      step != nullptr && step->count > 0) {
    out["sim.session_run_us"] = step->value / static_cast<double>(step->count);
  }
  abr_metrics(trace, units, out);
  core::LingXiStats s;
  s.triggers = lingxi_acc.lingxi_triggers;
  s.optimizations_run = lingxi_acc.lingxi_optimizations;
  s.pruned_preplay = lingxi_acc.lingxi_pruned_preplay;
  s.mc_evaluations = lingxi_acc.lingxi_mc_evaluations;
  s.mc_rollouts_pruned = lingxi_acc.lingxi_mc_rollouts_pruned;
  set_lingxi_counters(s, trace.abr.clones.load() / units, mc_samples, out);
  out["predictor.pool.flushes"] = static_cast<double>(lingxi_stats.pool_flushes);
  out["predictor.pool.queries"] = static_cast<double>(lingxi_stats.pool_queries);
  out["predictor.rows_per_flush"] = lingxi_stats.mean_flush_occupancy();
  out["predictor.rows_per_net_batch"] = lingxi_stats.mean_net_batch();
  out["predictor.max_flush"] = static_cast<double>(lingxi_stats.pool_max_flush);
  out["predictor.factory_calls"] =
      static_cast<double>(trace.predictor_factory_calls.load()) / static_cast<double>(units);
  // Worker-thread stages the program times, disjoint from each other (wave
  // flushes contain the pool flushes and fits contain the optimizer calls,
  // so only the outer stages are summed).
  trace.attributed_cpu_s += hist_sum_s(snap, "sim.session.step_us") +
                            hist_sum_s(snap, "sim.wave.flush_us") +
                            hist_sum_s(snap, "sim.wave.fits_us") +
                            static_cast<double>(trace.record_session.totals().ns) * 1e-9;
}

// ---------------------------------------------------------------------------
// ab_mixed: the §5.3 A/B pipeline (bench_fig12_ab_test shape).

class AbMixed final : public Workload {
 public:
  AbMixed(const RunOptions& options, Checks& checks) : options_(options), checks_(checks) {
    cfg_.users = 6400;
    cfg_.days = 4;
    cfg_.sessions_per_user_day = 2;
    cfg_.intervention_day = cfg_.days / 2;
    cfg_.threads = options.workers;
    cfg_.drift_user_tolerance = true;
    cfg_.network.median_bandwidth = 4000.0;
    cfg_.network.sigma = 0.8;
    cfg_.lingxi.obo_rounds = 5;
    cfg_.lingxi.monte_carlo.samples = 8;
    cfg_.lingxi.monte_carlo.sample_duration = 30.0;
    cfg_.lingxi.space.optimize_stall = false;
    cfg_.lingxi.space.optimize_switch = false;
    cfg_.lingxi.space.optimize_beta = true;
    cfg_.fixed_params = cfg_.lingxi.default_params;
    archive_root_ = options.work_dir + "/ab_mixed-archives";
  }
  ~AbMixed() override {
    std::error_code ec;
    std::filesystem::remove_all(archive_root_, ec);
  }

  void setup() override {
    trained_ = train_predictor(kMixedPredictorSeed, 0.7);
    predictor_.emplace(trained_.net, trained_.os_model);
  }

  UnitResult run_unit(TraceContext* trace) override {
    UnitResult unit;
    const double cpu0 = process_cpu_s();
    const std::uint64_t t0 = wall_ns();
    ScopedSpan pass(trace != nullptr ? &trace->spans : nullptr, "ab_mixed.unit", 0, "ab");
    Arm control = run_arm(false, trace, pass.id());
    Arm treatment = run_arm(true, trace, pass.id());

    ScopedSpan did_span(trace != nullptr ? &trace->spans : nullptr, "analytics.did",
                        pass.id(), "ab");
    double did_sum = 0.0;
    if (control.replay && treatment.replay) {
      for (const auto metric : {&analytics::MetricAccumulator::total_watch_time,
                                &analytics::MetricAccumulator::mean_bitrate,
                                &analytics::MetricAccumulator::total_stall_time}) {
        const auto gaps =
            analytics::relative_daily_gap(treatment.replay->daily, control.replay->daily, metric);
        const auto split = gaps.begin() + static_cast<long>(cfg_.intervention_day);
        const std::vector<double> pre(gaps.begin(), split);
        const std::vector<double> post(split, gaps.end());
        did_sum += stats::difference_in_differences(pre, post).effect;
      }
    }
    const double did_s = did_span.stop();
    checks_.expect(std::isfinite(did_sum), "ab_mixed: DiD effects are finite");
    pass.stop();

    unit.wall_s = seconds_between(t0, wall_ns());
    unit.cpu_s = process_cpu_s() - cpu0;
    unit.sessions = control.live.sessions + treatment.live.sessions;
    unit.watch_s = control.live.total_watch_time() + treatment.live.total_watch_time();
    unit.exit_rate = treatment.live.exit_rate();
    unit.stall_per_10k = treatment.live.stall_per_10k();
    std::uint32_t fp = crc_add(0, static_cast<std::uint64_t>(control.live.checksum()));
    fp = crc_add(fp, static_cast<std::uint64_t>(treatment.live.checksum()));
    fp = crc_add(fp, static_cast<std::uint64_t>(control.archive_checksum));
    unit.fingerprint = crc_add(fp, static_cast<std::uint64_t>(treatment.archive_checksum));

    if (trace != nullptr) {
      trace->samples["analytics.did_s"].add(did_s);
      trace->attributed_cpu_s += did_s;
      last_treatment_ = treatment.live;
      last_treatment_stats_ = treatment.stats;
      archive_bytes_per_session_ =
          static_cast<double>(control.archive_bytes + treatment.archive_bytes) /
          static_cast<double>(unit.sessions);
    }
    return unit;
  }

  void layer_metrics(TraceContext& trace, std::size_t units, MetricValues& out) override {
    fleet_layer_metrics(trace, units, last_treatment_, last_treatment_stats_,
                        cfg_.lingxi.monte_carlo.samples, out);
    const CallTally::Totals rec = trace.record_session.totals();
    out["telemetry.record_session_us"] =
        rec.calls > 0 ? static_cast<double>(rec.ns) * 1e-3 / static_cast<double>(rec.calls)
                      : 0.0;
    out["telemetry.finish_s"] = trace.samples["telemetry.finish_s"].median();
    out["telemetry.archive_write_s"] = trace.samples["telemetry.archive_write_s"].median();
    out["telemetry.replay_s"] = trace.samples["telemetry.replay_s"].median();
    out["telemetry.archive_bytes_per_session"] = archive_bytes_per_session_;
    out["analytics.did_s"] = trace.samples["analytics.did_s"].median();
  }

  const predictor::HybridExitPredictor& predictor() const override { return *predictor_; }
  std::size_t workers() const override { return cfg_.threads; }

 private:
  struct Arm {
    sim::FleetAccumulator live;
    sim::FleetRunStats stats;
    std::optional<telemetry::ReplayResult> replay;
    std::uint32_t archive_checksum = 0;
    std::uint64_t archive_bytes = 0;
  };

  /// One arm: live fleet with capture, archive to disk, replay.
  Arm run_arm(bool treatment, TraceContext* trace, std::uint64_t parent) {
    const std::string name = treatment ? "treatment" : "control";
    SpanLog* log = trace != nullptr ? &trace->spans : nullptr;
    ScopedSpan arm_span(log, "ab_mixed.arm", parent, name);
    sim::FleetConfig cfg = cfg_;
    cfg.enable_lingxi = treatment;
    sim::FleetRunner runner(cfg, hyb_factory(trace != nullptr ? &trace->abr : nullptr));
    if (treatment) runner.set_predictor_factory(predictor_factory(trained_, trace));
    telemetry::ShardedCapture capture;
    std::optional<ProbedSink> probed;
    if (trace != nullptr) probed.emplace(capture, trace->record_session);
    runner.set_telemetry_sink(probed ? static_cast<telemetry::TelemetrySink*>(&*probed)
                                     : &capture);

    Arm arm;
    const std::uint64_t seed = mix_seed(options_.seed, kFleetStream, 0);
    arm.live = run_fleet(runner, seed, &arm.stats, trace, arm_span.id(), name);
    checks_.expect(!arm.live.has_overflow(),
                   "ab_mixed " + name + ": accumulator overflow latch clear");

    ScopedSpan finish_span(log, "telemetry.finish", arm_span.id(), name);
    const telemetry::FleetArchive archive = capture.finish();
    const double finish_s = finish_span.stop();
    arm.archive_checksum = archive.checksum();
    arm.archive_bytes = archive.total_bytes();

    const std::string dir = archive_root_ + "/" + name;
    ScopedSpan write_span(log, "telemetry.archive_write", arm_span.id(), name);
    const Status written = archive.write(dir);
    const double write_s = write_span.stop();
    checks_.expect(static_cast<bool>(written), "ab_mixed " + name + ": archive write OK");

    ScopedSpan replay_span(log, "telemetry.replay", arm_span.id(), name);
    auto replayed = telemetry::Replay::run(dir);
    const double replay_s = replay_span.stop();
    checks_.expect(static_cast<bool>(replayed), "ab_mixed " + name + ": replay OK");
    if (replayed) {
      checks_.expect(replayed->fleet.checksum() == arm.live.checksum(),
                     "ab_mixed " + name + ": replay checksum equals live checksum");
      arm.replay.emplace(std::move(*replayed));
    }
    if (trace != nullptr) {
      trace->samples["telemetry.finish_s"].add(finish_s);
      trace->samples["telemetry.archive_write_s"].add(write_s);
      trace->samples["telemetry.replay_s"].add(replay_s);
      trace->attributed_cpu_s += finish_s + write_s + replay_s;
    }
    return arm;
  }

  RunOptions options_;
  Checks& checks_;
  sim::FleetConfig cfg_;
  std::string archive_root_;
  TrainedPredictor trained_;
  std::optional<predictor::HybridExitPredictor> predictor_;
  sim::FleetAccumulator last_treatment_;
  sim::FleetRunStats last_treatment_stats_;
  double archive_bytes_per_session_ = 0.0;
};

// ---------------------------------------------------------------------------
// lowbw_fleet: LingXi treatment fleet on the Fig. 13 low-bandwidth users.

class LowBwFleet final : public Workload {
 public:
  LowBwFleet(const RunOptions& options, Checks& checks) : options_(options), checks_(checks) {
    cfg_.users = 8192;
    cfg_.days = 2;
    cfg_.sessions_per_user_day = 2;
    cfg_.threads = options.workers;
    cfg_.enable_lingxi = true;
    cfg_.drift_user_tolerance = true;
    cfg_.network.median_bandwidth = 1500.0;
    cfg_.network.sigma = 0.5;
    cfg_.network.relative_sd = 0.35;
    cfg_.lingxi.space.optimize_stall = false;
    cfg_.lingxi.space.optimize_switch = false;
    cfg_.lingxi.space.optimize_beta = true;
    cfg_.lingxi.obo_rounds = 4;
    cfg_.lingxi.monte_carlo.samples = 16;
  }

  void setup() override {
    trained_ = train_predictor(kLowBwPredictorSeed, 0.25);
    predictor_.emplace(trained_.net, trained_.os_model);
  }

  UnitResult run_unit(TraceContext* trace) override {
    UnitResult unit;
    const double cpu0 = process_cpu_s();
    const std::uint64_t t0 = wall_ns();
    sim::FleetRunner runner(cfg_, hyb_factory(trace != nullptr ? &trace->abr : nullptr));
    runner.set_predictor_factory(predictor_factory(trained_, trace));
    sim::FleetRunStats stats;
    const sim::FleetAccumulator acc = run_fleet(
        runner, mix_seed(options_.seed, kFleetStream, 0), &stats, trace, 0, "lowbw_fleet");
    unit.wall_s = seconds_between(t0, wall_ns());
    unit.cpu_s = process_cpu_s() - cpu0;
    checks_.expect(!acc.has_overflow(), "lowbw_fleet: accumulator overflow latch clear");
    checks_.expect(acc.sessions == cfg_.users * cfg_.days * cfg_.sessions_per_user_day,
                   "lowbw_fleet: every scheduled session simulated");
    unit.sessions = acc.sessions;
    unit.watch_s = acc.total_watch_time();
    unit.exit_rate = acc.exit_rate();
    unit.stall_per_10k = acc.stall_per_10k();
    unit.fingerprint = acc.checksum();
    if (trace != nullptr) {
      last_acc_ = acc;
      last_stats_ = stats;
    }
    return unit;
  }

  void layer_metrics(TraceContext& trace, std::size_t units, MetricValues& out) override {
    fleet_layer_metrics(trace, units, last_acc_, last_stats_, cfg_.lingxi.monte_carlo.samples,
                        out);
  }

  const predictor::HybridExitPredictor& predictor() const override { return *predictor_; }
  std::size_t workers() const override { return cfg_.threads; }

 private:
  RunOptions options_;
  Checks& checks_;
  sim::FleetConfig cfg_;
  TrainedPredictor trained_;
  std::optional<predictor::HybridExitPredictor> predictor_;
  sim::FleetAccumulator last_acc_;
  sim::FleetRunStats last_stats_;
};

// ---------------------------------------------------------------------------
// controller: the deployed per-user loop (examples/personalized_streaming).

class Controller final : public Workload {
 public:
  /// A short sample must fail the run, not shrink p95's tail: with at least
  /// this many optimizations, 10 or more lie beyond p95.
  static constexpr std::size_t kMinOptimizations = 200;

  Controller(const RunOptions& options, Checks& checks)
      : options_(options),
        checks_(checks),
        simulator_(sim::SessionSimulator::Config{}),
        videos_(trace::VideoGenerator::Config{}) {
    lingxi_.space.optimize_stall = false;
    lingxi_.space.optimize_switch = false;
    lingxi_.space.optimize_beta = true;
    network_.median_bandwidth = 1500.0;
    network_.sigma = 0.5;
    network_.relative_sd = 0.35;
  }

  void setup() override {
    trained_ = train_predictor(kLowBwPredictorSeed, 0.25);
    predictor_.emplace(trained_.net, trained_.os_model);
    const user::UserPopulation population{user::UserPopulation::Config{}};
    users_.clear();
    for (std::size_t u = 0; u < kUsers; ++u) {
      Rng rng(mix_seed(options_.seed, kUserStream, u));
      users_.push_back(
          {stratified_profile(network_, u, kUsers, rng), population.sample_config(rng)});
    }
  }

  UnitResult run_unit(TraceContext* trace) override {
    UnitResult unit;
    const double cpu0 = process_cpu_s();
    const std::uint64_t t0 = wall_ns();
    SpanLog* log = trace != nullptr ? &trace->spans : nullptr;
    ScopedSpan pass(log, "sim.run", 0, "controller");
    const auto ladder = trace::BitrateLadder::default_ladder();
    core::LingXiStats totals;
    std::uint64_t exits = 0;
    double stall = 0.0;
    double watch = 0.0;
    std::uint32_t trail = 0;
    std::size_t optimizations = 0;
    for (std::size_t u = 0; u < users_.size(); ++u) {
      const std::uint64_t user_start = wall_ns();
      const double user_cpu = thread_cpu_s();
      const std::string subject = "user-" + std::to_string(u);
      ScopedSpan user_span(log, "controller.user", pass.id(), subject);
      Rng rng(mix_seed(options_.seed, kSessionStream, u));
      std::unique_ptr<abr::AbrAlgorithm> abr = std::make_unique<abr::Hyb>();
      if (trace != nullptr) abr = std::make_unique<ProbedAbr>(std::move(abr), trace->abr);
      core::LingXi lingxi(lingxi_, *predictor_, ladder);
      user::DataDrivenUser model(users_[u].behaviour);
      for (std::size_t s = 0; s < kSessionsPerUser; ++s) {
        const trace::Video video = videos_.sample(rng);
        const auto bandwidth = users_[u].network.make_session_model();
        lingxi.begin_session();
        std::uint64_t start = wall_ns();
        const sim::SessionResult session = simulator_.run(video, *abr, *bandwidth, &model, rng);
        std::uint64_t stop = wall_ns();
        if (trace != nullptr) {
          trace->samples["sim.session_run_us"].add(static_cast<double>(stop - start) * 1e-3);
        }
        start = stop;
        for (const auto& seg : session.segments) lingxi.on_segment(seg);
        lingxi.end_session(sim::exited_during_stall(session));
        stop = wall_ns();
        if (trace != nullptr) {
          trace->samples["core.ingest_us"].add(static_cast<double>(stop - start) * 1e-3);
        }
        const Seconds buffer =
            session.segments.empty() ? 0.0 : session.segments.back().buffer_after;
        ScopedSpan opt_span(log, "core.maybe_optimize", user_span.id(), subject);
        const auto adopted = lingxi.maybe_optimize(*abr, buffer, rng);
        const double opt_s = opt_span.stop();
        if (adopted) {
          ++optimizations;
          if (trace != nullptr) trace->samples["core.optimize_ms"].add(opt_s * 1e3);
        }
        if (trace != nullptr) trace->attributed_cpu_s += opt_s;
        exits += session.exited ? 1 : 0;
        stall += session.total_stall;
        watch += session.watch_time;
        trail = crc_add(trail, abr->params().hyb_beta);
        ++unit.sessions;
      }
      const core::LingXiStats& s = lingxi.stats();
      totals.triggers += s.triggers;
      totals.optimizations_run += s.optimizations_run;
      totals.pruned_preplay += s.pruned_preplay;
      totals.mc_evaluations += s.mc_evaluations;
      totals.mc_rollouts_pruned += s.mc_rollouts_pruned;
      unit.item_wall_s.push_back(seconds_between(user_start, wall_ns()));
      unit.item_cpu_s.push_back(thread_cpu_s() - user_cpu);
    }
    pass.stop();
    unit.wall_s = seconds_between(t0, wall_ns());
    unit.cpu_s = process_cpu_s() - cpu0;
    checks_.expect(optimizations >= kMinOptimizations,
                   "controller: " + std::to_string(optimizations) + " optimizations >= " +
                       std::to_string(kMinOptimizations));
    unit.exit_rate = static_cast<double>(exits) / static_cast<double>(unit.sessions);
    unit.stall_per_10k = watch > 0.0 ? stall / watch * 1e4 : 0.0;
    unit.watch_s = watch;
    unit.fingerprint = trail;
    if (trace != nullptr) {
      totals_ = totals;
      trace->samples["sim.run_s"].add(unit.wall_s);
      trace->samples["sim.worker_util"].add(unit.cpu_s / unit.wall_s);
    }
    return unit;
  }

  void layer_metrics(TraceContext& trace, std::size_t units, MetricValues& out) override {
    const obs::RegistrySnapshot snap = trace.registry.snapshot();
    histogram_metrics(snap, units, out);
    out["sim.run_s"] = trace.samples["sim.run_s"].median();
    out["sim.worker_util"] = trace.samples["sim.worker_util"].median();
    Samples& run_us = trace.samples["sim.session_run_us"];
    out["sim.session_run_us"] = run_us.mean();
    Samples& opt = trace.samples["core.optimize_ms"];
    out["core.optimize_ms"] = opt.median();
    out["core.optimize_ms.p95"] = opt.quantile(0.95);
    out["core.optimize_samples"] = static_cast<double>(opt.size()) / static_cast<double>(units);
    Samples& ingest = trace.samples["core.ingest_us"];
    out["core.ingest_us"] = ingest.mean();
    abr_metrics(trace, units, out);
    set_lingxi_counters(totals_, trace.abr.clones.load() / units,
                        lingxi_.monte_carlo.samples, out);
    trace.attributed_cpu_s += (run_us.sum() + ingest.sum()) * 1e-6;
  }

  const predictor::HybridExitPredictor& predictor() const override { return *predictor_; }
  std::size_t workers() const override { return 1; }
  /// Three passes, so every user's time is a median of at least three; the
  /// per-user medians already discard a cold first pass, so no warm-up.
  std::size_t min_units() const override { return 3; }
  std::size_t warmup_units() const override { return 0; }

 private:
  static constexpr std::size_t kUsers = 250;
  static constexpr std::size_t kSessionsPerUser = 12;

  struct User {
    trace::NetworkProfile network;
    user::DataDrivenUser::Config behaviour;
  };

  RunOptions options_;
  Checks& checks_;
  core::LingXiConfig lingxi_;
  trace::PopulationModel::Config network_;
  sim::SessionSimulator simulator_;
  trace::VideoGenerator videos_;
  TrainedPredictor trained_;
  std::optional<predictor::HybridExitPredictor> predictor_;
  std::vector<User> users_;
  core::LingXiStats totals_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const RunOptions& options, Checks& checks) {
  if (options.workload == "ab_mixed") return std::make_unique<AbMixed>(options, checks);
  if (options.workload == "lowbw_fleet") return std::make_unique<LowBwFleet>(options, checks);
  if (options.workload == "controller") return std::make_unique<Controller>(options, checks);
  return nullptr;
}

}  // namespace lingxi::perfbench
