// Scenario driver: the canonical "CDN brownout + flash crowd + churn"
// script end to end on an A/B fleet, with every determinism claim of the
// scenario layer verified bitwise in one invocation:
//
//   1. empty-script parity — a run with an explicitly empty script must be
//      byte-for-byte (accumulator checksum + archive bytes) the unscripted
//      run;
//   2. grid determinism — the scripted run must reproduce the same
//      accumulator checksum and archive bytes across threads,
//      users_per_shard and Monte Carlo batch size;
//   3. checkpoint/kill/resume — a forked child auto-checkpoints the
//      scripted run and SIGKILLs itself inside the commit that lands on the
//      churn day; the parent recovers via find_latest_valid and resumes
//      through the event days, and the spliced run must match the
//      uninterrupted reference bitwise;
//   4. analytics — both arms of the scripted A/B experiment are summarized
//      into per-event difference-in-differences windows and per-cohort
//      Fig. 13-style buckets (analytics/scenario_report).
//
// Exits non-zero when ANY bitwise check fails. Flags:
//   --users N --days N --threads N   fleet shape (defaults 192 x 9 x 4)
//   --smoke                          64-user / 6-day fleet, cheap training
//   --json PATH                      machine-readable summary + report
//   --metrics-json PATH              obs registry snapshot (bench_util)
//   --timeline-out PATH              per-day health timeline (obs/timeline)
//   --slo SPEC                       kind:metric:threshold[:name] SLO rule,
//                                    repeatable; a fired rule exits 3
//   --archive-dir PATH               keep the scripted reference archive
//   --root PATH                      checkpoint root for the kill leg
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "abr/hyb.h"
#include "analytics/scenario_report.h"
#include "bench_util.h"
#include "obs/timeline.h"
#include "scenario/scenario.h"
#include "sim/fleet_runner.h"
#include "snapshot/checkpoint.h"
#include "snapshot/snapshot.h"
#include "telemetry/capture.h"

using namespace lingxi;

namespace {

constexpr std::uint64_t kSeed = 2025;

// Kill plan for the checkpoint leg (file-scope: SaveCommitHook is a plain
// function pointer): SIGKILL inside the N-th save once its staging is
// durable — the commit landed on disk but was never renamed.
int g_kill_at_save = 0;
int g_saves_started = 0;

bool kill_hook(snapshot::SaveStage stage) {
  if (stage == snapshot::SaveStage::kStateFilesStaged) ++g_saves_started;
  if (g_saves_started == g_kill_at_save &&
      stage == snapshot::SaveStage::kStagingDurable) {
    std::raise(SIGKILL);
  }
  return true;
}

// The treatment-arm fleet shape shared by every leg. Every result-shaping
// knob must agree across legs for the parity checks to mean anything;
// threads / users_per_shard / Monte Carlo batch size are the knobs the grid
// sweeps.
sim::FleetConfig make_fleet_config(std::size_t users, std::size_t days,
                                   std::size_t threads,
                                   const scenario::ScenarioScript& script) {
  sim::FleetConfig cfg;
  cfg.users = users;
  cfg.days = days;
  cfg.sessions_per_user_day = 8;
  cfg.threads = threads;
  cfg.users_per_shard = 16;
  cfg.enable_lingxi = true;
  cfg.drift_user_tolerance = true;
  cfg.network.median_bandwidth = 1500.0;
  cfg.network.sigma = 0.5;
  cfg.network.relative_sd = 0.35;
  cfg.lingxi.space.optimize_stall = false;
  cfg.lingxi.space.optimize_switch = false;
  cfg.lingxi.space.optimize_beta = true;
  cfg.lingxi.obo_rounds = 4;
  cfg.lingxi.monte_carlo.samples = 16;
  cfg.scenario = script;
  return cfg;
}

struct RunResult {
  sim::FleetAccumulator acc;
  telemetry::FleetArchive archive;
};

RunResult run_fleet(const sim::FleetConfig& cfg,
                    const std::function<predictor::HybridExitPredictor()>& factory) {
  sim::FleetRunner runner(cfg, [] { return std::make_unique<abr::Hyb>(); });
  runner.set_predictor_factory(factory);
  telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{16});
  runner.set_telemetry_sink(&capture);
  RunResult result;
  result.acc = runner.run(kSeed);
  result.archive = capture.finish();
  return result;
}

bool archives_identical(const telemetry::FleetArchive& a,
                        const telemetry::FleetArchive& b) {
  if (a.checksum() != b.checksum() || a.shards.size() != b.shards.size()) return false;
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    if (!(a.shards[s] == b.shards[s])) return false;
  }
  return true;
}

const char* verdict(bool ok) { return ok ? "yes" : "NO — PARITY BUG"; }

}  // namespace

int main(int argc, char** argv) {
  std::size_t users = 192;
  std::size_t days = 9;
  std::size_t threads = 4;
  bool smoke = false;
  const char* json_path = nullptr;
  std::string metrics_path;
  std::string timeline_path;
  std::vector<std::string> slo_specs;
  std::string archive_dir;
  std::string root = "scenario-checkpoints";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--users") == 0 && i + 1 < argc) {
      users = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--days") == 0 && i + 1 < argc) {
      days = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--timeline-out") == 0 && i + 1 < argc) {
      timeline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--slo") == 0 && i + 1 < argc) {
      slo_specs.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--archive-dir") == 0 && i + 1 < argc) {
      archive_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc) {
      root = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--users N] [--days N] [--threads N] [--smoke]\n"
                   "       [--json PATH] [--metrics-json PATH] [--timeline-out PATH]\n"
                   "       [--slo SPEC] [--archive-dir PATH] [--root PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (smoke) {
    users = std::min<std::size_t>(users, 64);
    days = std::min<std::size_t>(days, 6);
  }
  if (users < 8 || days < 3) {
    std::fprintf(stderr, "canonical script needs --users >= 8 and --days >= 3\n");
    return 2;
  }

  std::vector<obs::SloRule> slo_rules;
  if (!bench::parse_slo_flags(slo_specs, slo_rules)) return 2;
  const bench::ObsScope obs(metrics_path, "", timeline_path, std::move(slo_rules));

  const scenario::ScenarioScript script = scenario::canonical_script(users, days);
  if (const Status valid = script.validate(users, days); !valid) {
    std::fprintf(stderr, "canonical script invalid: %s\n",
                 valid.error().message.c_str());
    return 2;
  }
  const std::size_t churn_day = script.churns.front().day;
  std::size_t departures = 0;
  for (std::size_t u = 0; u < users; ++u) {
    departures += script.generations_through(u, days - 1);
  }

  std::printf("training shared exit-rate predictor...\n");
  const auto trained = bench::train_predictor(91, smoke ? 0.1 : 0.25);
  const auto predictor_factory = [&] { return trained.make(); };
  std::printf("fleet: %zu users x %zu days x 8 sessions, %zu threads\n", users, days,
              threads);
  std::printf("script: brownout days [%zu, %zu), flash crowd day %zu, churn day %zu "
              "(%zu departures), 7-day diurnal curve, mobile cohort\n",
              script.shocks.front().first_day, script.shocks.front().last_day,
              script.flash_crowds.front().arrival_day, churn_day, departures);

  // --- 1. Empty-script parity ----------------------------------------------
  bench::print_header("Empty-script parity (scenario layer off == absent)");
  const sim::FleetConfig plain_cfg = make_fleet_config(users, days, threads, {});
  const RunResult unscripted = run_fleet(plain_cfg, predictor_factory);
  const RunResult empty_scripted = run_fleet(plain_cfg, predictor_factory);
  const bool empty_parity =
      unscripted.acc.checksum() == empty_scripted.acc.checksum() &&
      archives_identical(unscripted.archive, empty_scripted.archive);
  std::printf("unscripted checksum 0x%08x, archive 0x%08x — byte-identical: %s\n",
              unscripted.acc.checksum(), unscripted.archive.checksum(),
              verdict(empty_parity));

  // --- 2. Scripted grid determinism ----------------------------------------
  bench::print_header("Scenario-on grid determinism (canonical script)");
  sim::FleetConfig ref_cfg = make_fleet_config(users, days, threads, script);
  const RunResult reference = run_fleet(ref_cfg, predictor_factory);
  const bool churn_fired = reference.acc.users == users + departures;
  std::printf("reference checksum 0x%08x, archive 0x%08x, %llu sessions, "
              "%llu user summaries (churn fired: %s)\n",
              reference.acc.checksum(), reference.archive.checksum(),
              static_cast<unsigned long long>(reference.acc.sessions),
              static_cast<unsigned long long>(reference.acc.users),
              verdict(churn_fired));

  // Batch 0 keeps the configured Monte Carlo batch size; one user per shard
  // is the per-optimization schedule.
  struct GridCase {
    std::size_t threads;
    std::size_t users_per_shard;
    std::size_t batch;
  };
  const GridCase grid[] = {
      {1, 1, 0},
      {threads, 1, 7},
      {1, 4, 0},
      {threads, ref_cfg.users_per_shard, 64},
  };
  bool grid_match = true;
  for (const GridCase& c : grid) {
    sim::FleetConfig cfg = ref_cfg;
    cfg.threads = c.threads;
    cfg.users_per_shard = c.users_per_shard;
    if (c.batch > 0) cfg.lingxi.monte_carlo.batch_size = c.batch;
    const RunResult r = run_fleet(cfg, predictor_factory);
    const bool ok = r.acc.checksum() == reference.acc.checksum() &&
                    archives_identical(r.archive, reference.archive);
    grid_match = grid_match && ok;
    std::printf("  threads=%zu users_per_shard=%zu batch=%zu: %s\n", c.threads,
                c.users_per_shard, c.batch, verdict(ok));
  }

  // --- 3. Checkpoint / SIGKILL / resume through the churn day ---------------
  bench::print_header("Checkpoint + SIGKILL + resume through the event days");
  std::filesystem::remove_all(root);
  const pid_t pid = fork();
  if (pid < 0) {
    std::fprintf(stderr, "fork failed\n");
    return 1;
  }
  if (pid == 0) {
    // Child: checkpoint every day; die inside the commit whose staging
    // covers days [0, churn_day) — the resumed leg must replay the churn.
    // The child inherits the parent's installed TimelineWriter along with
    // its open descriptor and shared file offset; uninstall it so the
    // doomed leg's day records (and its torn final write) never interleave
    // with the parent's timeline frames.
    obs::TimelineWriter::install(nullptr);
    g_kill_at_save = static_cast<int>(churn_day);
    g_saves_started = 0;
    snapshot::set_save_commit_hook(&kill_hook);
    sim::FleetRunner runner(ref_cfg, [] { return std::make_unique<abr::Hyb>(); });
    runner.set_predictor_factory(predictor_factory);
    telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{16});
    runner.set_telemetry_sink(&capture);
    snapshot::AutoCheckpointer ckpt(
        runner, kSeed, {root, /*every_k_days=*/1, /*retain=*/2, /*users_per_shard=*/16},
        &capture);
    ckpt.arm(runner);
    runner.run_days(kSeed, 0, days, nullptr, nullptr);
    _exit(7);  // only reached if the kill never fired
  }
  int wstatus = 0;
  bool resume_match = false;
  std::size_t resume_day = 0;
  std::uint32_t resumed_checksum = 0;
  if (waitpid(pid, &wstatus, 0) != pid || !WIFSIGNALED(wstatus) ||
      WTERMSIG(wstatus) != SIGKILL) {
    std::fprintf(stderr, "checkpointing child did not die by SIGKILL as planned\n");
  } else {
    std::printf("child killed inside the day-%zu commit; recovering from %s\n",
                churn_day, root.c_str());
    auto recovered = snapshot::find_latest_valid(root);
    if (!recovered) {
      std::fprintf(stderr, "recovery failed: %s\n", recovered.error().message.c_str());
    } else {
      resume_day = recovered->snapshot.state.next_day;
      std::printf("recovered day-%zu checkpoint (churn replays %s resume)\n",
                  resume_day, resume_day <= churn_day ? "after" : "before");
      if (auto s = snapshot::check_compatible(recovered->snapshot, ref_cfg, kSeed); !s) {
        std::fprintf(stderr, "checkpoint incompatible: %s\n",
                     s.error().message.c_str());
      } else {
        sim::FleetRunner runner(ref_cfg, [] { return std::make_unique<abr::Hyb>(); });
        runner.set_predictor_factory(snapshot::resume_predictor_factory(
            predictor_factory, recovered->snapshot.net_model));
        telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{16});
        if (auto s = snapshot::restore_capture(capture, ref_cfg,
                                               recovered->snapshot.seed,
                                               std::move(recovered->snapshot.capture));
            !s) {
          std::fprintf(stderr, "restore_capture failed: %s\n",
                       s.error().message.c_str());
        } else {
          runner.set_telemetry_sink(&capture);
          const sim::FleetAccumulator resumed =
              runner.run_days(kSeed, resume_day, days, &recovered->snapshot.state);
          const telemetry::FleetArchive resumed_archive = capture.finish();
          resumed_checksum = resumed.checksum();
          resume_match = resumed.checksum() == reference.acc.checksum() &&
                         archives_identical(resumed_archive, reference.archive);
          std::printf("resumed days [%zu, %zu): checksum 0x%08x — bitwise identical "
                      "to uninterrupted run: %s\n",
                      resume_day, days, resumed.checksum(), verdict(resume_match));
        }
      }
    }
  }

  // --- 4. A/B analytics: DiD windows + cohort buckets -----------------------
  bench::print_header("Scenario analytics (paired A/B, DiD per event window)");
  analytics::ExperimentConfig exp_cfg;
  exp_cfg.users = users;
  exp_cfg.days = days;
  exp_cfg.sessions_per_user_day = 8;
  exp_cfg.intervention_day = 0;  // post-deploy view: LingXi live from day 0
  exp_cfg.threads = threads;
  exp_cfg.network = ref_cfg.network;
  exp_cfg.lingxi = ref_cfg.lingxi;
  exp_cfg.scenario = script;
  const analytics::PopulationExperiment experiment(
      exp_cfg, [] { return std::make_unique<abr::Hyb>(); }, predictor_factory);
  const analytics::ExperimentResult control = experiment.run(false, kSeed);
  const analytics::ExperimentResult treatment = experiment.run(true, kSeed);
  const analytics::ScenarioReport report = analytics::summarize_scenario(
      script, users, days, control.user_days, treatment.user_days);
  for (const auto& e : report.events) {
    std::printf("  %-15s window [%zu, %zu): control DiD %+.3f (p=%.3f), "
                "treatment DiD %+.3f (p=%.3f)%s\n",
                e.kind.c_str(), e.first_day, e.last_day, e.control_stall_did.effect,
                e.control_stall_did.p_two_sided, e.treatment_stall_did.effect,
                e.treatment_stall_did.p_two_sided,
                e.has_did ? "" : "  [window means only]");
  }
  for (const auto& c : report.cohorts) {
    std::printf("  cohort %-8s %3zu users, %4zu user-days: stall %+.2f%% "
                "(treatment vs control)\n",
                c.name.c_str(), c.cohort_users, c.user_days, c.stall_diff_pct());
  }

  if (!archive_dir.empty()) {
    if (const Status s = reference.archive.write(archive_dir); !s) {
      std::fprintf(stderr, "cannot write archive to %s: %s\n", archive_dir.c_str(),
                   s.error().message.c_str());
    } else {
      std::printf("scripted reference archive written to %s\n", archive_dir.c_str());
    }
  }

  const bool all_ok = empty_parity && grid_match && resume_match && churn_fired;
  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 2;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"users\": %zu,\n"
                 "  \"days\": %zu,\n"
                 "  \"churn_day\": %zu,\n"
                 "  \"departures\": %zu,\n"
                 "  \"reference_checksum\": \"0x%08x\",\n"
                 "  \"reference_archive_checksum\": \"0x%08x\",\n"
                 "  \"resume_day\": %zu,\n"
                 "  \"resumed_checksum\": \"0x%08x\",\n"
                 "  \"empty_script_parity\": %s,\n"
                 "  \"grid_match\": %s,\n"
                 "  \"resume_match\": %s,\n"
                 "  \"churn_fired\": %s,\n"
                 "  \"match\": %s,\n"
                 "  \"report\": ",
                 users, days, churn_day, departures, reference.acc.checksum(),
                 reference.archive.checksum(), resume_day, resumed_checksum,
                 empty_parity ? "true" : "false", grid_match ? "true" : "false",
                 resume_match ? "true" : "false", churn_fired ? "true" : "false",
                 all_ok ? "true" : "false");
    const std::string report_json = analytics::to_json(report);
    std::fwrite(report_json.data(), 1, report_json.size(), f);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("json summary written to %s\n", json_path);
  }
  if (!obs.write()) return 2;

  std::printf("\nall bitwise checks passed: %s\n", verdict(all_ok));
  if (!all_ok) return 1;
  if (!obs.slo_ok()) return 3;
  return 0;
}
