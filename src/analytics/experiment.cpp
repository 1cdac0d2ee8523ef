#include "analytics/experiment.h"

#include "common/assert.h"
#include "sim/fleet_runner.h"
#include "telemetry/sink.h"

namespace lingxi::analytics {
namespace {

constexpr Seconds kStallThreshold = 0.05;

/// Count stall events that were followed by an exit (0 or 1 per session —
/// the session ends at the exit).
std::size_t stall_exit_count(const sim::SessionResult& session) {
  return sim::exited_during_stall(session, kStallThreshold) ? 1u : 0u;
}

/// In-memory telemetry sink assembling an ExperimentResult from FleetRunner
/// worker callbacks. Per-user buffers are written without locks — the
/// FleetRunner contract guarantees calls for one user come from a single
/// worker in (day, session) order, even under the cross-user wave scheduler
/// where a shard's users interleave between optimization park points — and
/// merged in user order afterwards, so the assembled result is identical at
/// any thread count and shard size.
class ExperimentSink final : public telemetry::TelemetrySink {
 public:
  /// Assembles records for sessions of days [first_day, days) — one leg of
  /// an arm. A full run is the single leg [0, config.days); incremental-day
  /// legs splice their results in PopulationExperiment::resume().
  ExperimentSink(const ExperimentConfig& config, bool treatment, std::size_t first_day,
                 std::size_t days)
      : config_(config),
        treatment_(treatment),
        first_day_(first_day),
        days_(days),
        users_(config.users) {
    for (auto& user : users_) user.days.resize(days_);
  }

  /// Seed the per-user stall-event counters with a checkpoint's running
  /// counts so Fig. 15 event indices stay continuous across a day boundary.
  void set_stall_event_counts(const std::vector<std::size_t>& counts) {
    LINGXI_ASSERT(counts.size() == users_.size());
    for (std::size_t u = 0; u < counts.size(); ++u) {
      users_[u].stall_event_counter = counts[u];
    }
  }

  std::vector<std::size_t> stall_event_counts() const {
    std::vector<std::size_t> counts;
    counts.reserve(users_.size());
    for (const auto& user : users_) counts.push_back(user.stall_event_counter);
    return counts;
  }

  void begin_fleet(const sim::FleetConfig&, std::uint64_t) override {}

  void record_session(const telemetry::SessionContext& ctx,
                      const sim::SessionResult& session) override {
    UserBuffer& user = users_[ctx.user_index];
    DayBuffer& day = user.days[ctx.day];
    day.metrics.add(session);

    UserDayRecord& rec = day.rec;
    rec.watch_time += session.watch_time;
    rec.stall_time += session.total_stall;
    rec.stall_events += static_cast<double>(session.stall_events);
    rec.stall_exits += static_cast<double>(stall_exit_count(session));
    for (const auto& seg : session.segments) {
      day.bw_sum += seg.throughput;
      ++day.bw_count;
    }
    day.param_beta_sum += ctx.params_after.hyb_beta;
    day.param_stall_sum += ctx.params_after.stall_penalty;
    ++day.session_count;

    if (config_.record_stall_events && treatment_ && ctx.day >= config_.intervention_day) {
      for (const auto& seg : session.segments) {
        if (seg.stall_time > kStallThreshold) {
          StallEventRecord ev;
          ev.user = ctx.user_index;
          ev.event_index = user.stall_event_counter++;
          ev.stall_time = seg.stall_time;
          ev.param_beta_after = ctx.params_after.hyb_beta;
          ev.param_stall_after = ctx.params_after.stall_penalty;
          ev.exited = session.exited && seg.index + 2 >= session.segments.size();
          ev.user_tolerance = ctx.user_tolerance;
          user.stall_events.push_back(ev);
        }
      }
    }
  }

  void record_user(const telemetry::UserTelemetry&) override {}

  /// Deterministic user-order merge into the public result shape. Daily
  /// slots before first_day stay default-empty; resume() overwrites them
  /// from the checkpoint prefix.
  ExperimentResult finish() {
    ExperimentResult result;
    result.daily.resize(days_);
    for (std::size_t u = 0; u < users_.size(); ++u) {
      UserBuffer& user = users_[u];
      for (std::size_t d = first_day_; d < days_; ++d) {
        DayBuffer& day = user.days[d];
        result.daily[d].merge(day.metrics);
        day.rec.user = u;
        day.rec.day = d;
        // Divide by the sessions the day actually ran — under a scenario the
        // curve / flash-crowd count differs from the configured base (and a
        // zero-session day keeps the default-zero means).
        const double sessions = static_cast<double>(day.session_count);
        day.rec.mean_beta = day.session_count > 0 ? day.param_beta_sum / sessions : 0.0;
        day.rec.mean_stall_penalty =
            day.session_count > 0 ? day.param_stall_sum / sessions : 0.0;
        day.rec.mean_bandwidth =
            day.bw_count > 0 ? day.bw_sum / static_cast<double>(day.bw_count) : 0.0;
        result.user_days.push_back(day.rec);
      }
      result.stall_events.insert(result.stall_events.end(), user.stall_events.begin(),
                                 user.stall_events.end());
    }
    return result;
  }

 private:
  struct DayBuffer {
    MetricAccumulator metrics;
    UserDayRecord rec;
    double param_beta_sum = 0.0;
    double param_stall_sum = 0.0;
    double bw_sum = 0.0;
    std::size_t bw_count = 0;
    std::size_t session_count = 0;
  };
  struct UserBuffer {
    std::vector<DayBuffer> days;
    std::vector<StallEventRecord> stall_events;
    std::size_t stall_event_counter = 0;
  };

  const ExperimentConfig& config_;
  bool treatment_;
  std::size_t first_day_;
  std::size_t days_;
  std::vector<UserBuffer> users_;
};

}  // namespace

ExperimentConfig::ExperimentConfig() {
  // The production A/B test tunes HYB's beta (§5.3): search beta only.
  lingxi.space.optimize_stall = false;
  lingxi.space.optimize_switch = false;
  lingxi.space.optimize_beta = true;
}

PopulationExperiment::PopulationExperiment(
    ExperimentConfig config, AbrFactory abr_factory,
    std::function<predictor::HybridExitPredictor()> make_predictor)
    : config_(std::move(config)),
      abr_factory_(std::move(abr_factory)),
      make_predictor_(std::move(make_predictor)) {
  LINGXI_ASSERT(abr_factory_ != nullptr);
  LINGXI_ASSERT(make_predictor_ != nullptr);
  LINGXI_ASSERT(config_.users > 0 && config_.days > 0);
}

sim::FleetConfig PopulationExperiment::fleet_config(bool treatment,
                                                    std::size_t days) const {
  sim::FleetConfig fleet;
  fleet.users = config_.users;
  fleet.days = days;
  fleet.sessions_per_user_day = config_.sessions_per_user_day;
  fleet.threads = config_.threads;
  fleet.enable_lingxi = treatment;
  fleet.intervention_day = treatment ? config_.intervention_day : 0;
  fleet.drift_user_tolerance = config_.drift_user_tolerance;
  fleet.fixed_params = config_.lingxi.default_params;  // control arm pins defaults
  fleet.population = config_.population;
  fleet.network = config_.network;
  fleet.video = config_.video;
  fleet.lingxi = config_.lingxi;
  fleet.session = config_.session;
  fleet.scenario = config_.scenario;
  return fleet;
}

ExperimentResult PopulationExperiment::run(bool treatment, std::uint64_t seed) const {
  // One fleet run per arm. Population, network and per-session worlds derive
  // from (seed, user, day, session) streams inside the runner, so control
  // and treatment arms are paired for a given seed: the treatment series
  // differs from control only through LingXi's parameter changes — the
  // variance-reduction analogue of the paper's 30M-user population.
  sim::FleetRunner runner(fleet_config(treatment, config_.days), abr_factory_);
  if (treatment) runner.set_predictor_factory(make_predictor_);
  ExperimentSink sink(config_, treatment, 0, config_.days);
  runner.set_telemetry_sink(&sink);
  sim::FleetRunStats stats;
  runner.run(seed, &stats);
  ExperimentResult result = sink.finish();
  result.batching = stats;
  return result;
}

PopulationExperiment::ArmCheckpoint PopulationExperiment::run_to_day(
    bool treatment, std::uint64_t seed, std::size_t day) const {
  LINGXI_ASSERT(day > 0 && day < config_.days);
  sim::FleetRunner runner(fleet_config(treatment, config_.days), abr_factory_);
  if (treatment) runner.set_predictor_factory(make_predictor_);
  ExperimentSink sink(config_, treatment, 0, day);
  runner.set_telemetry_sink(&sink);
  ArmCheckpoint checkpoint;
  sim::FleetRunStats stats;
  runner.run_days(seed, 0, day, nullptr, &checkpoint.fleet, &stats);
  checkpoint.prefix = sink.finish();
  checkpoint.prefix.batching = stats;
  checkpoint.stall_event_counts = sink.stall_event_counts();
  return checkpoint;
}

ExperimentResult PopulationExperiment::resume(bool treatment, std::uint64_t seed,
                                              const ArmCheckpoint& checkpoint,
                                              std::size_t total_days) const {
  const std::size_t total = total_days != 0 ? total_days : config_.days;
  const std::size_t boundary = checkpoint.fleet.next_day;
  LINGXI_ASSERT(boundary > 0 && boundary < total);
  LINGXI_ASSERT(checkpoint.fleet.users.size() == config_.users);
  LINGXI_ASSERT(checkpoint.prefix.user_days.size() == config_.users * boundary);
  LINGXI_ASSERT(checkpoint.stall_event_counts.size() == config_.users);

  // Days before `boundary` never re-simulate: the fleet resumes from the
  // checkpointed per-user state. A horizon beyond config().days is legal —
  // no pre-boundary draw depends on the calendar length.
  sim::FleetRunner runner(fleet_config(treatment, total), abr_factory_);
  if (treatment) runner.set_predictor_factory(make_predictor_);
  ExperimentSink sink(config_, treatment, boundary, total);
  sink.set_stall_event_counts(checkpoint.stall_event_counts);
  runner.set_telemetry_sink(&sink);
  sim::FleetRunStats continuation_stats;
  runner.run_days(seed, boundary, total, &checkpoint.fleet, nullptr,
                  &continuation_stats);
  const ExperimentResult continuation = sink.finish();

  // Splice prefix + continuation into the shape a single full run produces.
  // Every record and accumulation is scoped to one (user, day) bucket, so
  // the split cannot change a single bit of any value.
  ExperimentResult result;
  result.daily = continuation.daily;
  for (std::size_t d = 0; d < boundary; ++d) result.daily[d] = checkpoint.prefix.daily[d];
  // Batching counters merge across legs — a spliced experiment reports the
  // same pool totals as an uninterrupted one (test_analytics.cpp pins this).
  result.batching = checkpoint.prefix.batching;
  result.batching.merge(continuation_stats);

  const std::size_t cont_days = total - boundary;
  result.user_days.reserve(config_.users * total);
  for (std::size_t u = 0; u < config_.users; ++u) {
    for (std::size_t d = 0; d < boundary; ++d) {
      result.user_days.push_back(checkpoint.prefix.user_days[u * boundary + d]);
    }
    for (std::size_t d = 0; d < cont_days; ++d) {
      result.user_days.push_back(continuation.user_days[u * cont_days + d]);
    }
  }

  // Stall-event records are user-major in both legs; interleave per user.
  std::size_t pi = 0, ci = 0;
  const auto& pre = checkpoint.prefix.stall_events;
  const auto& post = continuation.stall_events;
  result.stall_events.reserve(pre.size() + post.size());
  for (std::size_t u = 0; u < config_.users; ++u) {
    while (pi < pre.size() && pre[pi].user == u) result.stall_events.push_back(pre[pi++]);
    while (ci < post.size() && post[ci].user == u) {
      result.stall_events.push_back(post[ci++]);
    }
  }
  return result;
}

std::vector<double> relative_daily_gap(const std::vector<MetricAccumulator>& treatment,
                                       const std::vector<MetricAccumulator>& control,
                                       double (MetricAccumulator::*metric)() const) {
  LINGXI_ASSERT(treatment.size() == control.size());
  std::vector<double> gaps;
  gaps.reserve(control.size());
  for (std::size_t d = 0; d < control.size(); ++d) {
    const double c = (control[d].*metric)();
    const double t = (treatment[d].*metric)();
    gaps.push_back(c != 0.0 ? (t - c) / c : 0.0);
  }
  return gaps;
}

std::vector<double> relative_daily_gap(const ExperimentResult& treatment,
                                       const ExperimentResult& control,
                                       double (MetricAccumulator::*metric)() const) {
  return relative_daily_gap(treatment.daily, control.daily, metric);
}

}  // namespace lingxi::analytics
