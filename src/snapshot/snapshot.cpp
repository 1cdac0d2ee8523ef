#include "snapshot/snapshot.h"

#include <fcntl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "common/assert.h"
#include "common/crc32.h"
#include "logstore/record.h"
#include "nn/serialize.h"
#include "obs/timer.h"
#include "telemetry/archive.h"

namespace lingxi::snapshot {
namespace {

// State-file record type tags (leading u32 of every record payload).
constexpr std::uint32_t kUserStateRecord = 1;
constexpr std::uint32_t kCaptureCursorRecord = 2;
// Type 3 is reserved for in-flight OBO state (see snapshot.h).

// Sanity caps for decoded containers: the engagement vectors are capped at
// kHistoryLen and the bandwidth window at LingXiConfig::bandwidth_window by
// construction, but a decoder must never let a corrupt length field drive an
// allocation.
constexpr std::uint64_t kMaxVectorLen = 1u << 20;
// Largest fleet a snapshot may claim (16M users): load_snapshot pre-sizes
// the user-state table from the manifest, so the count must be bounded
// before it drives an allocation — a corrupt count surfaces as
// Error::kCorrupt, never as bad_alloc.
constexpr std::uint64_t kMaxSnapshotUsers = 1u << 24;

void put_vector(std::vector<unsigned char>& p, const std::vector<double>& v) {
  logstore::put_u64(p, v.size());
  for (double x : v) logstore::put_f64(p, x);
}

bool get_vector(const std::vector<unsigned char>& in, std::size_t& pos,
                std::vector<double>& v) {
  std::uint64_t n = 0;
  if (!logstore::get_u64(in, pos, n) || n > kMaxVectorLen) return false;
  v.resize(static_cast<std::size_t>(n));
  for (auto& x : v) {
    if (!logstore::get_f64(in, pos, x)) return false;
  }
  return true;
}

std::uint32_t record_type(const std::vector<unsigned char>& payload) {
  std::size_t pos = 0;
  std::uint32_t type = 0;
  if (!logstore::get_u32(payload, pos, type)) return 0;
  return type;
}

std::vector<unsigned char> encode_capture_cursor(
    std::uint64_t user, const telemetry::ShardedCapture::CaptureCursor& cursor) {
  std::vector<unsigned char> p;
  logstore::put_u32(p, kCaptureCursorRecord);
  logstore::put_u64(p, user);
  logstore::put_u64(p, cursor.records);
  logstore::put_u64(p, cursor.next_expected_at_least);
  logstore::put_u64(p, cursor.bytes.size());
  p.insert(p.end(), cursor.bytes.begin(), cursor.bytes.end());
  return p;
}

Expected<std::pair<std::uint64_t, telemetry::ShardedCapture::CaptureCursor>>
decode_capture_cursor(const std::vector<unsigned char>& payload) {
  std::size_t pos = 4;  // past the type tag
  std::uint64_t user = 0, byte_count = 0;
  telemetry::ShardedCapture::CaptureCursor cursor;
  if (!logstore::get_u64(payload, pos, user) ||
      !logstore::get_u64(payload, pos, cursor.records) ||
      !logstore::get_u64(payload, pos, cursor.next_expected_at_least) ||
      !logstore::get_u64(payload, pos, byte_count)) {
    return Error::corrupt("truncated capture cursor record");
  }
  if (pos + byte_count != payload.size()) {
    return Error::corrupt("capture cursor byte count disagrees with record size");
  }
  cursor.bytes.assign(payload.begin() + static_cast<long>(pos), payload.end());
  return std::make_pair(user, std::move(cursor));
}

/// The 19 integer fields of FleetAccumulator in declaration order — the same
/// serialization checksum() hashes (overflow latch last).
void put_accumulator(std::vector<unsigned char>& p, const sim::FleetAccumulator& acc) {
  for (std::uint64_t v :
       {acc.sessions, acc.completed, acc.measured_sessions, acc.measured_completed,
        acc.stall_events, acc.stall_exits, acc.quality_switches, acc.users,
        static_cast<std::uint64_t>(acc.watch_ticks),
        static_cast<std::uint64_t>(acc.stall_ticks),
        static_cast<std::uint64_t>(acc.startup_ticks),
        static_cast<std::uint64_t>(acc.bitrate_time_ticks), acc.lingxi_triggers,
        acc.lingxi_optimizations, acc.lingxi_pruned_preplay, acc.lingxi_mc_evaluations,
        acc.lingxi_mc_rollouts_pruned, acc.adjusted_user_days, acc.overflowed}) {
    logstore::put_u64(p, v);
  }
}

bool get_accumulator(const std::vector<unsigned char>& in, std::size_t& pos,
                     sim::FleetAccumulator& acc) {
  std::uint64_t f[19];
  for (auto& v : f) {
    if (!logstore::get_u64(in, pos, v)) return false;
  }
  acc.sessions = f[0];
  acc.completed = f[1];
  acc.measured_sessions = f[2];
  acc.measured_completed = f[3];
  acc.stall_events = f[4];
  acc.stall_exits = f[5];
  acc.quality_switches = f[6];
  acc.users = f[7];
  acc.watch_ticks = static_cast<std::int64_t>(f[8]);
  acc.stall_ticks = static_cast<std::int64_t>(f[9]);
  acc.startup_ticks = static_cast<std::int64_t>(f[10]);
  acc.bitrate_time_ticks = static_cast<std::int64_t>(f[11]);
  acc.lingxi_triggers = f[12];
  acc.lingxi_optimizations = f[13];
  acc.lingxi_pruned_preplay = f[14];
  acc.lingxi_mc_evaluations = f[15];
  acc.lingxi_mc_rollouts_pruned = f[16];
  acc.adjusted_user_days = f[17];
  acc.overflowed = f[18];
  return true;
}

struct Manifest {
  std::uint64_t seed = 0;
  std::uint32_t resume_digest = 0;
  std::uint64_t users = 0;
  std::uint64_t next_day = 0;
  std::uint64_t users_per_shard = 0;
  bool has_net = false;
  std::uint32_t net_crc = 0;
  bool has_capture = false;
  sim::FleetAccumulator accumulated;
  struct Shard {
    std::uint64_t first_user = 0;
    std::uint64_t user_count = 0;
    std::uint64_t byte_count = 0;
    std::uint32_t crc = 0;
  };
  std::vector<Shard> shards;
};

std::vector<unsigned char> encode_manifest(const Manifest& m) {
  std::vector<unsigned char> p;
  logstore::put_u32(p, kSnapshotFormatVersion);
  logstore::put_u64(p, m.seed);
  logstore::put_u32(p, m.resume_digest);
  logstore::put_u64(p, m.users);
  logstore::put_u64(p, m.next_day);
  logstore::put_u64(p, m.users_per_shard);
  logstore::put_u32(p, m.has_net ? 1u : 0u);
  logstore::put_u32(p, m.net_crc);
  logstore::put_u32(p, m.has_capture ? 1u : 0u);
  put_accumulator(p, m.accumulated);
  logstore::put_u64(p, m.shards.size());
  for (const auto& shard : m.shards) {
    logstore::put_u64(p, shard.first_user);
    logstore::put_u64(p, shard.user_count);
    logstore::put_u64(p, shard.byte_count);
    logstore::put_u32(p, shard.crc);
  }
  return p;
}

Expected<Manifest> decode_manifest(const std::vector<unsigned char>& payload) {
  Manifest m;
  std::size_t pos = 0;
  std::uint32_t format = 0, net_flag = 0, capture_flag = 0;
  if (!logstore::get_u32(payload, pos, format)) {
    return Error::corrupt("truncated snapshot manifest");
  }
  if (format != kSnapshotFormatVersion) {
    return Error::corrupt("unsupported snapshot format version");
  }
  std::uint64_t shard_count = 0;
  const bool ok = logstore::get_u64(payload, pos, m.seed) &&
                  logstore::get_u32(payload, pos, m.resume_digest) &&
                  logstore::get_u64(payload, pos, m.users) &&
                  logstore::get_u64(payload, pos, m.next_day) &&
                  logstore::get_u64(payload, pos, m.users_per_shard) &&
                  logstore::get_u32(payload, pos, net_flag) &&
                  logstore::get_u32(payload, pos, m.net_crc) &&
                  logstore::get_u32(payload, pos, capture_flag) &&
                  get_accumulator(payload, pos, m.accumulated) &&
                  logstore::get_u64(payload, pos, shard_count);
  if (!ok) return Error::corrupt("truncated snapshot manifest");
  if (shard_count > (1u << 20)) return Error::corrupt("snapshot shard count out of range");
  if (m.users > kMaxSnapshotUsers) {
    return Error::corrupt("snapshot user count out of range");
  }
  m.has_net = net_flag != 0;
  m.has_capture = capture_flag != 0;
  m.shards.resize(static_cast<std::size_t>(shard_count));
  for (auto& shard : m.shards) {
    if (!logstore::get_u64(payload, pos, shard.first_user) ||
        !logstore::get_u64(payload, pos, shard.user_count) ||
        !logstore::get_u64(payload, pos, shard.byte_count) ||
        !logstore::get_u32(payload, pos, shard.crc)) {
      return Error::corrupt("truncated snapshot shard index");
    }
  }
  if (pos != payload.size()) {
    return Error::corrupt("trailing bytes in snapshot manifest");
  }
  // The shard table must tile [0, users) contiguously, or per-user state
  // would be silently missing at resume time.
  std::uint64_t next_user = 0;
  for (const auto& shard : m.shards) {
    if (shard.first_user != next_user || shard.user_count == 0 ||
        shard.user_count > m.users) {
      return Error::corrupt("snapshot shard table does not tile the user range");
    }
    next_user += shard.user_count;  // bounded: <= 2^20 shards x users cap
  }
  if (next_user != m.users) {
    return Error::corrupt("snapshot shard table disagrees with manifest user count");
  }
  return m;
}

}  // namespace

std::uint32_t resume_digest(const sim::FleetConfig& config) {
  sim::FleetConfig undated = config;
  undated.days = 0;
  return telemetry::config_digest(undated);
}

std::string manifest_filename() { return "manifest.lxm"; }

std::string state_filename(std::size_t shard_index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "state-%04zu.lxst", shard_index);
  return buf;
}

std::string net_filename() { return "net.lxnw"; }

std::vector<unsigned char> encode_user_state(std::uint64_t user,
                                             const sim::UserFleetState& state) {
  std::vector<unsigned char> p;
  logstore::put_u32(p, kUserStateRecord);
  logstore::put_u64(p, user);
  for (std::uint64_t word : state.session_rng.s) logstore::put_u64(p, word);
  logstore::put_f64(p, state.session_rng.cached_normal);
  logstore::put_u32(p, state.session_rng.has_cached_normal ? 1u : 0u);
  logstore::put_f64(p, state.params.stall_penalty);
  logstore::put_f64(p, state.params.switch_penalty);
  logstore::put_f64(p, state.params.hyb_beta);
  logstore::put_u64(p, state.adjusted_days);
  logstore::put_u32(p, state.has_lingxi ? 1u : 0u);
  if (state.has_lingxi) {
    const core::LingXi::PersistentState& lx = state.lingxi;
    put_vector(p, lx.engagement.long_term.stall_durations);
    put_vector(p, lx.engagement.long_term.stall_intervals);
    put_vector(p, lx.engagement.long_term.stall_exit_intervals);
    logstore::put_f64(p, lx.engagement.long_term.total_watch_time);
    logstore::put_u64(p, lx.engagement.long_term.total_stall_events);
    logstore::put_u64(p, lx.engagement.long_term.total_stall_exits);
    logstore::put_f64(p, lx.engagement.last_stall_at);
    logstore::put_f64(p, lx.engagement.last_stall_exit_at);
    put_vector(p, lx.bandwidth_window);
    logstore::put_u64(p, lx.stalls_since_optimization);
    logstore::put_u32(p, lx.has_optimized ? 1u : 0u);
    logstore::put_f64(p, lx.params.stall_penalty);
    logstore::put_f64(p, lx.params.switch_penalty);
    logstore::put_f64(p, lx.params.hyb_beta);
    logstore::put_u64(p, lx.stats.triggers);
    logstore::put_u64(p, lx.stats.optimizations_run);
    logstore::put_u64(p, lx.stats.pruned_preplay);
    logstore::put_u64(p, lx.stats.mc_evaluations);
    logstore::put_u64(p, lx.stats.mc_rollouts_pruned);
  }
  return p;
}

Expected<std::pair<std::uint64_t, sim::UserFleetState>> decode_user_state(
    const std::vector<unsigned char>& payload) {
  std::size_t pos = 4;  // past the type tag
  std::uint64_t user = 0;
  sim::UserFleetState state;
  std::uint32_t cached_flag = 0, lingxi_flag = 0;
  bool ok = logstore::get_u64(payload, pos, user);
  for (auto& word : state.session_rng.s) ok = ok && logstore::get_u64(payload, pos, word);
  ok = ok && logstore::get_f64(payload, pos, state.session_rng.cached_normal) &&
       logstore::get_u32(payload, pos, cached_flag) &&
       logstore::get_f64(payload, pos, state.params.stall_penalty) &&
       logstore::get_f64(payload, pos, state.params.switch_penalty) &&
       logstore::get_f64(payload, pos, state.params.hyb_beta) &&
       logstore::get_u64(payload, pos, state.adjusted_days) &&
       logstore::get_u32(payload, pos, lingxi_flag);
  if (!ok) return Error::corrupt("truncated user state record");
  state.session_rng.has_cached_normal = cached_flag != 0;
  state.has_lingxi = lingxi_flag != 0;
  if (state.has_lingxi) {
    core::LingXi::PersistentState& lx = state.lingxi;
    std::uint32_t optimized_flag = 0;
    ok = get_vector(payload, pos, lx.engagement.long_term.stall_durations) &&
         get_vector(payload, pos, lx.engagement.long_term.stall_intervals) &&
         get_vector(payload, pos, lx.engagement.long_term.stall_exit_intervals) &&
         logstore::get_f64(payload, pos, lx.engagement.long_term.total_watch_time) &&
         logstore::get_u64(payload, pos, lx.engagement.long_term.total_stall_events) &&
         logstore::get_u64(payload, pos, lx.engagement.long_term.total_stall_exits) &&
         logstore::get_f64(payload, pos, lx.engagement.last_stall_at) &&
         logstore::get_f64(payload, pos, lx.engagement.last_stall_exit_at) &&
         get_vector(payload, pos, lx.bandwidth_window) &&
         logstore::get_u64(payload, pos, lx.stalls_since_optimization) &&
         logstore::get_u32(payload, pos, optimized_flag) &&
         logstore::get_f64(payload, pos, lx.params.stall_penalty) &&
         logstore::get_f64(payload, pos, lx.params.switch_penalty) &&
         logstore::get_f64(payload, pos, lx.params.hyb_beta) &&
         logstore::get_u64(payload, pos, lx.stats.triggers) &&
         logstore::get_u64(payload, pos, lx.stats.optimizations_run) &&
         logstore::get_u64(payload, pos, lx.stats.pruned_preplay) &&
         logstore::get_u64(payload, pos, lx.stats.mc_evaluations) &&
         logstore::get_u64(payload, pos, lx.stats.mc_rollouts_pruned);
    if (!ok) return Error::corrupt("truncated user state record");
    lx.has_optimized = optimized_flag != 0;
  }
  if (pos != payload.size()) return Error::corrupt("trailing bytes in user state record");
  return std::make_pair(user, std::move(state));
}

std::vector<unsigned char> encode_obo_state(const bayesopt::OnlineBayesOpt::State& state) {
  std::vector<unsigned char> p;
  logstore::put_f64(p, state.gp.config.length_scale);
  logstore::put_f64(p, state.gp.config.signal_variance);
  logstore::put_f64(p, state.gp.config.noise_variance);
  logstore::put_u64(p, state.gp.xs.size());
  for (std::size_t i = 0; i < state.gp.xs.size(); ++i) {
    put_vector(p, state.gp.xs[i]);
    logstore::put_f64(p, state.gp.ys[i]);
  }
  logstore::put_u32(p, state.has_warm_start ? 1u : 0u);
  put_vector(p, state.warm_start);
  logstore::put_u32(p, state.warm_start_used ? 1u : 0u);
  return p;
}

Expected<bayesopt::OnlineBayesOpt::State> decode_obo_state(
    const std::vector<unsigned char>& payload) {
  bayesopt::OnlineBayesOpt::State state;
  std::size_t pos = 0;
  std::uint64_t n = 0;
  if (!logstore::get_f64(payload, pos, state.gp.config.length_scale) ||
      !logstore::get_f64(payload, pos, state.gp.config.signal_variance) ||
      !logstore::get_f64(payload, pos, state.gp.config.noise_variance) ||
      !logstore::get_u64(payload, pos, n) || n > kMaxVectorLen) {
    return Error::corrupt("truncated OBO state");
  }
  state.gp.xs.resize(static_cast<std::size_t>(n));
  state.gp.ys.resize(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < state.gp.xs.size(); ++i) {
    if (!get_vector(payload, pos, state.gp.xs[i]) ||
        !logstore::get_f64(payload, pos, state.gp.ys[i])) {
      return Error::corrupt("truncated OBO observation");
    }
  }
  std::uint32_t warm_flag = 0, used_flag = 0;
  if (!logstore::get_u32(payload, pos, warm_flag) ||
      !get_vector(payload, pos, state.warm_start) ||
      !logstore::get_u32(payload, pos, used_flag)) {
    return Error::corrupt("truncated OBO warm start");
  }
  state.has_warm_start = warm_flag != 0;
  state.warm_start_used = used_flag != 0;
  if (pos != payload.size()) return Error::corrupt("trailing bytes in OBO state");
  return state;
}

Expected<FleetSnapshot> capture_snapshot(const sim::FleetRunner& runner,
                                         std::uint64_t seed, sim::FleetDayState state,
                                         const telemetry::ShardedCapture* capture) {
  const sim::FleetConfig& config = runner.config();
  if (state.users.size() != config.users) {
    return Error::invalid_arg("day state user count disagrees with fleet config");
  }
  if (state.next_day == 0) {
    return Error::invalid_arg("day state is not a resumable day boundary");
  }
  FleetSnapshot snapshot;
  snapshot.seed = seed;
  snapshot.resume_digest = resume_digest(config);
  snapshot.state = std::move(state);
  if (config.enable_lingxi && runner.predictor_factory() != nullptr) {
    // The fleet's predictor factory is pure configuration (every call yields
    // equivalent weights), so one serialized net covers every per-user /
    // per-shard deep copy.
    predictor::HybridExitPredictor predictor = runner.predictor_factory()();
    snapshot.net_model =
        nn::serialize_model(nn::kModelKindStallExitNet, predictor.net().weights());
  }
  if (capture != nullptr) {
    snapshot.has_capture = true;
    snapshot.capture = capture->cursors();
    if (snapshot.capture.size() != config.users) {
      return Error::invalid_arg("capture user count disagrees with fleet config");
    }
  }
  return snapshot;
}

namespace {

// renameat2 flag value (RENAME_EXCHANGE); spelled out because <fcntl.h> only
// defines it with _GNU_SOURCE and the raw syscall needs just the number.
constexpr unsigned int kRenameExchange = 1u << 1;

SaveCommitHook g_save_commit_hook = nullptr;

/// The injected-crash result: save stops right here, cleanup included, so
/// the on-disk state is exactly what a real crash at this stage leaves.
Status simulated_crash() {
  return Error::io("snapshot commit aborted by commit hook (simulated crash)");
}

bool commit_stage(SaveStage stage) {
  return g_save_commit_hook == nullptr || g_save_commit_hook(stage);
}

/// Atomically replace `dir` with the fully staged, durable `staging`
/// directory. The previous snapshot at `dir` (if any) survives every torn
/// interleaving: fresh target -> one rename; existing target -> renameat2
/// RENAME_EXCHANGE when the kernel/filesystem supports it (no window at
/// all), else rename-aside (`dir` -> `dir`.old, staging -> `dir`) whose
/// only crash window leaves the old snapshot under `.old` and the new one
/// complete under `.tmp` — both content-validated candidates for
/// find_latest_valid.
Status commit_directory(const std::string& staging, const std::string& dir) {
  std::error_code ec;
  const bool target_exists = std::filesystem::exists(dir, ec);
  if (ec) return Error::io("cannot stat snapshot directory: " + dir);
  if (!target_exists) {
    if (std::rename(staging.c_str(), dir.c_str()) != 0) {
      return Error::io("snapshot commit rename failed: " + staging + " -> " + dir);
    }
  } else {
    bool exchanged = false;
#if defined(__linux__) && defined(SYS_renameat2)
    if (::syscall(SYS_renameat2, AT_FDCWD, staging.c_str(), AT_FDCWD, dir.c_str(),
                  kRenameExchange) == 0) {
      // `staging` now holds the superseded snapshot; best-effort cleanup (a
      // leftover is a valid, older candidate that recovery simply outranks).
      exchanged = true;
      std::filesystem::remove_all(staging, ec);
    }
#endif
    if (!exchanged) {
      const std::string old = dir + ".old";
      std::filesystem::remove_all(old, ec);
      if (ec) return Error::io("cannot clear stale snapshot: " + old);
      if (std::rename(dir.c_str(), old.c_str()) != 0) {
        return Error::io("snapshot commit rename-aside failed: " + dir + " -> " + old);
      }
      if (std::rename(staging.c_str(), dir.c_str()) != 0) {
        return Error::io("snapshot commit rename failed: " + staging + " -> " + dir);
      }
      std::filesystem::remove_all(old, ec);  // best-effort; stale .old is inert
    }
  }
  // Final durability point: the parent directory entry for `dir`.
  const std::filesystem::path parent = std::filesystem::path(dir).parent_path();
  return logstore::fsync_directory(parent.empty() ? "." : parent.string());
}

}  // namespace

void set_save_commit_hook(SaveCommitHook hook) { g_save_commit_hook = hook; }

namespace {

Status stage_snapshot(const FleetSnapshot& snapshot, const std::string& dir,
                      std::size_t users_per_shard) {
  Manifest manifest;
  manifest.seed = snapshot.seed;
  manifest.resume_digest = snapshot.resume_digest;
  manifest.users = snapshot.state.users.size();
  manifest.next_day = snapshot.state.next_day;
  manifest.users_per_shard = users_per_shard;
  manifest.has_capture = snapshot.has_capture;
  manifest.accumulated = snapshot.state.accumulated;
  {
    OBS_TIMED("snapshot.save.state_us");
    if (!snapshot.net_model.empty()) {
      manifest.has_net = true;
      manifest.net_crc = crc32(snapshot.net_model.data(), snapshot.net_model.size());
      if (auto s = logstore::write_file(dir + "/" + net_filename(), snapshot.net_model);
          !s) {
        return s;
      }
    }

    const std::size_t users = snapshot.state.users.size();
    const std::size_t shard_count = (users + users_per_shard - 1) / users_per_shard;
    manifest.shards.resize(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) {
      const std::size_t first = s * users_per_shard;
      const std::size_t last = std::min(first + users_per_shard, users);
      std::vector<unsigned char> bytes;
      for (std::size_t u = first; u < last; ++u) {
        logstore::write_record(bytes, encode_user_state(u, snapshot.state.users[u]));
        if (snapshot.has_capture) {
          logstore::write_record(bytes, encode_capture_cursor(u, snapshot.capture[u]));
        }
      }
      auto& info = manifest.shards[s];
      info.first_user = first;
      info.user_count = last - first;
      info.byte_count = bytes.size();
      info.crc = crc32(bytes.data(), bytes.size());
      if (auto st = logstore::write_file(dir + "/" + state_filename(s), bytes); !st) {
        return st;
      }
    }
  }

  if (!commit_stage(SaveStage::kStateFilesStaged)) return simulated_crash();

  // The manifest is written LAST: a directory holding a valid manifest is
  // complete by construction, which is what lets recovery content-validate
  // `.tmp`/`.old` leftovers as first-class candidates.
  {
    OBS_TIMED("snapshot.save.manifest_us");
    std::vector<unsigned char> framed;
    logstore::write_record(framed, encode_manifest(manifest));
    if (auto s = logstore::write_file(dir + "/" + manifest_filename(), framed); !s) {
      return s;
    }
  }
  if (!commit_stage(SaveStage::kManifestStaged)) return simulated_crash();
  return {};
}

}  // namespace

Status save_snapshot(const FleetSnapshot& snapshot, const std::string& dir,
                     std::size_t users_per_shard) {
  OBS_SPAN("snapshot.save");
  OBS_TIMED("snapshot.save.total_us");
  if (users_per_shard == 0) return Error::invalid_arg("users_per_shard must be >= 1");
  if (snapshot.has_capture && snapshot.capture.size() != snapshot.state.users.size()) {
    return Error::invalid_arg("capture cursor count disagrees with user state count");
  }
  const std::string staging = dir + ".tmp";
  std::error_code ec;
  std::filesystem::remove_all(staging, ec);
  if (ec) return Error::io("cannot clear stale snapshot staging: " + staging);
  std::filesystem::create_directories(staging, ec);
  if (ec) return Error::io("cannot create snapshot staging directory: " + staging);
  if (auto s = stage_snapshot(snapshot, staging, users_per_shard); !s) return s;
  {
    OBS_TIMED("snapshot.save.durable_us");
    if (auto s = logstore::fsync_directory(staging); !s) return s;
  }
  if (!commit_stage(SaveStage::kStagingDurable)) return simulated_crash();
  {
    OBS_TIMED("snapshot.save.commit_us");
    if (auto s = commit_directory(staging, dir); !s) return s;
  }
  commit_stage(SaveStage::kCommitted);
  return {};
}

Expected<FleetSnapshot> load_snapshot(const std::string& dir) {
  OBS_SPAN("snapshot.load");
  OBS_TIMED("snapshot.load.total_us");
  auto manifest_bytes = logstore::read_file(dir + "/" + manifest_filename());
  if (!manifest_bytes) return manifest_bytes.error();
  std::size_t pos = 0;
  auto payload = logstore::read_record(*manifest_bytes, pos);
  if (!payload) return payload.error();
  if (pos != manifest_bytes->size()) {
    return Error::corrupt("trailing bytes after snapshot manifest");
  }
  auto manifest = decode_manifest(*payload);
  if (!manifest) return manifest.error();

  FleetSnapshot snapshot;
  snapshot.seed = manifest->seed;
  snapshot.resume_digest = manifest->resume_digest;
  snapshot.state.next_day = static_cast<std::size_t>(manifest->next_day);
  snapshot.state.accumulated = manifest->accumulated;
  snapshot.state.users.assign(static_cast<std::size_t>(manifest->users),
                              sim::UserFleetState{});
  snapshot.has_capture = manifest->has_capture;
  if (manifest->has_capture) {
    snapshot.capture.assign(snapshot.state.users.size(),
                            telemetry::ShardedCapture::CaptureCursor{});
  }

  if (manifest->has_net) {
    auto net = logstore::read_file(dir + "/" + net_filename());
    if (!net) return net.error();
    if (crc32(net->data(), net->size()) != manifest->net_crc) {
      return Error::corrupt("snapshot net container CRC mismatch");
    }
    // Validate the container end to end now, not at resume time inside a
    // predictor factory that has no error channel.
    auto tensors = nn::deserialize_model(nn::kModelKindStallExitNet, *net);
    if (!tensors) return tensors.error();
    snapshot.net_model = std::move(*net);
  }

  for (std::size_t s = 0; s < manifest->shards.size(); ++s) {
    const auto& info = manifest->shards[s];
    const std::string path = dir + "/" + state_filename(s);
    auto bytes = logstore::read_file(path);
    if (!bytes) return bytes.error();
    if (bytes->size() != info.byte_count ||
        crc32(bytes->data(), bytes->size()) != info.crc) {
      return Error::corrupt("snapshot state file disagrees with manifest: " + path);
    }
    std::size_t shard_pos = 0;
    for (std::uint64_t u = info.first_user; u < info.first_user + info.user_count; ++u) {
      auto record = logstore::read_record(*bytes, shard_pos);
      if (!record) return record.error();
      if (record_type(*record) != kUserStateRecord) {
        return Error::corrupt("unexpected record type in snapshot state file");
      }
      auto user_state = decode_user_state(*record);
      if (!user_state) return user_state.error();
      if (user_state->first != u) {
        return Error::corrupt("snapshot user state out of order");
      }
      snapshot.state.users[static_cast<std::size_t>(u)] = std::move(user_state->second);
      if (manifest->has_capture) {
        auto cursor_record = logstore::read_record(*bytes, shard_pos);
        if (!cursor_record) return cursor_record.error();
        if (record_type(*cursor_record) != kCaptureCursorRecord) {
          return Error::corrupt("missing capture cursor record");
        }
        auto cursor = decode_capture_cursor(*cursor_record);
        if (!cursor) return cursor.error();
        if (cursor->first != u) return Error::corrupt("capture cursor out of order");
        snapshot.capture[static_cast<std::size_t>(u)] = std::move(cursor->second);
      }
    }
    if (shard_pos != bytes->size()) {
      return Error::corrupt("trailing bytes in snapshot state file: " + path);
    }
  }
  return snapshot;
}

Status check_compatible(const FleetSnapshot& snapshot, const sim::FleetConfig& config,
                        std::uint64_t seed) {
  if (snapshot.seed != seed) return Error::invalid_arg("snapshot seed mismatch");
  if (snapshot.state.users.size() != config.users) {
    return Error::invalid_arg("snapshot user count disagrees with fleet config");
  }
  if (snapshot.resume_digest != resume_digest(config)) {
    return Error::invalid_arg("snapshot config digest mismatch");
  }
  if (snapshot.state.next_day >= config.days) {
    return Error::invalid_arg("snapshot day boundary is past the configured horizon");
  }
  return {};
}

sim::FleetRunner::PredictorFactory resume_predictor_factory(
    sim::FleetRunner::PredictorFactory base, std::vector<unsigned char> net_model) {
  if (net_model.empty() || base == nullptr) return base;
  auto tensors = nn::deserialize_model(nn::kModelKindStallExitNet, net_model);
  // load_snapshot validated the container; a hand-built blob must be valid.
  LINGXI_ASSERT(tensors.has_value());
  auto weights = std::make_shared<std::vector<nn::Tensor>>(std::move(*tensors));
  return [base = std::move(base), weights]() {
    // base() may hand out a predictor sharing the caller's net, and every
    // worker calls the factory at once: clone before overwriting weights.
    predictor::HybridExitPredictor predictor = base().with_private_net();
    const bool loaded = predictor.net().load_weights(*weights);
    LINGXI_ASSERT(loaded);
    return predictor;
  };
}

Status restore_capture(telemetry::ShardedCapture& capture, const sim::FleetConfig& config,
                       const FleetSnapshot& snapshot) {
  if (!snapshot.has_capture) {
    return Error::invalid_arg("snapshot carries no capture state");
  }
  return restore_capture(capture, config, snapshot.seed, snapshot.capture);
}

Status restore_capture(telemetry::ShardedCapture& capture, const sim::FleetConfig& config,
                       std::uint64_t seed,
                       std::vector<telemetry::ShardedCapture::CaptureCursor> cursors) {
  if (cursors.size() != config.users) {
    return Error::invalid_arg("snapshot capture user count disagrees with fleet config");
  }
  capture.begin_fleet(config, seed);
  capture.restore_cursors(std::move(cursors));
  return {};
}

}  // namespace lingxi::snapshot
