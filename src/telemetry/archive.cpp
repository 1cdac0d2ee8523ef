#include "telemetry/archive.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/crc32.h"
#include "logstore/record.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace lingxi::telemetry {
namespace {

// Shard record type tags (leading u32 of every shard record payload).
constexpr std::uint32_t kSessionRecord = 1;
constexpr std::uint32_t kUserRecord = 2;

// Fixed prefix of a kSessionRecord after its type tag: user, day,
// session_in_day, measured, three QoE parameters. Range scans decode only
// this much before deciding whether to decode the embedded trajectory, which
// then decodes in place from the rest of the same reader.
bool decode_session_prefix(codec::ByteReader& in, ArchiveSessionRecord& rec) {
  rec.user = in.u64();
  rec.day = in.u32();
  rec.session_in_day = in.u32();
  rec.measured = in.flag();
  rec.params_after.stall_penalty = in.f64();
  rec.params_after.switch_penalty = in.f64();
  rec.params_after.hyb_beta = in.f64();
  return in.ok();
}

Expected<ArchiveUserRecord> decode_user_record(codec::ByteReader& in) {
  ArchiveUserRecord rec;
  rec.user = in.u64();
  rec.tolerable_stall = in.f64();
  rec.adjusted_days = in.u64();
  rec.stats.triggers = in.u64();
  rec.stats.optimizations_run = in.u64();
  rec.stats.pruned_preplay = in.u64();
  rec.stats.mc_evaluations = in.u64();
  rec.stats.mc_rollouts_pruned = in.u64();
  if (!in.done()) return Error::corrupt("malformed user record");
  return rec;
}

}  // namespace

std::vector<unsigned char> ArchiveManifest::encode() const {
  std::vector<unsigned char> p;
  codec::ByteWriter out(p);
  out.u32(kArchiveFormatVersion);
  out.u64(seed);
  out.u32(config_digest);
  out.u64(users);
  out.u64(days);
  out.u64(sessions_per_user_day);
  out.u64(warmup_sessions);
  out.u64(intervention_day);
  out.flag(enable_lingxi);
  out.u64(users_per_shard);
  out.u64(shards.size());
  for (const auto& shard : shards) {
    out.u64(shard.first_user);
    out.u64(shard.user_count);
    out.u64(shard.record_count);
    out.u64(shard.byte_count);
  }
  return p;
}

Expected<ArchiveManifest> ArchiveManifest::decode(codec::ByteSpan payload) {
  codec::ByteReader in(payload);
  ArchiveManifest m;
  const std::uint32_t format = in.u32();
  m.seed = in.u64();
  m.config_digest = in.u32();
  m.users = in.u64();
  m.days = in.u64();
  m.sessions_per_user_day = in.u64();
  m.warmup_sessions = in.u64();
  m.intervention_day = in.u64();
  m.enable_lingxi = in.flag();
  m.users_per_shard = in.u64();
  const std::uint64_t shard_count = in.count64(sizeof(std::uint64_t) * 4);
  if (!in.ok()) return Error::corrupt("truncated archive manifest or shard index");
  if (format != kArchiveFormatVersion) {
    return Error::corrupt("unsupported archive format version");
  }
  if (shard_count > (1u << 20)) return Error::corrupt("shard count out of range");
  m.shards.resize(shard_count);
  for (auto& shard : m.shards) {
    shard.first_user = in.u64();
    shard.user_count = in.u64();
    shard.record_count = in.u64();
    shard.byte_count = in.u64();
  }
  if (!in.done()) return Error::corrupt("malformed archive manifest");
  return m;
}

std::uint32_t config_digest(const sim::FleetConfig& config) {
  // The result-shaping scalar knobs of every sub-config, in declaration
  // order; scheduling knobs (threads, users_per_shard) deliberately excluded
  // so equal results hash equal. Custom user/abr/predictor factories are
  // code, not config, and cannot be hashed — archives produced with
  // different factories but equal configs share a digest.
  std::vector<unsigned char> p;
  codec::ByteWriter out(p);
  out.u64(config.users);
  out.u64(config.days);
  out.u64(config.sessions_per_user_day);
  out.u64(config.warmup_sessions);
  out.u64(config.intervention_day);
  out.flag(config.enable_lingxi);
  out.flag(config.drift_user_tolerance);
  out.f64(config.session_jitter_sigma);
  for (const abr::QoeParams* params : {&config.fixed_params, &config.lingxi.default_params}) {
    out.f64(params->stall_penalty);
    out.f64(params->switch_penalty);
    out.f64(params->hyb_beta);
  }
  // Population mixture (user::UserPopulation::Config).
  for (double f : {config.population.sensitive_fraction, config.population.threshold_fraction,
                   config.population.insensitive_fraction,
                   config.population.low_tolerance_fraction,
                   config.population.mid_tolerance_fraction,
                   config.population.high_tolerance_fraction,
                   config.population.very_high_tolerance_fraction,
                   config.population.stable_fraction, config.population.moderate_fraction}) {
    out.f64(f);
  }
  // Network world (trace::PopulationModel::Config).
  for (double f : {config.network.median_bandwidth, config.network.sigma,
                   config.network.min_bandwidth, config.network.max_bandwidth,
                   config.network.relative_sd, config.network.rho}) {
    out.f64(f);
  }
  // Video world (trace::VideoGenerator::Config), ladder included.
  for (Kbps bitrate : config.video.ladder.bitrates()) out.f64(bitrate);
  for (double f : {config.video.mean_duration, config.video.min_duration,
                   config.video.max_duration, config.video.segment_duration,
                   config.video.duration_sigma, config.video.vbr_sigma}) {
    out.f64(f);
  }
  // LingXi controller knobs that move the assigned parameters.
  out.flag(config.lingxi.space.optimize_stall);
  out.flag(config.lingxi.space.optimize_switch);
  out.flag(config.lingxi.space.optimize_beta);
  for (double f : {config.lingxi.space.stall_min, config.lingxi.space.stall_max,
                   config.lingxi.space.switch_min, config.lingxi.space.switch_max,
                   config.lingxi.space.beta_min, config.lingxi.space.beta_max}) {
    out.f64(f);
  }
  out.u64(config.lingxi.trigger_stall_threshold);
  out.u64(config.lingxi.obo_rounds);
  out.u64(config.lingxi.monte_carlo.samples);
  out.f64(config.lingxi.monte_carlo.sample_duration);
  out.flag(config.lingxi.enable_preplay_pruning);
  out.f64(config.lingxi.rollout_rho);
  out.f64(config.lingxi.rollout_pessimism);
  out.f64(config.lingxi.adoption_margin);
  // Session simulator / player.
  const sim::SessionSimulator::Config& session = config.session;
  out.u64(session.throughput_window);
  out.f64(session.stall_event_threshold);
  out.flag(session.adaptive_buffer_max);
  for (double f : {session.player.rtt, session.player.base_buffer_max,
                   session.player.min_buffer_max, session.player.max_buffer_max,
                   session.player.reference_bandwidth, session.player.startup_buffer}) {
    out.f64(f);
  }
  // Scenario script — every event, in script order, so archives and
  // snapshots pin the exact world the run simulated and a resumed leg can
  // only splice onto the same script. GATED on a non-empty script: empty
  // scripts hash byte-identically to pre-scenario digests, keeping every
  // existing archive and snapshot readable.
  if (!config.scenario.empty()) {
    const auto put_cohort = [&out](const scenario::Cohort& cohort) {
      out.u64(cohort.first_user);
      out.u64(cohort.last_user);
      out.u64(cohort.stride);
      out.u64(cohort.phase);
    };
    out.u64(config.scenario.shocks.size());
    for (const auto& shock : config.scenario.shocks) {
      put_cohort(shock.cohort);
      out.u64(shock.first_day);
      out.u64(shock.last_day);
      out.f64(shock.bandwidth_scale);
      out.f64(shock.sd_scale);
    }
    out.u64(config.scenario.curves.size());
    for (const auto& curve : config.scenario.curves) {
      put_cohort(curve.cohort);
      out.u64(curve.multipliers.size());
      for (double m : curve.multipliers) out.f64(m);
    }
    out.u64(config.scenario.flash_crowds.size());
    for (const auto& crowd : config.scenario.flash_crowds) {
      put_cohort(crowd.cohort);
      out.u64(crowd.arrival_day);
    }
    out.u64(config.scenario.churns.size());
    for (const auto& churn : config.scenario.churns) {
      put_cohort(churn.cohort);
      out.u64(churn.day);
    }
    out.u64(config.scenario.cohorts.size());
    for (const auto& cohort : config.scenario.cohorts) {
      put_cohort(cohort.cohort);
      for (double f :
           {cohort.population.sensitive_fraction, cohort.population.threshold_fraction,
            cohort.population.insensitive_fraction, cohort.population.low_tolerance_fraction,
            cohort.population.mid_tolerance_fraction, cohort.population.high_tolerance_fraction,
            cohort.population.very_high_tolerance_fraction, cohort.population.stable_fraction,
            cohort.population.moderate_fraction}) {
        out.f64(f);
      }
    }
  }
  return crc32(p.data(), p.size());
}

std::string manifest_filename() { return "manifest.lxa"; }

std::string shard_filename(std::size_t shard_index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%04zu.lxs", shard_index);
  return buf;
}

std::vector<unsigned char> encode_session_record(const ArchiveSessionRecord& rec) {
  std::vector<unsigned char> p;
  codec::ByteWriter out(p);
  out.u32(kSessionRecord);
  out.u64(rec.user);
  out.u32(rec.day);
  out.u32(rec.session_in_day);
  out.flag(rec.measured);
  out.f64(rec.params_after.stall_penalty);
  out.f64(rec.params_after.switch_penalty);
  out.f64(rec.params_after.hyb_beta);
  logstore::encode_session(out, rec.entry);
  return p;
}

std::vector<unsigned char> encode_user_record(const ArchiveUserRecord& rec) {
  std::vector<unsigned char> p;
  codec::ByteWriter out(p);
  out.u32(kUserRecord);
  out.u64(rec.user);
  out.f64(rec.tolerable_stall);
  out.u64(rec.adjusted_days);
  out.u64(rec.stats.triggers);
  out.u64(rec.stats.optimizations_run);
  out.u64(rec.stats.pruned_preplay);
  out.u64(rec.stats.mc_evaluations);
  out.u64(rec.stats.mc_rollouts_pruned);
  return p;
}

Status FleetArchive::write(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Error::io("cannot create archive directory: " + dir);
  std::vector<unsigned char> manifest_bytes;
  logstore::kRecordFrame.write(manifest_bytes, manifest.encode());
  if (auto s = logstore::write_file(dir + "/" + manifest_filename(), manifest_bytes); !s) {
    return s;
  }
  for (std::size_t i = 0; i < shards.size(); ++i) {
    OBS_TIMED("telemetry.archive.shard_write_us");
    if (auto s = logstore::write_file(dir + "/" + shard_filename(i), shards[i]); !s) {
      return s;
    }
    if (obs::Registry* reg = obs::Registry::active()) {
      reg->add("telemetry.archive.shards_written");
      reg->add("telemetry.archive.bytes_written", shards[i].size());
    }
  }
  return {};
}

std::uint32_t FleetArchive::checksum() const {
  const auto manifest_payload = manifest.encode();
  std::uint32_t crc = crc32(manifest_payload.data(), manifest_payload.size());
  for (const auto& shard : shards) {
    // Chain per-shard CRCs through a fixed 8-byte block instead of copying
    // shard bytes: crc32(crc_so_far || crc32(shard)).
    std::vector<unsigned char> link;
    codec::ByteWriter out(link);
    out.u32(crc);
    out.u32(crc32(shard.data(), shard.size()));
    crc = crc32(link.data(), link.size());
  }
  return crc;
}

std::uint64_t FleetArchive::total_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  return total;
}

namespace {

/// A structurally valid manifest whose shard table does not actually cover
/// the users it claims would make every scan silently yield nothing (each
/// scan iterates the shard table, so missing coverage is skipped, not
/// reported). Reject it at open() instead: the shard ranges must tile
/// [0, users) contiguously in order.
Status validate_manifest(const ArchiveManifest& manifest) {
  std::uint64_t next_user = 0;
  for (const auto& shard : manifest.shards) {
    if (shard.first_user != next_user) {
      return Error::corrupt("archive shard table does not tile the user range");
    }
    if (shard.user_count == 0) {
      return Error::corrupt("archive shard table has an empty shard");
    }
    next_user += shard.user_count;
  }
  if (next_user != manifest.users) {
    return Error::corrupt("archive shard table disagrees with manifest user count");
  }
  return {};
}

}  // namespace

Expected<ArchiveReader> ArchiveReader::open(const std::string& dir) {
  auto bytes = logstore::read_file(dir + "/" + manifest_filename());
  if (!bytes) return bytes.error();
  codec::ByteReader in(*bytes);
  auto payload = logstore::kRecordFrame.read(in);
  if (!payload) return payload.error();
  if (!in.done()) return Error::corrupt("trailing bytes after archive manifest");
  auto manifest = ArchiveManifest::decode(*payload);
  if (!manifest) return manifest.error();
  if (auto s = validate_manifest(*manifest); !s) return s.error();
  return ArchiveReader(dir, std::move(*manifest));
}

Status ArchiveReader::scan(const SessionCallback& on_session,
                           const UserCallback& on_user) const {
  return scan_users(0, manifest_.users == 0 ? 0 : manifest_.users - 1, on_session, on_user);
}

Status ArchiveReader::scan_users(std::uint64_t first_user, std::uint64_t last_user,
                                 const SessionCallback& on_session,
                                 const UserCallback& on_user) const {
  for (std::size_t i = 0; i < manifest_.shards.size(); ++i) {
    const auto& shard = manifest_.shards[i];
    if (shard.user_count == 0) continue;
    const std::uint64_t shard_last = shard.first_user + shard.user_count - 1;
    if (shard_last < first_user || shard.first_user > last_user) continue;
    if (auto s = scan_shard(i, first_user, last_user, 0, ~0u, on_session, on_user); !s) {
      return s;
    }
  }
  return {};
}

Status ArchiveReader::scan_days(std::uint32_t first_day, std::uint32_t last_day,
                                const SessionCallback& on_session) const {
  for (std::size_t i = 0; i < manifest_.shards.size(); ++i) {
    if (auto s = scan_shard(i, 0, ~0ULL, first_day, last_day, on_session, nullptr); !s) {
      return s;
    }
  }
  return {};
}

Status ArchiveReader::scan_shard(std::size_t shard_index, std::uint64_t first_user,
                                 std::uint64_t last_user, std::uint32_t first_day,
                                 std::uint32_t last_day, const SessionCallback& on_session,
                                 const UserCallback& on_user) const {
  const ArchiveShardInfo& shard = manifest_.shards[shard_index];
  // A record must belong to its shard's user range; one that does not would
  // otherwise be dropped or delivered from the wrong file without notice.
  const auto outside_shard = [&shard](std::uint64_t user) {
    return user < shard.first_user || user - shard.first_user >= shard.user_count;
  };
  const std::string path = dir_ + "/" + shard_filename(shard_index);
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error::io("cannot open archive shard: " + path);
  std::uint64_t records = 0;
  while (in.peek() != std::char_traits<char>::eof()) {
    auto payload = logstore::kRecordFrame.read(in);
    if (!payload) return payload.error();
    ++records;
    codec::ByteReader record(*payload);
    switch (record.u32()) {
      case kSessionRecord: {
        ArchiveSessionRecord rec;
        if (!decode_session_prefix(record, rec)) {
          return Error::corrupt("truncated session record prefix");
        }
        if (outside_shard(rec.user)) return Error::corrupt("record outside its shard: " + path);
        if (rec.user < first_user || rec.user > last_user) break;
        if (rec.day < first_day || rec.day > last_day) break;
        if (!on_session) break;
        auto entry = logstore::decode_session(record.rest());
        if (!entry) return entry.error();
        rec.entry = std::move(*entry);
        on_session(rec);
        break;
      }
      case kUserRecord: {
        auto rec = decode_user_record(record);
        if (!rec) return rec.error();
        if (outside_shard(rec->user)) return Error::corrupt("record outside its shard: " + path);
        if (rec->user < first_user || rec->user > last_user) break;
        if (on_user) on_user(*rec);
        break;
      }
      default:
        return Error::corrupt("unknown telemetry record type");
    }
  }
  // peek() returning EOF means either a clean end-of-stream or an I/O error
  // mid-scan (a failing read also trips eofbit on some libs, so check badbit
  // and an eof-less failbit explicitly): only the former may fall through to
  // the record-count check, otherwise a truncated-by-IO shard could
  // masquerade as a clean-but-short one.
  if (in.bad() || (in.fail() && !in.eof())) {
    return Error::io("archive shard stream failed mid-scan: " + path);
  }
  if (records != shard.record_count) {
    return Error::corrupt("shard record count disagrees with manifest: " + path);
  }
  return {};
}

}  // namespace lingxi::telemetry
