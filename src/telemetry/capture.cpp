#include "telemetry/capture.h"

#include <algorithm>

#include "common/assert.h"
#include "logstore/record.h"

namespace lingxi::telemetry {

namespace {
constexpr std::uint64_t kSecondsPerDay = 86400;
}

ShardedCapture::ShardedCapture() : ShardedCapture(Config{}) {}

ShardedCapture::ShardedCapture(Config config) : config_(config) {
  LINGXI_ASSERT(config_.users_per_shard > 0);
}

void ShardedCapture::begin_fleet(const sim::FleetConfig& config, std::uint64_t seed) {
  manifest_ = ArchiveManifest{};
  manifest_.seed = seed;
  manifest_.config_digest = config_digest(config);
  manifest_.users = config.users;
  manifest_.days = config.days;
  manifest_.sessions_per_user_day = config.sessions_per_user_day;
  manifest_.warmup_sessions = config.warmup_sessions;
  manifest_.intervention_day = config.intervention_day;
  manifest_.enable_lingxi = config.enable_lingxi;
  manifest_.users_per_shard = config_.users_per_shard;
  users_.assign(config.users, CaptureCursor{});
}

void ShardedCapture::record_session(const SessionContext& ctx,
                                    const sim::SessionResult& session) {
  LINGXI_ASSERT(ctx.user_index < users_.size());
  ArchiveSessionRecord rec;
  rec.user = ctx.user_index;
  rec.day = static_cast<std::uint32_t>(ctx.day);
  rec.session_in_day = static_cast<std::uint32_t>(ctx.session_in_day);
  rec.measured = ctx.measured;
  rec.params_after = ctx.params_after;
  rec.entry.user_id = ctx.user_index;
  rec.entry.timestamp = ctx.day * kSecondsPerDay + ctx.session_in_day;
  rec.entry.video_duration = ctx.video_duration;
  rec.entry.session = session;
  CaptureCursor& buffer = users_[ctx.user_index];
  // Cross-user waves interleave users, never one user's sessions: records
  // for a user must arrive in strictly increasing (day, session) order or
  // the archive bytes would depend on the schedule.
  const std::uint64_t at =
      (static_cast<std::uint64_t>(ctx.day) << 32) | static_cast<std::uint64_t>(ctx.session_in_day);
  LINGXI_DASSERT(at >= buffer.next_expected_at_least);
  buffer.next_expected_at_least = at + 1;
  logstore::kRecordFrame.write(buffer.bytes, encode_session_record(rec));
  ++buffer.records;
}

void ShardedCapture::record_user(const UserTelemetry& user) {
  LINGXI_ASSERT(user.user_index < users_.size());
  ArchiveUserRecord rec;
  rec.user = user.user_index;
  rec.tolerable_stall = user.tolerable_stall;
  rec.adjusted_days = user.adjusted_days;
  rec.stats = user.stats;
  CaptureCursor& buffer = users_[user.user_index];
  logstore::kRecordFrame.write(buffer.bytes, encode_user_record(rec));
  ++buffer.records;
}

FleetArchive ShardedCapture::finish() const {
  FleetArchive archive;
  archive.manifest = manifest_;
  const std::size_t shard_count =
      (users_.size() + config_.users_per_shard - 1) / config_.users_per_shard;
  archive.manifest.shards.resize(shard_count);
  archive.shards.resize(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::size_t first = s * config_.users_per_shard;
    const std::size_t last = std::min(first + config_.users_per_shard, users_.size());
    auto& info = archive.manifest.shards[s];
    auto& bytes = archive.shards[s];
    info.first_user = first;
    info.user_count = last - first;
    for (std::size_t u = first; u < last; ++u) {
      bytes.insert(bytes.end(), users_[u].bytes.begin(), users_[u].bytes.end());
      info.record_count += users_[u].records;
    }
    info.byte_count = bytes.size();
  }
  return archive;
}

void ShardedCapture::restore_cursors(std::vector<CaptureCursor> cursors) {
  LINGXI_ASSERT(cursors.size() == users_.size());
  users_ = std::move(cursors);
}

std::size_t ShardedCapture::session_count() const noexcept {
  std::size_t sessions = 0;
  // One of each user's records is the user summary; the rest are sessions.
  for (const auto& user : users_) {
    sessions += user.records > 0 ? user.records - 1 : 0;
  }
  return sessions;
}

}  // namespace lingxi::telemetry
