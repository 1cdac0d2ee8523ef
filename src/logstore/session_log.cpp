#include "logstore/session_log.h"

#include "logstore/record.h"

namespace lingxi::logstore {

bool SessionLogEntry::operator==(const SessionLogEntry& other) const {
  if (user_id != other.user_id || timestamp != other.timestamp ||
      video_duration != other.video_duration || session.exited != other.session.exited ||
      session.watch_time != other.session.watch_time ||
      session.stall_events != other.session.stall_events ||
      session.quality_switches != other.session.quality_switches ||
      session.mean_bitrate != other.session.mean_bitrate ||
      session.segments.size() != other.session.segments.size()) {
    return false;
  }
  for (std::size_t i = 0; i < session.segments.size(); ++i) {
    const auto& a = session.segments[i];
    const auto& b = other.session.segments[i];
    if (a.level != b.level || a.bitrate != b.bitrate || a.size != b.size ||
        a.throughput != b.throughput || a.download_time != b.download_time ||
        a.stall_time != b.stall_time || a.buffer_after != b.buffer_after) {
      return false;
    }
  }
  return true;
}

void encode_session(codec::ByteWriter& out, const SessionLogEntry& entry) {
  out.u64(entry.user_id);
  out.u64(entry.timestamp);
  out.f64(entry.video_duration);
  out.flag(entry.session.exited);
  out.f64(entry.session.watch_time);
  out.f64(entry.session.startup_delay);
  out.f64(entry.session.total_stall);
  out.u32(static_cast<std::uint32_t>(entry.session.stall_events));
  out.u32(static_cast<std::uint32_t>(entry.session.quality_switches));
  out.f64(entry.session.mean_bitrate);
  out.u32(static_cast<std::uint32_t>(entry.session.segments.size()));
  for (const auto& seg : entry.session.segments) {
    out.u32(static_cast<std::uint32_t>(seg.level));
    out.f64(seg.position);
    out.f64(seg.bitrate);
    out.f64(seg.size);
    out.f64(seg.throughput);
    out.f64(seg.download_time);
    out.f64(seg.stall_time);
    out.f64(seg.buffer_before);
    out.f64(seg.buffer_after);
    out.f64(seg.cumulative_stall);
    out.u32(static_cast<std::uint32_t>(seg.cumulative_stall_events));
  }
}

Expected<SessionLogEntry> decode_session(codec::ByteSpan payload) {
  // One encoded segment: level, nine f64 fields, cumulative stall events.
  constexpr std::size_t kSegmentBytes = 4 + 9 * 8 + 4;
  codec::ByteReader in(payload);
  SessionLogEntry e;
  e.user_id = in.u64();
  e.timestamp = in.u64();
  e.video_duration = in.f64();
  e.session.exited = in.flag();
  e.session.watch_time = in.f64();
  e.session.startup_delay = in.f64();
  e.session.total_stall = in.f64();
  e.session.stall_events = in.u32();
  e.session.quality_switches = in.u32();
  e.session.mean_bitrate = in.f64();
  const std::uint32_t count = in.count(kSegmentBytes);
  if (!in.ok()) return Error::corrupt("truncated session header or segment count");
  if (count > 1u << 20) return Error::corrupt("segment count out of range");
  e.session.segments.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    auto& seg = e.session.segments[i];
    seg.index = i;
    seg.level = in.u32();
    seg.position = in.f64();
    seg.bitrate = in.f64();
    seg.size = in.f64();
    seg.throughput = in.f64();
    seg.download_time = in.f64();
    seg.stall_time = in.f64();
    seg.buffer_before = in.f64();
    seg.buffer_after = in.f64();
    seg.cumulative_stall = in.f64();
    seg.cumulative_stall_events = in.u32();
  }
  if (!in.done()) return Error::corrupt("malformed session payload");
  return e;
}

void SessionLogWriter::append(const SessionLogEntry& entry) {
  std::vector<unsigned char> payload;
  codec::ByteWriter out(payload);
  encode_session(out, entry);
  kRecordFrame.write(bytes_, payload);
  ++entries_;
}

Status SessionLogWriter::save(const std::string& path) const {
  return write_file(path, bytes_);
}

Expected<std::vector<SessionLogEntry>> SessionLogReader::read_bytes(codec::ByteSpan bytes) {
  std::vector<SessionLogEntry> entries;
  codec::ByteReader in(bytes);
  while (in.remaining() > 0) {
    auto payload = kRecordFrame.read(in);
    if (!payload) return payload.error();
    auto entry = decode_session(*payload);
    if (!entry) return entry.error();
    entries.push_back(std::move(*entry));
  }
  return entries;
}

Expected<std::vector<SessionLogEntry>> SessionLogReader::load(const std::string& path) {
  auto bytes = read_file(path);
  if (!bytes) return bytes.error();
  return read_bytes(*bytes);
}

}  // namespace lingxi::logstore
