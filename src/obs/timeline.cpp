#include "obs/timeline.h"

#include <atomic>
#include <utility>

#include "common/codec.h"

namespace lingxi::obs {
namespace {

// Frame layout (common/codec.h, timeline magic):
//   "LXTL" | u32 version | u32 payload_len | payload | u32 crc32(payload)
// All integers little-endian; doubles as the little-endian bit pattern. The
// ceiling is generous: a day record for a large registry is a few KiB.
constexpr codec::Frame kTimelineFrame{"timeline", "LXTL", 1, 64u << 20};

// Record types inside a frame payload.
constexpr std::uint32_t kRecSchema = 0;
constexpr std::uint32_t kRecDay = static_cast<std::uint32_t>(TimelineRecord::Type::kDay);
constexpr std::uint32_t kRecAlert = static_cast<std::uint32_t>(TimelineRecord::Type::kAlert);

// One metric inside a day-record section: name | kind | count | value |
// min | max | bounds[] | buckets[].
void encode_metric(codec::ByteWriter& out, const MetricSnapshot& m) {
  out.str(m.name);
  out.u32(static_cast<std::uint32_t>(m.kind));
  out.u64(m.count);
  out.f64(m.value);
  out.f64(m.min);
  out.f64(m.max);
  out.u32(static_cast<std::uint32_t>(m.bounds.size()));
  for (double b : m.bounds) out.f64(b);
  out.u32(static_cast<std::uint32_t>(m.buckets.size()));
  for (std::uint64_t c : m.buckets) out.u64(c);
}

// The smallest encoded metric: empty name, both arrays empty.
constexpr std::size_t kMinMetricBytes = 4 + 4 + 8 + 3 * 8 + 4 + 4;

void decode_metric(codec::ByteReader& in, MetricSnapshot& m) {
  m.name = in.str();
  const std::uint32_t kind = in.u32();
  if (kind > static_cast<std::uint32_t>(MetricKind::kHistogram)) in.fail();
  m.kind = static_cast<MetricKind>(kind);
  m.count = in.u64();
  m.value = in.f64();
  m.min = in.f64();
  m.max = in.f64();
  m.bounds.resize(in.count(sizeof(double)));
  for (double& b : m.bounds) b = in.f64();
  m.buckets.resize(in.count(sizeof(std::uint64_t)));
  for (std::uint64_t& c : m.buckets) c = in.u64();
}

// A metric section: u32 metric count, then each metric. The deterministic
// section's encoded bytes are exactly one of these — the unit of the
// bitwise-parity contract.
void encode_section(codec::ByteWriter& out, const std::vector<MetricSnapshot>& metrics) {
  out.u32(static_cast<std::uint32_t>(metrics.size()));
  for (const auto& m : metrics) encode_metric(out, m);
}

bool decode_section(codec::ByteReader& in, std::vector<MetricSnapshot>& out) {
  out.resize(in.count(kMinMetricBytes));
  for (auto& m : out) decode_metric(in, m);
  return in.ok();
}

std::atomic<TimelineWriter*> g_active{nullptr};

}  // namespace

bool timeline_deterministic(std::string_view name, MetricKind kind) {
  // Only the accumulator-derived fleet-day gauges are pure functions of
  // (config, seed, day). Counters reset on process restart, so a resumed
  // run's registry cannot reproduce them — they stay wall-clock.
  if (kind != MetricKind::kGauge) return false;
  if (name.substr(0, 10) != "sim.fleet.") return false;
  return name != "sim.fleet.sessions_per_sec";
}

TimelineWriter* TimelineWriter::active() noexcept {
  return g_active.load(std::memory_order_acquire);
}

void TimelineWriter::install(TimelineWriter* w) noexcept {
  g_active.store(w, std::memory_order_release);
}

TimelineWriter::TimelineWriter(const std::string& path) : path_(path) {
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) {
    status_ = Error::io("timeline: cannot open " + path);
    return;
  }
  std::vector<unsigned char> payload;
  codec::ByteWriter w(payload);
  w.u32(kRecSchema);
  w.str(kTimelineSchema);
  append_frame(payload);
}

TimelineWriter::~TimelineWriter() { close(); }

void TimelineWriter::append_frame(const std::vector<unsigned char>& payload) {
  if (!status_.ok() || closed_) return;
  std::vector<unsigned char> frame;
  kTimelineFrame.write(frame, payload);
  out_.write(reinterpret_cast<const char*>(frame.data()),
             static_cast<std::streamsize>(frame.size()));
  if (!out_) status_ = Error::io("timeline: write failed for " + path_);
}

void TimelineWriter::append_day(std::uint64_t day, const RegistrySnapshot& snapshot) {
  if (!status_.ok() || closed_) return;
  std::vector<MetricSnapshot> det;
  std::vector<MetricSnapshot> wall;
  for (const auto& m : snapshot.metrics) {
    (timeline_deterministic(m.name, m.kind) ? det : wall).push_back(m);
  }
  // Sections inherit the snapshot's sorted-name order, so the deterministic
  // bytes depend only on the metric values, not on partition order.
  std::vector<unsigned char> det_bytes;
  codec::ByteWriter det_writer(det_bytes);
  encode_section(det_writer, det);

  std::vector<unsigned char> payload;
  codec::ByteWriter w(payload);
  w.u32(kRecDay);
  w.u64(day);
  w.u32(static_cast<std::uint32_t>(det_bytes.size()));
  w.bytes(det_bytes);
  encode_section(w, wall);
  append_frame(payload);
  if (status_.ok()) ++days_written_;
}

void TimelineWriter::append_alert(const HealthAlert& alert) {
  if (!status_.ok() || closed_) return;
  std::vector<unsigned char> payload;
  codec::ByteWriter w(payload);
  w.u32(kRecAlert);
  w.u64(alert.day);
  w.str(alert.rule);
  w.str(alert.metric);
  w.f64(alert.observed);
  w.f64(alert.threshold);
  w.str(alert.message);
  append_frame(payload);
}

Status TimelineWriter::close() {
  if (closed_) return status_;
  closed_ = true;
  if (out_.is_open()) {
    out_.flush();
    if (!out_ && status_.ok()) status_ = Error::io("timeline: flush failed for " + path_);
    out_.close();
  }
  return status_;
}

Expected<TimelineReader> TimelineReader::open(const std::string& path) {
  auto file = std::make_shared<std::ifstream>(path, std::ios::binary);
  if (!*file) return Error::io("timeline: cannot open " + path);
  TimelineReader reader(std::move(file));
  // The first frame must be the schema header.
  if (!reader.has_next()) return Error::corrupt("timeline: empty file " + path);
  auto frame = kTimelineFrame.read(*reader.in_);
  if (!frame) return frame.error();
  codec::ByteReader in(*frame);
  const std::uint32_t type = in.u32();
  const std::string schema = in.str();
  if (!in.ok() || type != kRecSchema) {
    return Error::corrupt("timeline: missing schema header in " + path);
  }
  if (schema != kTimelineSchema) {
    return Error::corrupt("timeline: unknown schema '" + schema + "' in " + path);
  }
  return reader;
}

bool TimelineReader::has_next() {
  if (!in_ || !in_->good()) return false;
  return in_->peek() != std::ifstream::traits_type::eof();
}

Expected<TimelineRecord> TimelineReader::next() {
  auto frame = kTimelineFrame.read(*in_);
  if (!frame) return frame.error();
  codec::ByteReader in(*frame);
  const std::uint32_t type = in.u32();
  if (!in.ok()) return Error::corrupt("timeline: empty record payload");

  TimelineRecord rec;
  if (type == kRecDay) {
    rec.type = TimelineRecord::Type::kDay;
    rec.day = in.u64();
    const codec::ByteSpan det = in.bytes(in.u32());
    if (!in.ok()) {
      return Error::corrupt("timeline: day record deterministic section overruns frame");
    }
    rec.deterministic_bytes.assign(det.begin(), det.end());
    codec::ByteReader det_in(det);
    if (!decode_section(det_in, rec.deterministic) || !det_in.done()) {
      return Error::corrupt("timeline: malformed deterministic section");
    }
    if (!decode_section(in, rec.wallclock) || !in.done()) {
      return Error::corrupt("timeline: malformed wall-clock section");
    }
  } else if (type == kRecAlert) {
    rec.type = TimelineRecord::Type::kAlert;
    rec.day = in.u64();
    rec.alert.day = rec.day;
    rec.alert.rule = in.str();
    rec.alert.metric = in.str();
    rec.alert.observed = in.f64();
    rec.alert.threshold = in.f64();
    rec.alert.message = in.str();
    if (!in.done()) return Error::corrupt("timeline: malformed alert record");
  } else {
    return Error::corrupt("timeline: unknown record type " + std::to_string(type));
  }
  return rec;
}

Expected<std::vector<TimelineRecord>> TimelineReader::read_all() {
  std::vector<TimelineRecord> out;
  while (has_next()) {
    auto rec = next();
    if (!rec) return rec.error();
    out.push_back(std::move(*rec));
  }
  return out;
}

}  // namespace lingxi::obs
