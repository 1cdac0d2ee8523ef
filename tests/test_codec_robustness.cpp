// Hostile-input and seeded-mutation tests for every binary decoder built on
// common/codec.h: LXNN/LXNC nets, LXTL timelines, the LXRC session log,
// state store, telemetry archive and fleet snapshot, and the per-user and
// OBO state payloads. (common/json is text and has its own parse tests.)
//
// The property, for every input: the decoder does not crash; it returns
// Error::kCorrupt, or a decode that re-encodes to the same bytes where the
// format has an encoder; and no single allocation exceeds 16 x the input
// size + 4 KiB. The replacement global operator new below, local to this
// test binary, measures allocations. File-backed readers (timeline, archive,
// snapshot) are also allowed the BUFSIZ buffer std::ifstream allocates when
// it opens a file.
//
// Mutations are seeded, with a fixed budget per format: bit flips,
// truncations, and overwrites of a u32/u64 field with a boundary value (0,
// 1, 2^20, 2^24, 2^32 - 1, 2^61, ...), the edit that turns a count or a
// length into a hostile one. Framed inputs are mutated inside one frame's
// payload and re-framed with codec::Frame (nets get their trailing CRCs
// re-stamped), so the payload decoder runs rather than the CRC check
// rejecting every mutant. A quarter of the mutants hit the raw bytes
// instead, to exercise the frame layer itself.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "abr/hyb.h"
#include "bayesopt/obo.h"
#include "common/codec.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "logstore/record.h"
#include "logstore/session_log.h"
#include "logstore/state_store.h"
#include "nn/serialize.h"
#include "obs/timeline.h"
#include "sim/fleet_runner.h"
#include "snapshot/snapshot.h"
#include "telemetry/archive.h"
#include "telemetry/capture.h"

namespace {

std::atomic<bool> g_tracking{false};
std::atomic<std::size_t> g_largest{0};

void note_allocation(std::size_t n) noexcept {
  if (!g_tracking.load(std::memory_order_relaxed)) return;
  std::size_t seen = g_largest.load(std::memory_order_relaxed);
  while (n > seen && !g_largest.compare_exchange_weak(seen, n, std::memory_order_relaxed)) {
  }
}

}  // namespace

// The replacements pair malloc with free throughout; GCC cannot see that
// across the inlined sized-delete forms.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  note_allocation(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lingxi {
namespace {

using Bytes = std::vector<unsigned char>;
/// A format's input: one blob, or the files of an archive/snapshot directory.
using Files = std::vector<Bytes>;

constexpr std::size_t kMutantsPerFormat = 2000;
constexpr codec::Frame kTimelineFrame{"timeline", "LXTL", 1, 64u << 20};

/// The largest single allocation made while `fn` runs.
template <typename Fn>
std::size_t largest_allocation(Fn&& fn) {
  g_largest.store(0);
  g_tracking.store(true);
  fn();
  g_tracking.store(false);
  return g_largest.load();
}

std::size_t total_size(const Files& files) {
  std::size_t n = 0;
  for (const Bytes& f : files) n += f.size();
  return n;
}

std::size_t allocation_bound(std::size_t input_bytes, bool file_backed) {
  return 16 * input_bytes + 4096 + (file_backed ? BUFSIZ : 0);
}

std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/lingxi_codec_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void write_raw(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

Bytes read_raw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

std::vector<Bytes> split_frames(const codec::Frame& frame, const Bytes& bytes) {
  std::vector<Bytes> payloads;
  codec::ByteReader in(bytes);
  while (in.remaining() > 0) {
    auto payload = frame.read(in);
    if (!payload) break;
    payloads.emplace_back(payload->begin(), payload->end());
  }
  return payloads;
}

Bytes join_frames(const codec::Frame& frame, const std::vector<Bytes>& payloads) {
  Bytes out;
  for (const Bytes& p : payloads) frame.write(out, p);
  return out;
}

std::uint64_t load_le(const Bytes& b, std::size_t at, std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i) v |= static_cast<std::uint64_t>(b[at + i]) << (8 * i);
  return v;
}

void store_le(Bytes& b, std::size_t at, std::size_t width, std::uint64_t v) {
  for (std::size_t i = 0; i < width; ++i) b[at + i] = static_cast<unsigned char>(v >> (8 * i));
}

/// Seeded byte mutator: bit flip, truncation or a boundary-value field edit.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }
  bool one_in(std::size_t n) { return below(n) == 0; }

  Bytes mutate(Bytes b) {
    if (b.empty()) return b;
    switch (below(3)) {
      case 0:
        b[below(b.size())] ^= static_cast<unsigned char>(1u << below(8));
        break;
      case 1:
        b.resize(below(b.size()));
        break;
      default:
        edit_field(b);
    }
    return b;
  }

 private:
  void edit_field(Bytes& b) {
    const std::size_t width = b.size() >= 8 && one_in(2) ? 8 : 4;
    if (b.size() < width) {
      b[below(b.size())] ^= 0x80;
      return;
    }
    static constexpr std::uint64_t kBoundary[] = {
        0, 1, 2, 3, 0x7f, 0xff, 0x100, 0xffff, 1u << 20, 1u << 24, 0x7fffffff, 0xffffffff,
        1ULL << 32, 1ULL << 61, ~0ULL};
    const std::size_t at = below(b.size() - width + 1);
    const std::uint64_t old = load_le(b, at, width);
    std::uint64_t v = 0;
    switch (below(4)) {
      case 0:
        v = old + 1;
        break;
      case 1:
        v = old - 1;
        break;
      case 2:
        v = b.size();
        break;
      default:
        v = kBoundary[below(std::size(kBoundary))];
    }
    store_le(b, at, width, v);
  }

  Rng rng_;
};

/// Mutates one frame's payload and re-frames every frame (or, one time in
/// four, mutates the raw framed bytes).
Bytes mutate_framed(const codec::Frame& frame, const Bytes& valid, Mutator& m) {
  if (m.one_in(4)) return m.mutate(valid);
  std::vector<Bytes> payloads = split_frames(frame, valid);
  Bytes& target = payloads[m.below(payloads.size())];
  target = m.mutate(target);
  return join_frames(frame, payloads);
}

/// Re-stamps an nn blob's trailing CRC over the bytes between magic and CRC.
void restamp_nn(Bytes& b) {
  if (b.size() < 8) return;
  store_le(b, b.size() - 4, 4, crc32(b.data() + 4, b.size() - 8));
}

/// What decoding one input produced: an error, or the input re-encoded from
/// the decoded value (nullopt where the format has no encoder to check).
struct Decoded {
  std::optional<Error> error;
  std::optional<Files> reencoded;
};

Decoded failed(const Error& e) { return {e, std::nullopt}; }

struct Format {
  std::string name;
  Files valid;
  std::function<Files(const Files&, Mutator&)> mutate;
  /// File-backed formats write the input to disk first, outside the hook.
  std::function<void(const Files&)> stage;
  std::function<Decoded(const Files&)> decode;
  bool file_backed = false;
};

Decoded decode_tracked(const Format& format, const Files& input, std::size_t& largest) {
  if (format.stage) format.stage(input);
  Decoded result;
  largest = largest_allocation([&] { result = format.decode(input); });
  return result;
}

/// Decodes `input` under the allocation hook and checks the property;
/// returns whether it held.
bool expect_property(const Format& format, const Files& input, const std::string& label) {
  std::size_t largest = 0;
  const Decoded result = decode_tracked(format, input, largest);
  const std::size_t bound = allocation_bound(total_size(input), format.file_backed);
  const bool bounded = largest <= bound;
  EXPECT_TRUE(bounded) << label << ": largest allocation " << largest << " > " << bound;
  bool decoded = true;
  if (result.error) {
    decoded = result.error->code == Error::Code::kCorrupt;
    EXPECT_TRUE(decoded) << label << ": " << result.error->message;
  } else if (result.reencoded) {
    decoded = *result.reencoded == input;
    EXPECT_TRUE(decoded) << label << ": decode does not re-encode identically";
  }
  return bounded && decoded;
}

void run_mutants(const Format& format, std::uint64_t seed) {
  std::size_t largest = 0;
  const Decoded valid = decode_tracked(format, format.valid, largest);
  ASSERT_FALSE(valid.error.has_value()) << format.name << ": " << valid.error->message;
  ASSERT_TRUE(!valid.reencoded || *valid.reencoded == format.valid) << format.name;
  Mutator m(seed);
  for (std::size_t i = 0; i < kMutantsPerFormat; ++i) {
    const std::string label = format.name + " mutant " + std::to_string(i);
    if (!expect_property(format, format.mutate(format.valid, m), label)) {
      return;  // one report, not thousands
    }
  }
}

Files single(Bytes b) { return Files{std::move(b)}; }

// ---------------------------------------------------------------------------
// Valid encodings and their decoders.
// ---------------------------------------------------------------------------

std::vector<nn::Tensor> fixed_tensors() {
  return {nn::Tensor::vector({1.5, -2.5, 3.25}),
          nn::Tensor({2, 3}, {1.0, -0.0, 0.125, 1e300, -7.75, 2.0}),
          nn::Tensor({2, 1, 2}, {0.5, 0.25, -1.0, 4.0})};
}

std::vector<const nn::Tensor*> pointers(const std::vector<nn::Tensor>& tensors) {
  std::vector<const nn::Tensor*> out;
  for (const auto& t : tensors) out.push_back(&t);
  return out;
}

Format nn_blob_format() {
  Format f;
  f.name = "LXNN";
  const auto tensors = fixed_tensors();
  f.valid = single(nn::serialize_tensors(pointers(tensors)));
  f.mutate = [](const Files& valid, Mutator& m) {
    const bool raw = m.one_in(4);
    Bytes b = m.mutate(valid[0]);
    if (!raw) restamp_nn(b);
    return single(std::move(b));
  };
  f.decode = [](const Files& in) -> Decoded {
    auto tensors = nn::deserialize_tensors(in[0]);
    if (!tensors) return failed(tensors.error());
    return {std::nullopt, single(nn::serialize_tensors(pointers(*tensors)))};
  };
  return f;
}

Format nn_container_format() {
  Format f;
  f.name = "LXNC";
  const auto tensors = fixed_tensors();
  f.valid = single(nn::serialize_model(nn::kModelKindStallExitNet, pointers(tensors)));
  f.mutate = [](const Files& valid, Mutator& m) {
    const bool raw = m.one_in(4);
    Bytes b = m.mutate(valid[0]);
    if (!raw) {
      // magic | u32 version | u32 kind | u64 blob_len | blob | crc: re-stamp
      // the inner blob's CRC too when its length still fits.
      if (b.size() >= 24) {
        const std::uint64_t blob_len = load_le(b, 12, 8);
        if (blob_len >= 8 && blob_len <= b.size() - 24) {
          Bytes blob(b.begin() + 20, b.begin() + 20 + static_cast<long>(blob_len));
          restamp_nn(blob);
          std::copy(blob.begin(), blob.end(), b.begin() + 20);
        }
      }
      restamp_nn(b);
    }
    return single(std::move(b));
  };
  f.decode = [](const Files& in) -> Decoded {
    auto tensors = nn::deserialize_model(nn::kModelKindStallExitNet, in[0]);
    if (!tensors) return failed(tensors.error());
    return {std::nullopt,
            single(nn::serialize_model(nn::kModelKindStallExitNet, pointers(*tensors)))};
  };
  return f;
}

Format timeline_format() {
  obs::RegistrySnapshot snap;
  obs::MetricSnapshot counter;
  counter.name = "sched.waves";
  counter.kind = obs::MetricKind::kCounter;
  counter.count = 7;
  obs::MetricSnapshot gauge;
  gauge.name = "sim.fleet.sessions_total";
  gauge.kind = obs::MetricKind::kGauge;
  gauge.value = 220.5;
  obs::MetricSnapshot hist;
  hist.name = "sim.step_us";
  hist.kind = obs::MetricKind::kHistogram;
  hist.count = 3;
  hist.bounds = {1.0, 2.0};
  hist.buckets = {1, 1, 1};
  snap.metrics = {counter, gauge, hist};
  obs::HealthAlert alert;
  alert.day = 4;
  alert.rule = "floor:sim.fleet.completion_rate";
  alert.metric = "sim.fleet.completion_rate";
  alert.message = "completion rate below floor";

  const std::string path = scratch_dir("timeline") + "/timeline.bin";
  {
    obs::TimelineWriter writer(path);
    writer.append_day(4, snap);
    writer.append_alert(alert);
    EXPECT_TRUE(writer.close().ok());
  }
  Format f;
  f.name = "LXTL";
  f.valid = single(read_raw(path));
  f.file_backed = true;
  f.mutate = [](const Files& valid, Mutator& m) {
    return single(mutate_framed(kTimelineFrame, valid[0], m));
  };
  f.stage = [path](const Files& in) { write_raw(path, in[0]); };
  f.decode = [path](const Files&) -> Decoded {
    auto reader = obs::TimelineReader::open(path);
    if (!reader) return failed(reader.error());
    auto records = reader->read_all();
    if (!records) return failed(records.error());
    return {};
  };
  return f;
}

logstore::SessionLogEntry sample_entry(std::uint64_t user, std::size_t segments) {
  logstore::SessionLogEntry e;
  e.user_id = user;
  e.timestamp = 86400 + user;
  e.video_duration = 30.0;
  e.session.exited = user % 2 == 1;
  e.session.watch_time = 12.5;
  e.session.stall_events = 3;
  e.session.quality_switches = 4;
  e.session.mean_bitrate = 1850.0;
  for (std::size_t i = 0; i < segments; ++i) {
    sim::SegmentRecord seg;
    seg.index = i;
    seg.level = i % 3;
    seg.position = 2.0 * static_cast<double>(i);
    seg.bitrate = 750.0 + static_cast<double>(i);
    seg.stall_time = i == 1 ? 1.5 : 0.0;
    seg.cumulative_stall_events = i >= 1 ? 1 : 0;
    e.session.segments.push_back(seg);
  }
  return e;
}

Format session_log_format() {
  logstore::SessionLogWriter writer;
  writer.append(sample_entry(9, 1));
  writer.append(sample_entry(10, 3));
  Format f;
  f.name = "LXRC session log";
  f.valid = single(writer.bytes());
  f.mutate = [](const Files& valid, Mutator& m) {
    return single(mutate_framed(logstore::kRecordFrame, valid[0], m));
  };
  f.decode = [](const Files& in) -> Decoded {
    auto entries = logstore::SessionLogReader::read_bytes(in[0]);
    if (!entries) return failed(entries.error());
    logstore::SessionLogWriter out;
    for (const auto& e : *entries) out.append(e);
    return {std::nullopt, single(out.bytes())};
  };
  return f;
}

Format state_store_format() {
  logstore::UserState s;
  s.engagement.stall_durations = {1.5, 3.25};
  s.engagement.stall_intervals = {42.0};
  s.engagement.stall_exit_intervals = {100.0, 250.0, 400.0};
  s.engagement.total_watch_time = 1234.5;
  s.engagement.total_stall_events = 17;
  s.best_params.hyb_beta = 0.65;
  s.has_params = true;
  Bytes bytes;
  logstore::kRecordFrame.write(bytes, logstore::StateStore::encode(77, s));
  s.has_params = false;
  logstore::kRecordFrame.write(bytes, logstore::StateStore::encode(78, s));
  Format f;
  f.name = "LXRC state store";
  f.valid = single(bytes);
  f.mutate = [](const Files& valid, Mutator& m) {
    return single(mutate_framed(logstore::kRecordFrame, valid[0], m));
  };
  // StateStore::load's record loop, over memory.
  f.decode = [](const Files& in) -> Decoded {
    Bytes out;
    codec::ByteReader reader(in[0]);
    while (reader.remaining() > 0) {
      auto payload = logstore::kRecordFrame.read(reader);
      if (!payload) return failed(payload.error());
      auto entry = logstore::StateStore::decode(*payload);
      if (!entry) return failed(entry.error());
      logstore::kRecordFrame.write(out, logstore::StateStore::encode(entry->first, entry->second));
    }
    return {std::nullopt, single(out)};
  };
  return f;
}

Format obo_state_format() {
  bayesopt::OnlineBayesOpt obo(3);
  Rng rng(17);
  obo.warm_start({0.1, 0.9, 0.5});
  for (int i = 0; i < 3; ++i) obo.update(obo.next_candidate(rng), rng.uniform());
  Format f;
  f.name = "OBO state";
  f.valid = single(snapshot::encode_obo_state(obo.state()));
  f.mutate = [](const Files& valid, Mutator& m) { return single(m.mutate(valid[0])); };
  f.decode = [](const Files& in) -> Decoded {
    auto state = snapshot::decode_obo_state(in[0]);
    if (!state) return failed(state.error());
    return {std::nullopt, single(snapshot::encode_obo_state(*state))};
  };
  return f;
}

Format user_state_format() {
  sim::UserFleetState state;
  state.params.hyb_beta = 0.62;
  state.adjusted_days = 3;
  state.has_lingxi = true;
  state.lingxi.engagement.long_term.stall_durations = {1.0, 2.5};
  state.lingxi.engagement.long_term.stall_exit_intervals = {30.0};
  state.lingxi.bandwidth_window = {900.0, 1100.0, 1050.5};
  state.lingxi.has_optimized = true;
  state.lingxi.stats.triggers = 5;
  Format f;
  f.name = "snapshot user state";
  f.valid = single(snapshot::encode_user_state(42, state));
  f.mutate = [](const Files& valid, Mutator& m) { return single(m.mutate(valid[0])); };
  f.decode = [](const Files& in) -> Decoded {
    auto decoded = snapshot::decode_user_state(in[0]);
    if (!decoded) return failed(decoded.error());
    return {std::nullopt, single(snapshot::encode_user_state(decoded->first, decoded->second))};
  };
  return f;
}

sim::FleetConfig tiny_fleet() {
  sim::FleetConfig cfg;
  cfg.users = 4;
  cfg.days = 2;
  cfg.sessions_per_user_day = 2;
  cfg.users_per_shard = 2;
  cfg.network.median_bandwidth = 1500.0;
  cfg.video.mean_duration = 12.0;
  return cfg;
}

sim::FleetRunner::AbrFactory hyb_factory() {
  return [] { return std::make_unique<abr::Hyb>(); };
}

/// Mutates one file of a directory-backed format: re-framed (or raw) through
/// the record frame.
Files mutate_one_file(const Files& valid, Mutator& m, std::size_t& which) {
  Files files = valid;
  which = m.below(files.size());
  files[which] = mutate_framed(logstore::kRecordFrame, files[which], m);
  return files;
}

Format archive_format() {
  telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{2});
  sim::FleetRunner runner(tiny_fleet(), hyb_factory());
  runner.set_telemetry_sink(&capture);
  runner.run(5);
  const telemetry::FleetArchive archive = capture.finish();
  const std::string dir = scratch_dir("archive");
  EXPECT_TRUE(archive.write(dir).ok());

  Format f;
  f.name = "LXRC archive";
  f.valid.push_back(read_raw(dir + "/" + telemetry::manifest_filename()));
  for (std::size_t i = 0; i < archive.shards.size(); ++i) f.valid.push_back(archive.shards[i]);
  f.file_backed = true;
  f.mutate = [](const Files& valid, Mutator& m) {
    std::size_t which = 0;
    return mutate_one_file(valid, m, which);
  };
  f.stage = [dir](const Files& in) {
    write_raw(dir + "/" + telemetry::manifest_filename(), in[0]);
    for (std::size_t i = 1; i < in.size(); ++i) {
      write_raw(dir + "/" + telemetry::shard_filename(i - 1), in[i]);
    }
  };
  f.decode = [dir](const Files&) -> Decoded {
    auto reader = telemetry::ArchiveReader::open(dir);
    if (!reader) return failed(reader.error());
    // Re-encode every delivered record into its shard's file.
    const auto& shards = reader->manifest().shards;
    Files out(1 + shards.size());
    logstore::kRecordFrame.write(out[0], reader->manifest().encode());
    const auto file_of = [&shards](std::uint64_t user) -> std::size_t {
      for (std::size_t i = 0; i < shards.size(); ++i) {
        if (user >= shards[i].first_user && user - shards[i].first_user < shards[i].user_count) {
          return i + 1;
        }
      }
      return 0;
    };
    const Status scanned = reader->scan(
        [&](const telemetry::ArchiveSessionRecord& rec) {
          logstore::kRecordFrame.write(out[file_of(rec.user)],
                                       telemetry::encode_session_record(rec));
        },
        [&](const telemetry::ArchiveUserRecord& rec) {
          logstore::kRecordFrame.write(out[file_of(rec.user)],
                                       telemetry::encode_user_record(rec));
        });
    if (!scanned) return failed(scanned.error());
    return {std::nullopt, out};
  };
  return f;
}

/// Rewrites the (single) shard entry at the end of a snapshot manifest
/// payload to match `state` and re-frames the manifest.
Bytes restamp_snapshot_manifest(const Bytes& manifest_file, const Bytes& state) {
  std::vector<Bytes> payloads = split_frames(logstore::kRecordFrame, manifest_file);
  if (payloads.size() != 1 || payloads[0].size() < 28) return manifest_file;
  Bytes& p = payloads[0];
  // ... | u64 first_user | u64 user_count | u64 byte_count | u32 crc
  store_le(p, p.size() - 12, 8, state.size());
  store_le(p, p.size() - 4, 4, crc32(state.data(), state.size()));
  return join_frames(logstore::kRecordFrame, payloads);
}

Format snapshot_format() {
  sim::FleetConfig cfg = tiny_fleet();
  sim::FleetRunner runner(cfg, hyb_factory());
  telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{4});
  runner.set_telemetry_sink(&capture);
  sim::FleetDayState state;
  runner.run_days(5, 0, 1, nullptr, &state);
  auto snap = snapshot::capture_snapshot(runner, 5, std::move(state), &capture);
  EXPECT_TRUE(snap.has_value());
  const std::string dir = scratch_dir("snapshot") + "/snap";
  EXPECT_TRUE(snapshot::save_snapshot(*snap, dir, cfg.users).ok());

  Format f;
  f.name = "LXRC snapshot";
  f.valid = {read_raw(dir + "/" + snapshot::manifest_filename()),
             read_raw(dir + "/" + snapshot::state_filename(0))};
  f.file_backed = true;
  f.mutate = [](const Files& valid, Mutator& m) {
    std::size_t which = 0;
    Files files = mutate_one_file(valid, m, which);
    // A state-file mutant would fail the manifest's whole-file CRC; re-stamp
    // that too (mostly) so the record decoders run.
    if (which == 1 && !m.one_in(4)) files[0] = restamp_snapshot_manifest(files[0], files[1]);
    return files;
  };
  f.stage = [dir](const Files& in) {
    write_raw(dir + "/" + snapshot::manifest_filename(), in[0]);
    write_raw(dir + "/" + snapshot::state_filename(0), in[1]);
  };
  f.decode = [dir](const Files&) -> Decoded {
    auto loaded = snapshot::load_snapshot(dir);
    if (!loaded) return failed(loaded.error());
    return {};
  };
  return f;
}

// ---------------------------------------------------------------------------
// Seeded mutation: kMutantsPerFormat mutants per format.
// ---------------------------------------------------------------------------

TEST(CodecMutation, NnTensorBlob) { run_mutants(nn_blob_format(), 101); }
TEST(CodecMutation, NnModelContainer) { run_mutants(nn_container_format(), 102); }
TEST(CodecMutation, Timeline) { run_mutants(timeline_format(), 103); }
TEST(CodecMutation, SessionLog) { run_mutants(session_log_format(), 104); }
TEST(CodecMutation, StateStore) { run_mutants(state_store_format(), 105); }
TEST(CodecMutation, OboState) { run_mutants(obo_state_format(), 106); }
TEST(CodecMutation, SnapshotUserState) { run_mutants(user_state_format(), 107); }
TEST(CodecMutation, TelemetryArchive) { run_mutants(archive_format(), 108); }
TEST(CodecMutation, FleetSnapshot) { run_mutants(snapshot_format(), 109); }

// ---------------------------------------------------------------------------
// Hostile inputs: counts that no remaining bytes can back. Each must come
// back as kCorrupt without an allocation beyond the bound.
// ---------------------------------------------------------------------------

Bytes nn_blob(std::uint32_t count, const std::vector<std::uint64_t>& dims) {
  Bytes b{'L', 'X', 'N', 'N'};
  codec::ByteWriter out(b);
  out.u32(nn::kTensorBlobVersion);
  out.u32(count);
  if (!dims.empty()) {
    out.u32(static_cast<std::uint32_t>(dims.size()));
    for (std::uint64_t d : dims) out.u64(d);
  }
  out.u32(0);
  restamp_nn(b);
  return b;
}

void expect_hostile_rejected(const Format& format, const Files& input, std::size_t size) {
  ASSERT_EQ(total_size(input), size);
  std::size_t largest = 0;
  const Decoded result = decode_tracked(format, input, largest);
  EXPECT_LE(largest, allocation_bound(size, format.file_backed));
  ASSERT_TRUE(result.error.has_value());
  EXPECT_EQ(result.error->code, Error::Code::kCorrupt) << result.error->message;
}

TEST(HostileInput, NnBlobWithTwoTo48ElementTensor) {
  // count 1, rank 2, dims 2^24 x 2^24: 2^48 doubles from 36 bytes.
  expect_hostile_rejected(nn_blob_format(), single(nn_blob(1, {1u << 24, 1u << 24})), 36);
}

TEST(HostileInput, NnBlobWithMaxTensorCount) {
  expect_hostile_rejected(nn_blob_format(), single(nn_blob(0xFFFFFFFFu, {})), 16);
}

TEST(HostileInput, TimelineSectionWithMaxMetricCount) {
  Bytes schema;
  codec::ByteWriter s(schema);
  s.u32(0);  // schema record
  s.str(obs::kTimelineSchema);
  Bytes day;
  codec::ByteWriter d(day);
  d.u32(1);  // day record
  d.u64(1);
  d.u32(4);  // deterministic section: 4 bytes...
  d.u32(0xFFFFFFFFu);  // ...claiming 2^32 - 1 metrics
  d.u32(0);  // empty wall-clock section
  Format f = timeline_format();
  expect_hostile_rejected(f, single(join_frames(kTimelineFrame, {schema, day})), 86);
}

TEST(HostileInput, SessionPayloadWithTwoTo20Segments) {
  Bytes p;
  codec::ByteWriter out(p);
  out.u64(1);     // user
  out.u64(2);     // timestamp
  out.f64(30.0);  // video duration
  out.u32(0);     // exited
  for (int i = 0; i < 3; ++i) out.f64(0.0);  // watch, startup, stall
  out.u32(0);     // stall events
  out.u32(0);     // switches
  out.f64(0.0);   // mean bitrate
  out.u32(1u << 20);
  Format f;
  f.decode = [](const Files& in) -> Decoded {
    auto e = logstore::decode_session(in[0]);
    return e ? Decoded{} : failed(e.error());
  };
  expect_hostile_rejected(f, single(p), 72);
}

TEST(HostileInput, OboStateWithTwoTo20Observations) {
  Bytes p;
  codec::ByteWriter out(p);
  for (int i = 0; i < 3; ++i) out.f64(1.0);  // GP hyperparameters
  out.u64(1u << 20);
  expect_hostile_rejected(obo_state_format(), single(p), 32);
}

TEST(HostileInput, ArchiveManifestWithTwoTo20Shards) {
  Bytes p;
  codec::ByteWriter out(p);
  out.u32(telemetry::kArchiveFormatVersion);
  out.u64(1);  // seed
  out.u32(0);  // config digest
  for (int i = 0; i < 5; ++i) out.u64(0);  // users, days, sessions, warmup, intervention
  out.u32(0);  // enable_lingxi
  out.u64(1);  // users_per_shard
  out.u64(1u << 20);
  Format f;
  f.decode = [](const Files& in) -> Decoded {
    auto m = telemetry::ArchiveManifest::decode(in[0]);
    return m ? Decoded{} : failed(m.error());
  };
  expect_hostile_rejected(f, single(p), 76);
}

TEST(HostileInput, SnapshotManifestClaimingTwoTo24UsersWithEmptyState) {
  // Within the 2^24-user cap, one shard claims every user, and its state
  // file is empty (byte count 0, CRC 0 — the CRC of no bytes). The user
  // table must not be sized from the manifest's claim.
  Bytes p;
  codec::ByteWriter out(p);
  out.u32(snapshot::kSnapshotFormatVersion);
  out.u64(77);  // seed
  out.u32(0);   // resume digest
  out.u64(1u << 24);
  out.u64(1);   // next_day
  out.u64(1u << 24);  // users_per_shard
  out.u32(0);   // has_net
  out.u32(0);   // net_crc
  out.u32(0);   // has_capture
  for (int i = 0; i < 19; ++i) out.u64(0);  // accumulator
  out.u64(1);  // shard count
  out.u64(0);  // first user
  out.u64(1u << 24);
  out.u64(0);  // byte count
  out.u32(0);  // crc32 of no bytes
  Bytes manifest;
  logstore::kRecordFrame.write(manifest, p);
  Format f = snapshot_format();
  expect_hostile_rejected(f, Files{manifest, Bytes{}}, manifest.size());
}

}  // namespace
}  // namespace lingxi
