// Unit tests for lingxi_logstore: record framing (in-memory and streaming),
// session-log error paths, the durable per-user state store and byte pins of
// both file formats. The byte codec itself is tested in test_common.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <initializer_list>
#include <sstream>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/crc32.h"
#include "logstore/record.h"
#include "logstore/session_log.h"
#include "logstore/state_store.h"

namespace lingxi::logstore {
namespace {

using Bytes = std::vector<unsigned char>;

Bytes framed(std::initializer_list<Bytes> payloads) {
  Bytes out;
  for (const Bytes& p : payloads) kRecordFrame.write(out, p);
  return out;
}

Bytes payload_of(const Expected<codec::ByteSpan>& r) { return Bytes(r->begin(), r->end()); }

TEST(Record, RoundTrip) {
  const Bytes payload{1, 2, 3, 4, 5};
  const Bytes bytes = framed({payload});
  codec::ByteReader in(bytes);
  const auto r = kRecordFrame.read(in);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(payload_of(r), payload);
  EXPECT_TRUE(in.done());
}

TEST(Record, MultipleRecordsSequential) {
  const Bytes bytes = framed({{10}, {20, 21}});
  codec::ByteReader in(bytes);
  const auto a = kRecordFrame.read(in);
  const auto b = kRecordFrame.read(in);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->size(), 1u);
  EXPECT_EQ(b->size(), 2u);
  EXPECT_TRUE(in.done());
}

TEST(Record, EmptyPayloadAllowed) {
  const Bytes bytes = framed({{}});
  codec::ByteReader in(bytes);
  const auto r = kRecordFrame.read(in);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->empty());
}

TEST(Record, DetectsBitFlipInPayload) {
  Bytes bytes = framed({{1, 2, 3, 4}});
  bytes[13] ^= 0x01;  // somewhere inside the payload
  codec::ByteReader in(bytes);
  const auto r = kRecordFrame.read(in);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, Error::Code::kCorrupt);
}

TEST(Record, DetectsTruncation) {
  Bytes bytes = framed({{1, 2, 3, 4}});
  bytes.resize(bytes.size() - 2);
  codec::ByteReader in(bytes);
  EXPECT_FALSE(kRecordFrame.read(in).has_value());
}

TEST(Record, DetectsBadMagic) {
  Bytes bytes = framed({{1}});
  bytes[0] = 'Z';
  codec::ByteReader in(bytes);
  EXPECT_FALSE(kRecordFrame.read(in).has_value());
}

TEST(Record, DetectsBadVersion) {
  Bytes bytes = framed({{1, 2, 3}});
  bytes[4] = 0x63;  // version is the little-endian u32 right after the magic
  codec::ByteReader in(bytes);
  const auto r = kRecordFrame.read(in);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, Error::Code::kCorrupt);
}

TEST(Record, StreamingRoundTrip) {
  const Bytes bytes = framed({{10}, {20, 21}});
  std::istringstream in(std::string(bytes.begin(), bytes.end()));
  const auto a = kRecordFrame.read(in);
  const auto b = kRecordFrame.read(in);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, Bytes{10});
  EXPECT_EQ(*b, (Bytes{20, 21}));
  EXPECT_EQ(in.peek(), std::char_traits<char>::eof());
}

TEST(Record, StreamingDetectsTruncationAndBitFlip) {
  const Bytes bytes = framed({{1, 2, 3, 4}});
  {
    std::istringstream in(std::string(bytes.begin(), bytes.end() - 2));
    const auto r = kRecordFrame.read(in);
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().code, Error::Code::kCorrupt);
  }
  {
    auto flipped = bytes;
    flipped[13] ^= 0x01;
    std::istringstream in(std::string(flipped.begin(), flipped.end()));
    const auto r = kRecordFrame.read(in);
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().code, Error::Code::kCorrupt);
  }
}

TEST(Record, StreamingPayloadLargerThanOneChunkRoundTrips) {
  Bytes payload(10000);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<unsigned char>(i * 7);
  const Bytes bytes = framed({payload, {5}});
  std::istringstream in(std::string(bytes.begin(), bytes.end()));
  const auto a = kRecordFrame.read(in);
  const auto b = kRecordFrame.read(in);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, payload);
  EXPECT_EQ(*b, Bytes{5});
}

TEST(Record, StreamingHeaderClaimingHugePayloadIsCorrupt) {
  // A valid 12-byte header claiming the 64 MiB ceiling, then nothing: the
  // reader must report truncation after reading what is there.
  Bytes bytes = framed({{}});
  bytes.resize(12);
  const std::uint32_t len = 64u << 20;
  for (int i = 0; i < 4; ++i) bytes[8 + i] = static_cast<unsigned char>(len >> (8 * i));
  std::istringstream in(std::string(bytes.begin(), bytes.end()));
  const auto r = kRecordFrame.read(in);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, Error::Code::kCorrupt);
}

SessionLogEntry sample_entry() {
  SessionLogEntry e;
  e.user_id = 9;
  e.timestamp = 86401;
  e.video_duration = 30.0;
  e.session.exited = true;
  e.session.watch_time = 12.5;
  e.session.startup_delay = 0.8;
  e.session.total_stall = 2.25;
  e.session.stall_events = 3;
  e.session.quality_switches = 4;
  e.session.mean_bitrate = 1850.0;
  sim::SegmentRecord seg;
  seg.level = 2;
  seg.bitrate = 1850.0;
  seg.stall_time = 1.5;
  seg.buffer_after = 3.0;
  e.session.segments = {seg};
  return e;
}

TEST(SessionLog, CodecPreservesSessionAggregates) {
  const SessionLogEntry e = sample_entry();
  Bytes payload;
  codec::ByteWriter out(payload);
  encode_session(out, e);
  const auto decoded = decode_session(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, e);
  EXPECT_EQ(decoded->session.stall_events, 3u);
  EXPECT_EQ(decoded->session.quality_switches, 4u);
  EXPECT_DOUBLE_EQ(decoded->session.mean_bitrate, 1850.0);
}

TEST(SessionLog, LoadRejectsTruncatedFile) {
  SessionLogWriter writer;
  writer.append(sample_entry());
  const std::string path = ::testing::TempDir() + "/lingxi_session_trunc.bin";
  ASSERT_TRUE(writer.save(path).ok());
  auto bytes = read_file(path);
  ASSERT_TRUE(bytes.has_value());
  bytes->resize(bytes->size() - 5);
  ASSERT_TRUE(write_file(path, *bytes).ok());
  const auto loaded = SessionLogReader::load(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.error().code, Error::Code::kCorrupt);
}

TEST(SessionLog, LoadRejectsFlippedCrcByte) {
  SessionLogWriter writer;
  writer.append(sample_entry());
  const std::string path = ::testing::TempDir() + "/lingxi_session_crc.bin";
  ASSERT_TRUE(writer.save(path).ok());
  auto bytes = read_file(path);
  ASSERT_TRUE(bytes.has_value());
  bytes->back() ^= 0xff;  // last byte of the trailing CRC
  ASSERT_TRUE(write_file(path, *bytes).ok());
  const auto loaded = SessionLogReader::load(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.error().code, Error::Code::kCorrupt);
}

TEST(SessionLog, LoadRejectsBadRecordVersion) {
  SessionLogWriter writer;
  writer.append(sample_entry());
  const std::string path = ::testing::TempDir() + "/lingxi_session_version.bin";
  ASSERT_TRUE(writer.save(path).ok());
  auto bytes = read_file(path);
  ASSERT_TRUE(bytes.has_value());
  (*bytes)[4] = 0x63;  // record version field
  ASSERT_TRUE(write_file(path, *bytes).ok());
  const auto loaded = SessionLogReader::load(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.error().code, Error::Code::kCorrupt);
}

UserState sample_state() {
  UserState s;
  s.engagement.stall_durations = {1.5, 3.25};
  s.engagement.stall_intervals = {42.0};
  s.engagement.stall_exit_intervals = {100.0, 250.0, 400.0};
  s.engagement.total_watch_time = 1234.5;
  s.engagement.total_stall_events = 17;
  s.engagement.total_stall_exits = 3;
  s.best_params.stall_penalty = 9.5;
  s.best_params.switch_penalty = 1.25;
  s.best_params.hyb_beta = 0.65;
  s.has_params = true;
  return s;
}

TEST(StateStore, EncodeDecodeRoundTrip) {
  const UserState s = sample_state();
  const auto payload = StateStore::encode(77, s);
  const auto decoded = StateStore::decode(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->first, 77u);
  EXPECT_EQ(decoded->second, s);
}

TEST(StateStore, DecodeRejectsTruncatedPayload) {
  auto payload = StateStore::encode(1, sample_state());
  payload.resize(payload.size() - 3);
  EXPECT_FALSE(StateStore::decode(payload).has_value());
}

TEST(StateStore, DecodeRejectsTrailingGarbage) {
  auto payload = StateStore::encode(1, sample_state());
  payload.push_back(0xab);
  EXPECT_FALSE(StateStore::decode(payload).has_value());
}

// Byte pins recorded before the shared byte codec replaced logstore's own
// helpers: a session log of fixed entries and a one-entry state-store file.
TEST(Golden, SessionLogBytesArePinned) {
  SessionLogWriter writer;
  SessionLogEntry e = sample_entry();
  writer.append(e);
  e.user_id = 10;
  e.timestamp = 86402;
  e.session.exited = false;
  sim::SegmentRecord seg;
  seg.level = 1;
  seg.position = 2.0;
  seg.bitrate = 750.0;
  seg.size = 1.5e6;
  seg.throughput = 2400.0;
  seg.download_time = 0.625;
  seg.buffer_before = 3.0;
  seg.buffer_after = 4.5;
  seg.cumulative_stall = 1.5;
  seg.cumulative_stall_events = 1;
  e.session.segments.push_back(seg);
  writer.append(e);
  const auto& bytes = writer.bytes();
  EXPECT_EQ(bytes.size(), 416u);
  EXPECT_EQ(crc32(bytes.data(), bytes.size()), 0x2ada939bu);
}

TEST(Golden, StateStoreFileBytesArePinned) {
  StateStore store;
  store.put(77, sample_state());
  const std::string path = ::testing::TempDir() + "/lingxi_state_golden.bin";
  ASSERT_TRUE(store.save(path).ok());
  const auto bytes = read_file(path);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(bytes->size(), 136u);
  EXPECT_EQ(crc32(bytes->data(), bytes->size()), 0xf84ac35eu);
}

TEST(StateStore, PutGetContains) {
  StateStore store;
  EXPECT_FALSE(store.contains(5));
  store.put(5, sample_state());
  EXPECT_TRUE(store.contains(5));
  const auto got = store.get(5);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, sample_state());
  EXPECT_FALSE(store.get(6).has_value());
}

TEST(StateStore, OverwriteReplaces) {
  StateStore store;
  store.put(1, sample_state());
  UserState other = sample_state();
  other.best_params.hyb_beta = 0.4;
  store.put(1, other);
  EXPECT_DOUBLE_EQ(store.get(1)->best_params.hyb_beta, 0.4);
  EXPECT_EQ(store.size(), 1u);
}

TEST(StateStore, SaveLoadRoundTrip) {
  StateStore store;
  store.put(1, sample_state());
  UserState s2 = sample_state();
  s2.has_params = false;
  s2.engagement.total_stall_events = 99;
  store.put(2, s2);

  const std::string path = ::testing::TempDir() + "/lingxi_state_store.bin";
  ASSERT_TRUE(store.save(path).ok());

  StateStore loaded;
  ASSERT_TRUE(loaded.load(path).ok());
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(*loaded.get(1), sample_state());
  EXPECT_EQ(*loaded.get(2), s2);
}

TEST(StateStore, SaveBytesDependOnlyOnContents) {
  // The same three states reached through different histories: one store
  // puts them in descending id order; the other erases everything (clear)
  // and re-puts them in ascending order, then overwrites each entry.
  std::vector<std::pair<std::uint64_t, UserState>> states;
  for (std::uint64_t id : {3u, 1000003u, 42u}) {
    UserState s = sample_state();
    s.engagement.total_stall_events = id;
    states.emplace_back(id, s);
  }
  StateStore a;
  for (auto it = states.rbegin(); it != states.rend(); ++it) a.put(it->first, it->second);
  StateStore b;
  b.put(42, sample_state());
  b.clear();
  for (const auto& [id, s] : states) b.put(id, sample_state());
  for (const auto& [id, s] : states) b.put(id, s);
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), 3u);

  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(a.save(dir + "/lingxi_state_order_a.bin").ok());
  ASSERT_TRUE(b.save(dir + "/lingxi_state_order_b.bin").ok());
  const auto bytes_a = read_file(dir + "/lingxi_state_order_a.bin");
  const auto bytes_b = read_file(dir + "/lingxi_state_order_b.bin");
  ASSERT_TRUE(bytes_a.has_value());
  ASSERT_TRUE(bytes_b.has_value());
  EXPECT_EQ(*bytes_a, *bytes_b);

  // Records are written in ascending user id.
  Bytes expected;
  for (std::uint64_t id : {3u, 42u, 1000003u}) {
    const auto it = std::find_if(states.begin(), states.end(),
                                 [id](const auto& e) { return e.first == id; });
    kRecordFrame.write(expected, StateStore::encode(id, it->second));
  }
  EXPECT_EQ(*bytes_a, expected);
}

TEST(StateStore, LoadMissingFileIsIoError) {
  StateStore store;
  const auto status = store.load("/nonexistent/state.bin");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, Error::Code::kIo);
}

TEST(StateStore, LoadCorruptFileFailsAndPreservesNothingPartial) {
  StateStore store;
  store.put(1, sample_state());
  const std::string path = ::testing::TempDir() + "/lingxi_state_corrupt.bin";
  ASSERT_TRUE(store.save(path).ok());

  // Flip a byte in the middle of the file.
  auto bytes = read_file(path);
  ASSERT_TRUE(bytes.has_value());
  (*bytes)[bytes->size() / 2] ^= 0xff;
  ASSERT_TRUE(write_file(path, *bytes).ok());

  StateStore loaded;
  EXPECT_FALSE(loaded.load(path).ok());
  EXPECT_EQ(loaded.size(), 0u);
}

// ---------------------------------------------------------------------------
// write_file atomicity (temp + fsync + checked close + rename).
// ---------------------------------------------------------------------------

TEST(WriteFile, CommitsAtomicallyAndCleansUpTemp) {
  const std::string path = ::testing::TempDir() + "/lingxi_write_file_atomic.bin";
  std::filesystem::remove(path);
  const std::vector<unsigned char> bytes = {1, 2, 3, 4, 5};
  ASSERT_TRUE(write_file(path, bytes).ok());
  auto back = read_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, bytes);
  // The commit renames the temp file over the target; success must not leave
  // the staging name behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // Rewriting replaces the previous content through the same protocol.
  const std::vector<unsigned char> next = {9, 8, 7};
  ASSERT_TRUE(write_file(path, next).ok());
  back = read_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, next);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(WriteFile, OpenFailureIsIoErrorNamingTheStage) {
  const std::string path =
      ::testing::TempDir() + "/lingxi_no_such_dir/write_file.bin";
  const auto status = write_file(path, {1, 2, 3});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, Error::Code::kIo);
  EXPECT_NE(status.error().message.find("cannot open"), std::string::npos);
}

TEST(WriteFile, RenameFailureIsDistinctErrorAndRemovesTemp) {
  // A directory at the target path makes the final rename fail (the write
  // itself succeeds), exercising the commit stage's distinct error.
  const std::string path = ::testing::TempDir() + "/lingxi_write_file_dir_target";
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path + "/occupied");
  const auto status = write_file(path, {1, 2, 3});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, Error::Code::kIo);
  EXPECT_NE(status.error().message.find("rename failed"), std::string::npos);
  // The failed commit does not strand its staging file.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove_all(path);
}

TEST(FsyncDirectory, SucceedsOnRealDirAndFailsOnMissing) {
  EXPECT_TRUE(fsync_directory(::testing::TempDir()).ok());
  const auto status = fsync_directory(::testing::TempDir() + "/lingxi_absent_dir");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, Error::Code::kIo);
}

}  // namespace
}  // namespace lingxi::logstore
