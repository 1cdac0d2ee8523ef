// Unit tests for lingxi_common: RNG, running stats, CRC32, Expected, JSON and
// the byte codec.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/crc32.h"
#include "common/expected.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/running_stats.h"
#include "common/units.h"

namespace lingxi {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.5, 2.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.25);
  }
}

TEST(Rng, UniformMeanApproximatelyHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(2, 6);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(9, 9), 9);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaledMoments) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.5), 0.0);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(31);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, DiscreteRespectsWeights) {
  Rng rng(37);
  std::vector<double> w{1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.discrete(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(41);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (parent.next() == child.next()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

// -- stream save/restore (snapshot subsystem) --------------------------------

TEST(RngState, RoundTripMidStreamContinuesIdentically) {
  Rng rng(1234);
  for (int i = 0; i < 37; ++i) rng.next();  // advance to an arbitrary position
  const Rng::State checkpoint = rng.state();

  // Reference continuation from the live generator.
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 64; ++i) expected.push_back(rng.next());

  Rng resumed(999);  // different seed: restore must fully overwrite
  resumed.restore(checkpoint);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(resumed.next(), expected[i]) << "draw " << i;
}

TEST(RngState, PreservesCachedBoxMullerNormal) {
  Rng rng(7);
  (void)rng.normal();  // leaves the second variate cached
  const Rng::State mid = rng.state();
  EXPECT_TRUE(mid.has_cached_normal);

  Rng resumed;
  resumed.restore(mid);
  // The very next normal must be the cached variate, then the streams stay
  // bit-identical through further distribution draws.
  EXPECT_EQ(rng.normal(), resumed.normal());
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(rng.normal(3.0, 2.0), resumed.normal(3.0, 2.0));
    EXPECT_EQ(rng.uniform(), resumed.uniform());
  }
}

TEST(RngState, RoundTripAcrossForkBoundaries) {
  // fork() mixes the parent state AND advances it; a snapshot taken before a
  // fork must reproduce both the child stream and the parent continuation.
  Rng rng(88);
  for (int i = 0; i < 11; ++i) rng.next();
  const Rng::State before_fork = rng.state();

  Rng child = rng.fork();
  std::vector<std::uint64_t> child_draws, parent_draws;
  for (int i = 0; i < 16; ++i) child_draws.push_back(child.next());
  for (int i = 0; i < 16; ++i) parent_draws.push_back(rng.next());

  Rng resumed;
  resumed.restore(before_fork);
  Rng resumed_child = resumed.fork();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(resumed_child.next(), child_draws[i]);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(resumed.next(), parent_draws[i]);

  // And the child's own state round-trips independently of the parent.
  const Rng::State child_mid = resumed_child.state();
  Rng resumed_grandchild;
  resumed_grandchild.restore(child_mid);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(resumed_grandchild.next(), resumed_child.next());
}

TEST(RngState, StateEqualityTracksPosition) {
  Rng a(5), b(5);
  EXPECT_EQ(a.state(), b.state());
  a.next();
  EXPECT_FALSE(a.state() == b.state());
  b.next();
  EXPECT_EQ(a.state(), b.state());
}

TEST(RunningStats, EmptyDefaults) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stderr_mean(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.population_variance(), 4.0, 1e-12);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  Rng rng(43);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(3.0, 2.0);
    (i < 200 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(2.0);
  const double mean_before = a.mean();
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.mean(), mean_before);
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), mean_before);
}

TEST(RunningStats, MergeBothEmpty) {
  RunningStats a, b;
  a.merge(b);
  EXPECT_TRUE(a.empty());
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

TEST(RunningStats, MergeSingletons) {
  // Two one-sample accumulators combine into the exact two-sample stats.
  RunningStats a, b;
  a.add(2.0);
  b.add(6.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  EXPECT_DOUBLE_EQ(a.variance(), 8.0);  // ((2-4)^2 + (6-4)^2) / (2-1)
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 6.0);
}

TEST(RunningStats, MergeSingletonIntoEmpty) {
  RunningStats empty_acc, single;
  single.add(5.0);
  empty_acc.merge(single);
  EXPECT_EQ(empty_acc.count(), 1u);
  EXPECT_DOUBLE_EQ(empty_acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(empty_acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(empty_acc.min(), 5.0);
  EXPECT_DOUBLE_EQ(empty_acc.max(), 5.0);
}

TEST(RunningStats, MergeAssociativity) {
  // (a + b) + c and a + (b + c) must agree with the sequential accumulation
  // of all samples — the property that lets per-shard timing stats reduce
  // in any tree shape.
  Rng rng(91);
  std::vector<double> xs(300);
  for (double& x : xs) x = rng.normal(-1.0, 4.0);

  RunningStats a, b, c, all;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i < 100 ? a : i < 180 ? b : c).add(xs[i]);
    all.add(xs[i]);
  }

  RunningStats left = a;  // (a + b) + c
  left.merge(b);
  left.merge(c);
  RunningStats bc = b;  // a + (b + c)
  bc.merge(c);
  RunningStats right = a;
  right.merge(bc);

  for (const RunningStats* m : {&left, &right}) {
    EXPECT_EQ(m->count(), all.count());
    EXPECT_NEAR(m->mean(), all.mean(), 1e-9);
    EXPECT_NEAR(m->variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(m->min(), all.min());
    EXPECT_DOUBLE_EQ(m->max(), all.max());
  }
  EXPECT_NEAR(left.mean(), right.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), right.variance(), 1e-12);
}

TEST(Crc32, KnownVector) {
  // The canonical CRC-32 test vector.
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, std::strlen(s)), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32("", 0), 0u); }

TEST(Crc32, IncrementalMatchesOneShot) {
  const char* s = "the quick brown fox jumps over the lazy dog";
  const std::size_t n = std::strlen(s);
  const std::uint32_t whole = crc32(s, n);
  std::uint32_t inc = 0;
  inc = crc32_update(inc, s, 10);
  inc = crc32_update(inc, s + 10, n - 10);
  EXPECT_EQ(inc, whole);
}

TEST(Crc32, DetectsSingleBitFlip) {
  unsigned char data[32];
  for (int i = 0; i < 32; ++i) data[i] = static_cast<unsigned char>(i * 7);
  const std::uint32_t before = crc32(data, sizeof(data));
  data[13] ^= 0x08;
  EXPECT_NE(crc32(data, sizeof(data)), before);
}

TEST(Expected, HoldsValue) {
  Expected<int> e(42);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, 42);
  EXPECT_EQ(e.value_or(7), 42);
}

TEST(Expected, HoldsError) {
  Expected<int> e(Error::io("disk on fire"));
  ASSERT_FALSE(e.has_value());
  EXPECT_EQ(e.error().code, Error::Code::kIo);
  EXPECT_EQ(e.error().message, "disk on fire");
  EXPECT_EQ(e.value_or(7), 7);
}

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
}

TEST(Status, CarriesError) {
  Status s(Error::corrupt("bad crc"));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, Error::Code::kCorrupt);
}

TEST(Units, SegmentBytesRoundTrip) {
  // 1 second at 4300 kbps = 537500 bytes.
  EXPECT_DOUBLE_EQ(units::segment_bytes(4300.0, 1.0), 537500.0);
  // Downloading it at 4300 kbps takes exactly 1 second.
  EXPECT_DOUBLE_EQ(units::download_time(537500.0, 4300.0), 1.0);
  EXPECT_DOUBLE_EQ(units::throughput_kbps(537500.0, 1.0), 4300.0);
}

TEST(Units, MbpsConversion) { EXPECT_DOUBLE_EQ(units::mbps(2.5), 2500.0); }

// ---------------------------------------------------------------------------
// JSON parser (consumed by the bench_compare perf gate).
// ---------------------------------------------------------------------------

TEST(Json, ParsesScalarsAndStructure) {
  auto doc = parse_json(
      R"({"name": "fleet", "pass": true, "skip": false, "none": null,
          "rate": 1234.5, "neg": -3e2,
          "tags": ["a", "b"], "nested": {"speedup": 1.4}})");
  ASSERT_TRUE(static_cast<bool>(doc)) << doc.error().message;
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->find("name")->as_string(), "fleet");
  EXPECT_TRUE(doc->find("pass")->as_bool());
  EXPECT_FALSE(doc->find("skip")->as_bool());
  EXPECT_TRUE(doc->find("none")->is_null());
  EXPECT_DOUBLE_EQ(doc->find("rate")->as_number(), 1234.5);
  EXPECT_DOUBLE_EQ(doc->find("neg")->as_number(), -300.0);
  const auto& tags = doc->find("tags")->as_array();
  ASSERT_EQ(tags.size(), 2u);
  EXPECT_EQ(tags[1].as_string(), "b");
  // Dotted-path lookup through nested objects.
  const JsonValue* speedup = doc->find_path("nested.speedup");
  ASSERT_NE(speedup, nullptr);
  EXPECT_DOUBLE_EQ(speedup->as_number(), 1.4);
  EXPECT_EQ(doc->find_path("nested.missing"), nullptr);
  EXPECT_EQ(doc->find("absent"), nullptr);
}

TEST(Json, StringEscapesRoundTrip) {
  auto doc = parse_json(R"(["a\"b", "tab\there", "\u0041\u00e9", "slash\/\\"])");
  ASSERT_TRUE(static_cast<bool>(doc));
  const auto& a = doc->as_array();
  EXPECT_EQ(a[0].as_string(), "a\"b");
  EXPECT_EQ(a[1].as_string(), "tab\there");
  EXPECT_EQ(a[2].as_string(), "A\xc3\xa9");  // \u escapes decode to UTF-8
  EXPECT_EQ(a[3].as_string(), "slash/\\");
}

TEST(Json, SeventeenDigitDoublesRoundTrip) {
  // The repo's writers emit %.17g; the parser must hand the bits back.
  const double v = 0.1234567890123456789;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "[%.17g]", v);
  auto doc = parse_json(buf);
  ASSERT_TRUE(static_cast<bool>(doc));
  EXPECT_EQ(doc->as_array()[0].as_number(), v);  // bitwise, not approximate
}

TEST(Json, MalformedInputIsParseErrorNotUb) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru",
                          "\"unterminated", "{\"a\":1} trailing", "1.2.3",
                          "[\"bad\\x\"]"}) {
    auto doc = parse_json(bad);
    EXPECT_FALSE(static_cast<bool>(doc)) << "input '" << bad << "' should not parse";
    if (!doc) {
      EXPECT_EQ(doc.error().code, Error::Code::kParse) << bad;
    }
  }
}

TEST(Json, DepthLimitStopsRunawayNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  auto doc = parse_json(deep);
  ASSERT_FALSE(static_cast<bool>(doc));
  EXPECT_EQ(doc.error().code, Error::Code::kParse);
}

TEST(Json, FileRoundTripAndMissingFile) {
  const std::string path = "json_test_doc.json";
  {
    std::ofstream os(path);
    os << "{\"x\": 42}\n";
  }
  auto doc = parse_json_file(path);
  ASSERT_TRUE(static_cast<bool>(doc));
  EXPECT_DOUBLE_EQ(doc->find("x")->as_number(), 42.0);
  std::remove(path.c_str());
  auto missing = parse_json_file("json_test_no_such_file.json");
  ASSERT_FALSE(static_cast<bool>(missing));
  EXPECT_EQ(missing.error().code, Error::Code::kIo);
}

// ---------------------------------------------------------------------------
// Byte codec.
// ---------------------------------------------------------------------------

TEST(ByteCodec, RoundTripAllTypes) {
  std::vector<unsigned char> buf;
  codec::ByteWriter out(buf);
  out.u32(0xdeadbeefu);
  out.u64(0x0123456789abcdefULL);
  out.f64(-3.14159);
  out.flag(true);
  out.str("lxrc");
  codec::ByteReader in(buf);
  EXPECT_EQ(in.u32(), 0xdeadbeefu);
  EXPECT_EQ(in.u64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(in.f64(), -3.14159);
  EXPECT_TRUE(in.flag());
  EXPECT_EQ(in.str(), "lxrc");
  EXPECT_TRUE(in.done());
}

TEST(ByteCodec, LayoutIsLittleEndian) {
  std::vector<unsigned char> buf;
  codec::ByteWriter out(buf);
  out.u32(0x04030201u);
  out.u64(0x0c0b0a0908070605ULL);
  out.f64(1.0);  // IEEE-754 0x3ff0000000000000
  out.str("ab");
  const std::vector<unsigned char> expected = {
      1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 2, 0, 0, 0, 'a', 'b'};
  EXPECT_EQ(buf, expected);
}

TEST(ByteCodec, ReadPastEndFailsStickily) {
  const std::vector<unsigned char> buf{1, 2, 3, 4, 5, 6};
  codec::ByteReader in(buf);
  EXPECT_EQ(in.u32(), 0x04030201u);
  EXPECT_TRUE(in.ok());
  EXPECT_EQ(in.u32(), 0u);  // two bytes left: fails
  EXPECT_FALSE(in.ok());
  // Once failed, every read returns zero and nothing is consumed or decoded,
  // even a read that would fit.
  EXPECT_EQ(in.bytes(1).size(), 0u);
  EXPECT_EQ(in.str(), "");
  EXPECT_EQ(in.count(1), 0u);
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_FALSE(in.ok());
  EXPECT_FALSE(in.done());
}

TEST(ByteCodec, FlagAcceptsOnlyZeroOrOne) {
  std::vector<unsigned char> buf;
  codec::ByteWriter out(buf);
  out.u32(0);
  out.u32(1);
  out.u32(2);
  codec::ByteReader in(buf);
  EXPECT_FALSE(in.flag());
  EXPECT_TRUE(in.flag());
  EXPECT_TRUE(in.ok());
  in.flag();
  EXPECT_FALSE(in.ok());
}

TEST(ByteCodec, CountRefusalAtTheBoundary) {
  // A count of 3 followed by exactly 3 x 8 bytes is accepted; one byte less
  // and the same count is refused before anything could be allocated.
  for (const std::size_t tail : {std::size_t{24}, std::size_t{23}}) {
    std::vector<unsigned char> buf(4 + tail);
    buf[0] = 3;  // little-endian u32 count
    codec::ByteReader in(buf);
    const std::uint32_t n = in.count(8);
    if (tail == 24) {
      EXPECT_EQ(n, 3u);
      EXPECT_TRUE(in.ok());
      EXPECT_EQ(in.remaining(), 24u);
    } else {
      EXPECT_EQ(n, 0u);
      EXPECT_FALSE(in.ok());
    }
  }
}

TEST(ByteCodec, CountCheckCannotOverflow) {
  // 2^61 elements of 8 bytes is 2^64 bytes, which wraps to 0 in a naive
  // 64-bit multiply and would pass `n * size <= remaining`.
  std::vector<unsigned char> buf(8 + 16);
  buf[7] = 0x20;  // little-endian u64 count 2^61
  codec::ByteReader in(buf);
  EXPECT_EQ(in.count64(8), 0u);
  EXPECT_FALSE(in.ok());

  const std::vector<unsigned char> sixteen(16);
  codec::ByteReader held(sixteen);
  EXPECT_TRUE(held.holds(2, 8));
  EXPECT_TRUE(held.holds(0, 1u << 30));
  EXPECT_FALSE(held.holds(~0ULL, 2));
  EXPECT_FALSE(held.ok());
}

TEST(ByteCodec, BytesAndRestAreViewsIntoTheInput) {
  const std::vector<unsigned char> buf{9, 8, 7, 6, 5};
  codec::ByteReader in(buf);
  const codec::ByteSpan head = in.bytes(2);
  ASSERT_EQ(head.size(), 2u);
  EXPECT_EQ(head.data(), buf.data());
  const codec::ByteSpan rest = in.rest();
  EXPECT_EQ(rest.data(), buf.data() + 2);
  EXPECT_EQ(rest.size(), 3u);
  EXPECT_TRUE(in.done());
}

TEST(ByteCodec, FrameRoundTripAndChecks) {
  constexpr codec::Frame kFrame{"test", "TEST", 7, 16};
  std::vector<unsigned char> bytes;
  kFrame.write(bytes, std::vector<unsigned char>{1, 2, 3});
  ASSERT_EQ(bytes.size(), 12u + 3u + 4u);
  EXPECT_EQ(std::string(bytes.begin(), bytes.begin() + 4), "TEST");
  {
    codec::ByteReader in(bytes);
    const auto payload = kFrame.read(in);
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(std::vector<unsigned char>(payload->begin(), payload->end()),
              (std::vector<unsigned char>{1, 2, 3}));
    EXPECT_TRUE(in.done());
  }
  // Another format's magic, a payload over the ceiling and a flipped
  // payload bit are each kCorrupt, and fail the reader.
  constexpr codec::Frame kOther{"other", "OTHR", 7, 16};
  constexpr codec::Frame kTiny{"tiny", "TEST", 7, 2};
  auto flipped = bytes;
  flipped[13] ^= 0x40;
  for (const auto& [frame, input] :
       {std::pair{&kOther, bytes}, std::pair{&kTiny, bytes}, std::pair{&kFrame, flipped}}) {
    codec::ByteReader in(input);
    const auto payload = frame->read(in);
    ASSERT_FALSE(payload.has_value());
    EXPECT_EQ(payload.error().code, Error::Code::kCorrupt);
    EXPECT_FALSE(in.ok());
  }
}

}  // namespace
}  // namespace lingxi
