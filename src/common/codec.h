// The byte codec behind every binary format in the repo: logstore LXRC
// records (session log, state store, fleet snapshot, telemetry archive),
// LXTL timelines and LXNN/LXNC nets.
//
// All integers are little-endian; an f64 is the little-endian bit pattern of
// the IEEE-754 double.
//
//   * ByteWriter appends u32 / u64 / f64, 0-or-1 u32 flags, u32-length
//     prefixed strings and raw bytes to a byte vector.
//   * ByteReader decodes over a span with a sticky failure flag: a read past
//     the end fails the reader, and every later read returns zero, so a
//     decoder reads its fields and checks ok() / done() once. count() is the
//     allocation guard: it refuses any element count that the remaining
//     bytes cannot hold (count x minimum encoded element size <= remaining),
//     so a corrupt or hostile count can never size an allocation beyond a
//     small multiple of the input.
//   * Frame writes and reads the CRC frame
//       magic[4] | u32 version | u32 payload_len | payload | u32 crc32(payload)
//     shared by LXRC and LXTL, in memory and from a stream.
#pragma once

#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.h"

namespace lingxi::codec {

using ByteSpan = std::span<const unsigned char>;

class ByteWriter {
 public:
  explicit ByteWriter(std::vector<unsigned char>& out) noexcept : out_(&out) {}

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_->push_back(static_cast<unsigned char>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_->push_back(static_cast<unsigned char>(v >> (8 * i)));
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void flag(bool v) { u32(v ? 1u : 0u); }
  /// u32 byte length, then the bytes.
  void str(std::string_view s);
  void bytes(ByteSpan b) { out_->insert(out_->end(), b.begin(), b.end()); }

 private:
  std::vector<unsigned char>* out_;
};

class ByteReader {
 public:
  explicit ByteReader(ByteSpan bytes) noexcept : p_(bytes.data()), left_(bytes.size()) {}

  std::uint32_t u32() noexcept {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p_[i]) << (8 * i);
    advance(4);
    return v;
  }
  std::uint64_t u64() noexcept {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p_[i]) << (8 * i);
    advance(8);
    return v;
  }
  double f64() noexcept {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  /// A u32 that must be 0 or 1; anything else fails the reader, so every
  /// accepted encoding re-encodes to the same bytes.
  bool flag() noexcept;
  /// u32 byte length, then the bytes.
  std::string str();
  /// View of the next `n` bytes (empty, and the reader failed, if fewer
  /// remain).
  ByteSpan bytes(std::uint64_t n) noexcept;
  /// View of every remaining byte; the reader is then done().
  ByteSpan rest() noexcept { return bytes(left_); }

  /// Reads a u32 (count) or u64 (count64) element count and accepts it only
  /// if the remaining bytes can hold that many elements of at least
  /// `min_encoded_size` bytes each; otherwise fails the reader and returns 0.
  std::uint32_t count(std::size_t min_encoded_size) noexcept;
  std::uint64_t count64(std::size_t min_encoded_size) noexcept;
  /// The same check for a count already in hand (a product of dimensions,
  /// say): true when n x min_encoded_size <= remaining(), else fails.
  bool holds(std::uint64_t n, std::size_t min_encoded_size) noexcept;

  /// Mark the input malformed (a semantic check failed).
  void fail() noexcept { ok_ = false; }
  bool ok() const noexcept { return ok_; }
  /// Every read succeeded and no byte is left over.
  bool done() const noexcept { return ok_ && left_ == 0; }
  std::size_t remaining() const noexcept { return ok_ ? left_ : 0; }

 private:
  bool take(std::uint64_t n) noexcept {
    if (ok_ && n <= left_) return true;
    ok_ = false;
    return false;
  }
  void advance(std::size_t n) noexcept {
    p_ += n;
    left_ -= n;
  }

  const unsigned char* p_;
  std::size_t left_;
  bool ok_ = true;
};

/// One CRC-framed format: its 4-byte magic, the version it writes and
/// accepts, and a payload size ceiling. `name` prefixes error messages.
class Frame {
 public:
  constexpr Frame(const char* name, const char (&magic)[5], std::uint32_t version,
                  std::uint32_t max_payload) noexcept
      : name_(name),
        magic_{static_cast<unsigned char>(magic[0]), static_cast<unsigned char>(magic[1]),
               static_cast<unsigned char>(magic[2]), static_cast<unsigned char>(magic[3])},
        version_(version),
        max_payload_(max_payload) {}

  /// Append one frame holding `payload` to `out`.
  void write(std::vector<unsigned char>& out, ByteSpan payload) const;
  /// Read the frame at the reader's position and return a view of its
  /// payload inside the reader's bytes; a bad magic, version, length or CRC
  /// is Error::kCorrupt and fails the reader.
  Expected<ByteSpan> read(ByteReader& in) const;
  /// Read the next frame from a stream. Callers detect a clean end of
  /// stream with `in.peek() == EOF` first; a stream that ends mid-frame is
  /// Error::kCorrupt. The payload buffer grows only as bytes arrive, so a
  /// header claiming a huge payload costs no more than the bytes present.
  Expected<std::vector<unsigned char>> read(std::istream& in) const;

 private:
  Expected<std::uint32_t> payload_length(ByteReader& header) const;
  Error corrupt(std::string_view what) const;

  const char* name_;
  unsigned char magic_[4];
  std::uint32_t version_;
  std::uint32_t max_payload_;
};

}  // namespace lingxi::codec
