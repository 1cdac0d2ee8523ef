#include "common/codec.h"

#include <algorithm>
#include <istream>

#include "common/assert.h"
#include "common/crc32.h"

namespace lingxi::codec {
namespace {

constexpr std::size_t kHeaderSize = 12;  // magic + version + payload_len
// First read of a streamed payload; later reads double what has arrived.
constexpr std::size_t kStreamChunk = 4096;

}  // namespace

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_->insert(out_->end(), s.begin(), s.end());
}

bool ByteReader::flag() noexcept {
  const std::uint32_t v = u32();
  if (v > 1) fail();
  return v == 1;
}

std::string ByteReader::str() {
  const ByteSpan b = bytes(u32());
  return std::string(b.begin(), b.end());
}

ByteSpan ByteReader::bytes(std::uint64_t n) noexcept {
  if (!take(n)) return {};
  const ByteSpan b(p_, static_cast<std::size_t>(n));
  advance(static_cast<std::size_t>(n));
  return b;
}

std::uint32_t ByteReader::count(std::size_t min_encoded_size) noexcept {
  const std::uint32_t n = u32();
  return holds(n, min_encoded_size) ? n : 0;
}

std::uint64_t ByteReader::count64(std::size_t min_encoded_size) noexcept {
  const std::uint64_t n = u64();
  return holds(n, min_encoded_size) ? n : 0;
}

bool ByteReader::holds(std::uint64_t n, std::size_t min_encoded_size) noexcept {
  LINGXI_DASSERT(min_encoded_size > 0);
  // n * min <= left, checked as n <= left / min so the product never forms
  // and cannot wrap.
  if (ok_ && n <= left_ / min_encoded_size) return true;
  ok_ = false;
  return false;
}

void Frame::write(std::vector<unsigned char>& out, ByteSpan payload) const {
  ByteWriter w(out);
  w.bytes(magic_);
  w.u32(version_);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload);
  w.u32(crc32(payload.data(), payload.size()));
}

Error Frame::corrupt(std::string_view what) const {
  return Error::corrupt(std::string(name_) + ": " + std::string(what));
}

Expected<std::uint32_t> Frame::payload_length(ByteReader& header) const {
  // The magic is checked first, so a wrong-format input reads as such rather
  // than as a truncated one.
  const ByteSpan magic = header.bytes(4);
  if (!header.ok() || std::memcmp(magic.data(), magic_, sizeof(magic_)) != 0) {
    return corrupt("bad frame magic");
  }
  const std::uint32_t version = header.u32();
  const std::uint32_t len = header.u32();
  if (!header.ok()) return corrupt("truncated frame header");
  if (version != version_) return corrupt("unsupported frame version " + std::to_string(version));
  if (len > max_payload_) return corrupt("frame length " + std::to_string(len) + " exceeds limit");
  return len;
}

Expected<ByteSpan> Frame::read(ByteReader& in) const {
  auto len = payload_length(in);
  if (!len) {
    in.fail();
    return len.error();
  }
  const ByteSpan payload = in.bytes(*len);
  const std::uint32_t stored = in.u32();
  if (!in.ok()) return corrupt("truncated frame payload");
  if (stored != crc32(payload.data(), payload.size())) {
    in.fail();
    return corrupt("frame checksum mismatch");
  }
  return payload;
}

Expected<std::vector<unsigned char>> Frame::read(std::istream& in) const {
  unsigned char header[kHeaderSize];
  in.read(reinterpret_cast<char*>(header), kHeaderSize);
  ByteReader header_reader(ByteSpan(header, static_cast<std::size_t>(in.gcount())));
  auto len = payload_length(header_reader);
  if (!len) return len.error();
  std::vector<unsigned char> payload;
  while (payload.size() < *len) {
    const std::size_t at = payload.size();
    const std::size_t chunk = std::min<std::size_t>(*len - at, std::max(at, kStreamChunk));
    payload.resize(at + chunk);
    in.read(reinterpret_cast<char*>(payload.data() + at), static_cast<std::streamsize>(chunk));
    if (in.gcount() != static_cast<std::streamsize>(chunk)) {
      return corrupt("truncated frame payload");
    }
  }
  unsigned char tail[4];
  in.read(reinterpret_cast<char*>(tail), sizeof(tail));
  ByteReader tail_reader(ByteSpan(tail, static_cast<std::size_t>(in.gcount())));
  const std::uint32_t stored = tail_reader.u32();
  if (!tail_reader.ok()) return corrupt("truncated frame checksum");
  if (stored != crc32(payload.data(), payload.size())) return corrupt("frame checksum mismatch");
  return payload;
}

}  // namespace lingxi::codec
