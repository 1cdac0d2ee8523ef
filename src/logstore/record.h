// Framed binary records: the storage primitive behind the state store,
// session logs, fleet snapshots and telemetry archives.
//
// Layout per record: magic "LXRC" | u32 version | u32 payload_len |
// payload bytes | u32 crc32(payload), all integers little-endian — the
// shared frame of common/codec.h, whose ByteWriter/ByteReader also encode
// every payload. Readers verify magic, version, length bounds and checksum,
// so truncated or bit-flipped files surface as Error::kCorrupt instead of
// silently corrupt personalization state. This replaces the paper's HDF5
// long-term state files (§4).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/expected.h"

namespace lingxi::logstore {

/// The LXRC record frame. v2: session payloads carry the stall/switch/
/// mean-bitrate aggregates. Framing is unchanged, but v1 files must fail the
/// version check instead of being misparsed under the new payload layout.
inline constexpr codec::Frame kRecordFrame{"record", "LXRC", 2, 64u << 20};

/// Whole-file helpers.
///
/// write_file is atomic and durable: the bytes are written to `<path>.tmp`,
/// flushed to stable storage (fsync) and closed with the result checked
/// (a destructor-close would drop delayed write errors on the floor), then
/// renamed over `path`. A crash, kill -9 or full disk at any point leaves
/// either the old file intact or the new one complete — never a torn
/// mixture — at the cost of a stale `<path>.tmp` that the next successful
/// write replaces. Each failing stage returns a distinct Error::kIo whose
/// message names the stage ("cannot open" / "write failed" / "fsync failed"
/// / "close failed" / "rename failed"), so callers can report which part of
/// the commit tore.
Status write_file(const std::string& path, const std::vector<unsigned char>& bytes);
Expected<std::vector<unsigned char>> read_file(const std::string& path);

/// fsync a directory fd so a just-committed rename inside it survives power
/// loss (the snapshot commit protocol's final durability point).
Status fsync_directory(const std::string& dir);

}  // namespace lingxi::logstore
