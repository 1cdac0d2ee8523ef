// Binary (de)serialization of tensor lists — model checkpoints.
//
// Two layers of format, both CRC-protected and versioned, both failing with
// Expected errors (never asserts) so corrupt, hostile or future-versioned
// files are recoverable conditions. Integers are little-endian and f64 is
// the little-endian IEEE-754 bit pattern, written and read through the byte
// codec of common/codec.h, so no decoded count or shape can size an
// allocation the blob's bytes cannot back:
//
//   * tensor blob: magic "LXNN", u32 version, u32 tensor count, then per
//     tensor (u32 rank, u64 dims..., f64 data...), then CRC-32 of everything
//     after the magic;
//   * model container (snapshot subsystem): magic "LXNC", u32 container
//     version, u32 model kind tag, u64 blob length, tensor blob, CRC-32 of
//     everything after the magic. The kind tag names the architecture the
//     weights belong to, so a fleet snapshot cannot silently load one
//     model's tensors into another's layers.
//
// Typed layer helpers (Dense / Conv1D) round-trip a layer's parameters
// through a model container whose kind encodes the layer type and whose
// shape is validated against the destination layer on load.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/expected.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "nn/tensor.h"

namespace lingxi::nn {

/// Version of the tensor-blob framing written by serialize_tensors.
inline constexpr std::uint32_t kTensorBlobVersion = 1;
/// Version of the model-container framing written by serialize_model.
inline constexpr std::uint32_t kModelContainerVersion = 1;

/// Well-known model kind tags. Callers may define further tags >= 100.
inline constexpr std::uint32_t kModelKindDense = 1;
inline constexpr std::uint32_t kModelKindConv1D = 2;
inline constexpr std::uint32_t kModelKindStallExitNet = 3;

/// Serialize tensors to an in-memory byte buffer.
std::vector<unsigned char> serialize_tensors(const std::vector<const Tensor*>& tensors);

/// Parse a byte buffer produced by serialize_tensors.
Expected<std::vector<Tensor>> deserialize_tensors(codec::ByteSpan bytes);

/// Wrap a tensor list in a versioned model container tagged `model_kind`.
std::vector<unsigned char> serialize_model(std::uint32_t model_kind,
                                           const std::vector<const Tensor*>& tensors);
/// Unwrap a model container: the version and CRC must check out and the kind
/// tag must equal `expected_kind` (Error::kCorrupt otherwise).
Expected<std::vector<Tensor>> deserialize_model(std::uint32_t expected_kind,
                                                codec::ByteSpan bytes);

/// Typed layer checkpoints: a model container holding [weight, bias].
std::vector<unsigned char> serialize_dense(const Dense& layer);
std::vector<unsigned char> serialize_conv1d(const Conv1D& layer);
/// Load a layer checkpoint; shape mismatches against the destination layer
/// are Error::kCorrupt (a checkpoint for a different architecture).
Status load_dense(Dense& layer, const std::vector<unsigned char>& bytes);
Status load_conv1d(Conv1D& layer, const std::vector<unsigned char>& bytes);

/// File convenience wrappers.
Status save_tensors(const std::string& path, const std::vector<const Tensor*>& tensors);
Expected<std::vector<Tensor>> load_tensors(const std::string& path);

}  // namespace lingxi::nn
