#include "nn/serialize.h"

#include <algorithm>
#include <fstream>

#include "common/codec.h"
#include "common/crc32.h"

namespace lingxi::nn {
namespace {

constexpr unsigned char kMagic[4] = {'L', 'X', 'N', 'N'};
constexpr unsigned char kContainerMagic[4] = {'L', 'X', 'N', 'C'};

/// Both nn formats end in a CRC-32 of everything between the magic and the
/// CRC itself.
void append_crc(std::vector<unsigned char>& out) {
  codec::ByteWriter(out).u32(crc32(out.data() + 4, out.size() - 4));
}

/// Checks the magic and trailing CRC of `bytes` and returns a reader over the
/// body between them.
Expected<codec::ByteReader> open_body(codec::ByteSpan bytes, const unsigned char (&magic)[4],
                                      const char* what) {
  if (bytes.size() < 8) return Error::corrupt(std::string(what) + " too small");
  if (!std::equal(magic, magic + 4, bytes.begin())) {
    return Error::corrupt(std::string("bad magic in ") + what);
  }
  const codec::ByteSpan body = bytes.subspan(4, bytes.size() - 8);
  codec::ByteReader crc(bytes.last(4));
  if (crc.u32() != crc32(body.data(), body.size())) {
    return Error::corrupt(std::string(what) + " CRC mismatch");
  }
  return codec::ByteReader(body);
}

}  // namespace

std::vector<unsigned char> serialize_tensors(const std::vector<const Tensor*>& tensors) {
  std::vector<unsigned char> out(std::begin(kMagic), std::end(kMagic));
  codec::ByteWriter w(out);
  w.u32(kTensorBlobVersion);
  w.u32(static_cast<std::uint32_t>(tensors.size()));
  for (const Tensor* t : tensors) {
    w.u32(static_cast<std::uint32_t>(t->rank()));
    for (std::size_t d = 0; d < t->rank(); ++d) w.u64(t->dim(d));
    for (std::size_t i = 0; i < t->size(); ++i) w.f64((*t)[i]);
  }
  append_crc(out);
  return out;
}

Expected<std::vector<Tensor>> deserialize_tensors(codec::ByteSpan bytes) {
  auto body = open_body(bytes, kMagic, "tensor blob");
  if (!body) return body.error();
  codec::ByteReader& in = *body;
  if (in.u32() != kTensorBlobVersion) return Error::corrupt("unsupported tensor blob version");
  // The smallest tensor: rank 1, one dim, one element.
  const std::uint32_t count = in.count(4 + 8 + 8);
  if (!in.ok()) return Error::corrupt("tensor count exceeds blob");

  std::vector<Tensor> tensors;
  tensors.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t rank = in.u32();
    if (!in.ok()) return Error::corrupt("truncated tensor rank");
    if (rank == 0 || rank > 3) return Error::corrupt("tensor rank out of range");
    std::vector<std::size_t> shape(rank);
    // Bytes of data the dims read so far imply; bounding each partial
    // product by the bytes left keeps numel from wrapping.
    std::uint64_t data_bytes = sizeof(double);
    for (auto& d : shape) {
      const std::uint64_t dim = in.u64();
      if (!in.ok()) return Error::corrupt("truncated tensor shape");
      if (dim == 0 || dim > (1u << 24)) return Error::corrupt("tensor dim out of range");
      if (!in.holds(dim, data_bytes)) return Error::corrupt("tensor data exceeds blob");
      d = static_cast<std::size_t>(dim);
      data_bytes *= dim;
    }
    std::vector<double> data(data_bytes / sizeof(double));
    for (auto& x : data) x = in.f64();
    tensors.emplace_back(std::move(shape), std::move(data));
  }
  if (!in.done()) return Error::corrupt("trailing bytes in tensor blob");
  return tensors;
}

std::vector<unsigned char> serialize_model(std::uint32_t model_kind,
                                           const std::vector<const Tensor*>& tensors) {
  const auto blob = serialize_tensors(tensors);
  std::vector<unsigned char> out(std::begin(kContainerMagic), std::end(kContainerMagic));
  codec::ByteWriter w(out);
  w.u32(kModelContainerVersion);
  w.u32(model_kind);
  w.u64(blob.size());
  w.bytes(blob);
  append_crc(out);
  return out;
}

Expected<std::vector<Tensor>> deserialize_model(std::uint32_t expected_kind,
                                                codec::ByteSpan bytes) {
  auto body = open_body(bytes, kContainerMagic, "model container");
  if (!body) return body.error();
  codec::ByteReader& in = *body;
  const std::uint32_t version = in.u32();
  const std::uint32_t kind = in.u32();
  const std::uint64_t blob_len = in.u64();
  if (!in.ok()) return Error::corrupt("truncated model container header");
  if (version != kModelContainerVersion) {
    return Error::corrupt("unsupported model container version");
  }
  if (kind != expected_kind) return Error::corrupt("model container kind mismatch");
  const codec::ByteSpan blob = in.bytes(blob_len);
  if (!in.done()) return Error::corrupt("model container length mismatch");
  return deserialize_tensors(blob);
}

namespace {

/// Shared tail of the typed layer loaders: unwrap the container, check the
/// tensor count and shapes against the destination parameters, then copy.
Status load_layer(std::uint32_t kind, const std::vector<Tensor*>& params,
                  codec::ByteSpan bytes) {
  auto tensors = deserialize_model(kind, bytes);
  if (!tensors) return tensors.error();
  if (tensors->size() != params.size()) {
    return Error::corrupt("layer checkpoint tensor count mismatch");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!(*tensors)[i].same_shape(*params[i])) {
      return Error::corrupt("layer checkpoint shape mismatch");
    }
  }
  for (std::size_t i = 0; i < params.size(); ++i) *params[i] = std::move((*tensors)[i]);
  return {};
}

}  // namespace

std::vector<unsigned char> serialize_dense(const Dense& layer) {
  return serialize_model(kModelKindDense, {&layer.weight(), &layer.bias()});
}

std::vector<unsigned char> serialize_conv1d(const Conv1D& layer) {
  return serialize_model(kModelKindConv1D, {&layer.weight(), &layer.bias()});
}

Status load_dense(Dense& layer, const std::vector<unsigned char>& bytes) {
  return load_layer(kModelKindDense, layer.parameters(), bytes);
}

Status load_conv1d(Conv1D& layer, const std::vector<unsigned char>& bytes) {
  return load_layer(kModelKindConv1D, layer.parameters(), bytes);
}

Status save_tensors(const std::string& path, const std::vector<const Tensor*>& tensors) {
  const auto bytes = serialize_tensors(tensors);
  std::ofstream f(path, std::ios::binary);
  if (!f) return Error::io("cannot open for write: " + path);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f) return Error::io("write failed: " + path);
  return {};
}

Expected<std::vector<Tensor>> load_tensors(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Error::io("cannot open: " + path);
  std::vector<unsigned char> bytes((std::istreambuf_iterator<char>(f)),
                                   std::istreambuf_iterator<char>());
  return deserialize_tensors(bytes);
}

}  // namespace lingxi::nn
