// Fully connected layer: y = W x + b.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.h"

namespace lingxi::nn {

/// Instruction set the batched dense kernel runs on. Every variant keeps
/// SIMD lanes across batch rows or across outputs (never along the
/// reduction), so all four produce bitwise-identical outputs — pinned by the
/// forced-ISA parity tests. Ordered narrow to wide so clamping to hardware
/// support is a min().
enum class DenseIsa {
  kScalar = 0,  ///< unrolled scalar blocks only
  kSse2 = 1,    ///< 16-byte generic vectors, full 8-row blocks only
  kAvx2 = 2,    ///< ymm kernels for every block size (see forward_batch)
  kAvx512 = 3,  ///< 8-lane zmm panel, blocks of 2-8 rows (zero-padded)
};

/// Name for logs / env parsing: "scalar", "sse2", "avx2", "avx512".
const char* dense_isa_name(DenseIsa isa) noexcept;

/// True when this build + CPU can run `isa`.
bool dense_isa_supported(DenseIsa isa) noexcept;

/// The ISA forward_batch currently dispatches to: AVX2 where supported (the
/// 512-bit variant downclocks on many server parts and measures slower, so
/// it is opt-in), unless LINGXI_DENSE_ISA (scalar|sse2|avx2|avx512, clamped
/// to hardware support) or set_dense_isa_for_testing() overrode it.
DenseIsa dense_isa() noexcept;

/// In-process override for tests and benches (the env var is only read
/// once). Clamped to dense_isa_supported(); returns the ISA actually set.
DenseIsa set_dense_isa_for_testing(DenseIsa isa) noexcept;

class Dense final : public Layer {
 public:
  /// Weights He-initialized from `rng`, biases zero.
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  /// Batched inference: out.row(b) = W in.row(b) + b for every row, in
  /// blocks of up to 8 rows. Every output is one serial chain of in_features
  /// dependent adds, so at the 1-7-row blocks the fleet runs the layer is
  /// bound by add latency, not weight traffic; the AVX2 kernels keep at least
  /// eight independent chains in flight at every block size — lanes across
  /// outputs (4x4 in-register weight transposes) for 1-2 rows, lanes across
  /// rows of a 4- or 8-lane panel with several outputs per pass above that.
  /// The per-output accumulation order matches forward() exactly, making
  /// each output row bitwise identical to the scalar path. Inference only:
  /// does not touch the backward() caches, safe on a const layer.
  void forward_batch(ConstBatchView in, BatchView out) const;

  /// One input row as one scalar chain per output over the row's non-zero
  /// inputs (the indices are staged in `active`, reused across calls). Post-
  /// ReLU rows are mostly zeros, so this reads a fraction of the weights at
  /// a rate a latency-bound chain sets: its cost tracks the row, not whether
  /// another core's traffic has pushed the weights out of L2, which swings
  /// the vector kernels' cost by up to 2.5x on a shared host. Bitwise identical to forward()
  /// for finite weights: a skipped term w * 0 is a signed zero, and adding
  /// one leaves a sum unchanged except that -0 + +0 is +0, so an output that
  /// ends at zero is recomputed over every input. Inference only, like
  /// forward_batch.
  void forward_sparse_row(const double* in, double* out,
                          std::vector<std::uint32_t>& active) const;

  std::vector<Tensor*> parameters() override { return {&w_, &b_}; }
  std::vector<Tensor*> gradients() override { return {&gw_, &gb_}; }

  std::size_t in_features() const noexcept { return in_; }
  std::size_t out_features() const noexcept { return out_; }

  /// Const parameter access for checkpointing (serialize.h).
  const Tensor& weight() const noexcept { return w_; }
  const Tensor& bias() const noexcept { return b_; }

 private:
  std::size_t in_, out_;
  Tensor w_, b_;    // [out, in], [out]
  Tensor gw_, gb_;
  Tensor last_input_;
};

}  // namespace lingxi::nn
