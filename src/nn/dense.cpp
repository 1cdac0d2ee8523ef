#include "nn/dense.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#if defined(__GNUC__) && defined(__x86_64__)
#define LINGXI_DENSE_X86 1
#include <immintrin.h>
#endif

namespace lingxi::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      w_({out_features, in_features}),
      b_({out_features}),
      gw_({out_features, in_features}),
      gb_({out_features}) {
  he_init(w_, in_features, rng);
}

Tensor Dense::forward(const Tensor& input) {
  LINGXI_ASSERT(input.rank() == 1 && input.dim(0) == in_);
  last_input_ = input;
  Tensor out({out_});
  for (std::size_t o = 0; o < out_; ++o) {
    double acc = b_[o];
    const double* wrow = w_.data() + o * in_;
    for (std::size_t i = 0; i < in_; ++i) acc += wrow[i] * input[i];
    out[o] = acc;
  }
  return out;
}

namespace {

// One block of BN batch rows against weight rows [o_begin, o_end). BN is a
// compile-time constant so the per-weight inner loop fully unrolls into BN
// independent fused-multiply chains — a runtime-bounded inner loop here
// costs ~3x (measured) because it defeats unrolling. Each chain accumulates
// in the same order as the scalar forward(), preserving bitwise parity.
template <std::size_t BN>
void dense_block(const double* w, const double* bias, std::size_t in_features,
                 std::size_t o_begin, std::size_t o_end, const double* const* rows,
                 double* const* dst) {
  for (std::size_t o = o_begin; o < o_end; ++o) {
    const double* wrow = w + o * in_features;
    double acc[BN];
    for (std::size_t j = 0; j < BN; ++j) acc[j] = bias[o];
    for (std::size_t i = 0; i < in_features; ++i) {
      const double wi = wrow[i];
      for (std::size_t j = 0; j < BN; ++j) acc[j] += wi * rows[j][i];
    }
    for (std::size_t j = 0; j < BN; ++j) dst[j][o] = acc[j];
  }
}

#ifdef LINGXI_DENSE_X86
// AVX2 kernels, runtime-dispatched (the build stays baseline x86-64; the
// target attribute lets these functions use AVX2). This file is compiled
// with -ffp-contract=off, so no mul-then-add below can fuse into an FMA (a
// fused step skips the intermediate rounding the scalar path takes and
// would break bitwise parity).
//
// At the block sizes the fleet runs (1-7 rows) a dense layer is bound by
// add latency, not by weight traffic: every output is one serial chain of
// in_features dependent adds. The AVX2 kernels therefore keep at least
// eight independent chains in flight at every block size, and every lane
// still runs forward()'s exact `acc = b[o]; acc += w[o][i] * x[i]` sequence
// in ascending i.

// acc_r += col * x_r[i] for the block's R (1 or 2) rows; a1 is unused when
// R == 1.
template <std::size_t R>
__attribute__((target("avx2"), always_inline)) inline void madd_column(
    __m256d& a0, __m256d& a1, __m256d col, const double* const* rows, std::size_t i) {
  a0 = _mm256_add_pd(a0, _mm256_mul_pd(col, _mm256_broadcast_sd(rows[0] + i)));
  if constexpr (R == 2) {
    a1 = _mm256_add_pd(a1, _mm256_mul_pd(col, _mm256_broadcast_sd(rows[1] + i)));
  }
}

// Four consecutive weights w[i..i+3] of four output rows `stride` apart,
// transposed in registers (128-bit half loads + unpacks) so column j holds
// the four rows' weight i+j, then accumulated in ascending i.
template <std::size_t R>
__attribute__((target("avx2"), always_inline)) inline void madd_4x4(
    __m256d& a0, __m256d& a1, const double* w, std::size_t stride, const double* const* rows,
    std::size_t i) {
  const double* w1 = w + stride;
  const double* w2 = w1 + stride;
  const double* w3 = w2 + stride;
  // lo01 = (w[0], w[1], w2[0], w2[1]), hi01 = (w1[0], w1[1], w3[0], w3[1]):
  // unpacklo/unpackhi interleave them into columns 0 and 1.
  const __m256d lo01 =
      _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(w)), _mm_loadu_pd(w2), 1);
  const __m256d hi01 =
      _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(w1)), _mm_loadu_pd(w3), 1);
  const __m256d lo23 =
      _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(w + 2)), _mm_loadu_pd(w2 + 2), 1);
  const __m256d hi23 =
      _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(w1 + 2)), _mm_loadu_pd(w3 + 2), 1);
  madd_column<R>(a0, a1, _mm256_unpacklo_pd(lo01, hi01), rows, i);
  madd_column<R>(a0, a1, _mm256_unpackhi_pd(lo01, hi01), rows, i + 1);
  madd_column<R>(a0, a1, _mm256_unpacklo_pd(lo23, hi23), rows, i + 2);
  madd_column<R>(a0, a1, _mm256_unpackhi_pd(lo23, hi23), rows, i + 3);
}

// 1-2 row blocks: lanes run ACROSS OUTPUTS. Group G covers the four output
// rows o + 4G .. o + 4G + 3, and all sizeof...(G) groups run per pass; one
// transpose feeds both rows of a 2-row block. The accumulators are unrolled
// by pack expansion rather than loops: GCC keeps a loop-indexed array of
// vectors in memory, storing accumulators to the stack on every step.
template <std::size_t R, std::size_t... G>
__attribute__((target("avx2"))) void dense_outputs_avx2(
    std::index_sequence<G...>, const double* w, const double* bias, std::size_t in_features,
    std::size_t o, const double* const* rows, double* const* dst) {
  __m256d acc0[] = {_mm256_loadu_pd(bias + o + 4 * G)...};
  __m256d acc1[] = {acc0[G]...};
  const std::size_t in4 = in_features - in_features % 4;
  for (std::size_t i = 0; i < in4; i += 4) {
    (madd_4x4<R>(acc0[G], acc1[G], w + (o + 4 * G) * in_features + i, in_features, rows, i),
     ...);
  }
  for (std::size_t i = in4; i < in_features; ++i) {
    (madd_column<R>(acc0[G], acc1[G],
                    _mm256_set_pd(w[(o + 4 * G + 3) * in_features + i],
                                  w[(o + 4 * G + 2) * in_features + i],
                                  w[(o + 4 * G + 1) * in_features + i],
                                  w[(o + 4 * G) * in_features + i]),
                    rows, i),
     ...);
  }
  (_mm256_storeu_pd(dst[0] + o + 4 * G, acc0[G]), ...);
  if constexpr (R == 2) (_mm256_storeu_pd(dst[1] + o + 4 * G, acc1[G]), ...);
}

// 3-8 row blocks: lanes run ACROSS ROWS of an interleaved [in][4*V] panel
// (V = 1 up to 4 rows, 2 above, so the panel fits the block; padding lanes
// are zero and never stored). Each pass covers sizeof...(K) / V outputs;
// accumulator K serves output K / V, panel vector K % V (unrolled by pack
// expansion, as above).
template <std::size_t V, std::size_t... K>
__attribute__((target("avx2"))) void dense_rows_avx2(
    std::index_sequence<K...>, const double* w, const double* bias, std::size_t in_features,
    std::size_t o, const double* panel, std::size_t bn, double* const* dst) {
  constexpr std::size_t kWidth = 4 * V;
  constexpr std::size_t kOutputs = sizeof...(K) / V;
  __m256d acc[] = {_mm256_set1_pd(bias[o + K / V])...};
  for (std::size_t i = 0; i < in_features; ++i) {
    const double* p = panel + kWidth * i;
    ((acc[K] = _mm256_add_pd(
          acc[K], _mm256_mul_pd(_mm256_broadcast_sd(w + (o + K / V) * in_features + i),
                                _mm256_loadu_pd(p + 4 * (K % V))))),
     ...);
  }
  double lanes[kOutputs][kWidth];
  (_mm256_storeu_pd(&lanes[K / V][4 * (K % V)], acc[K]), ...);
  for (std::size_t j = 0; j < bn; ++j) {
    for (std::size_t k = 0; k < kOutputs; ++k) dst[j][o + k] = lanes[k][j];
  }
}

// All outputs of a 1-2-row block: passes of 4 / R groups of four outputs
// (sixteen chains either way), then single groups, then the scalar chains
// for the last out % 4 outputs.
template <std::size_t R>
__attribute__((target("avx2"))) void dense_outputs_passes_avx2(
    const double* w, const double* bias, std::size_t in_features, std::size_t out_features,
    const double* const* rows, double* const* dst) {
  constexpr std::size_t kGroups = 4 / R;
  std::size_t o = 0;
  for (; o + 4 * kGroups <= out_features; o += 4 * kGroups) {
    dense_outputs_avx2<R>(std::make_index_sequence<kGroups>{}, w, bias, in_features, o, rows,
                          dst);
  }
  for (; o + 4 <= out_features; o += 4) {
    dense_outputs_avx2<R>(std::make_index_sequence<1>{}, w, bias, in_features, o, rows, dst);
  }
  dense_block<R>(w, bias, in_features, o, out_features, rows, dst);
}

// All outputs of a 3-8-row block on a 4*V-lane panel: passes of 8 / V
// outputs (eight accumulators), then one output a pass.
template <std::size_t V>
__attribute__((target("avx2"))) void dense_rows_passes_avx2(
    const double* w, const double* bias, std::size_t in_features, std::size_t out_features,
    const double* panel, std::size_t bn, double* const* dst) {
  std::size_t o = 0;
  for (; o + 8 / V <= out_features; o += 8 / V) {
    dense_rows_avx2<V>(std::make_index_sequence<8>{}, w, bias, in_features, o, panel, bn, dst);
  }
  for (; o < out_features; ++o) {
    dense_rows_avx2<V>(std::make_index_sequence<V>{}, w, bias, in_features, o, panel, bn, dst);
  }
}

// One block of 1-8 rows on AVX2.
__attribute__((target("avx2"))) void dense_block_avx2(
    const double* w, const double* bias, std::size_t in_features, std::size_t out_features,
    const double* const* rows, std::size_t bn, double* const* dst, double* panel) {
  if (bn == 1) return dense_outputs_passes_avx2<1>(w, bias, in_features, out_features, rows, dst);
  if (bn == 2) return dense_outputs_passes_avx2<2>(w, bias, in_features, out_features, rows, dst);
  const std::size_t width = bn <= 4 ? 4 : 8;
  for (std::size_t i = 0; i < in_features; ++i) {
    double* p = panel + width * i;
    std::size_t j = 0;
    for (; j < bn; ++j) p[j] = rows[j][i];
    for (; j < width; ++j) p[j] = 0.0;
  }
  if (width == 4) {
    dense_rows_passes_avx2<1>(w, bias, in_features, out_features, panel, bn, dst);
  } else {
    dense_rows_passes_avx2<2>(w, bias, in_features, out_features, panel, bn, dst);
  }
}

#endif  // LINGXI_DENSE_X86

// Active ISA: -1 = undecided (read LINGXI_DENSE_ISA on first use).
std::atomic<int> g_dense_isa{-1};

DenseIsa clamp_to_supported(DenseIsa want) noexcept {
  int v = static_cast<int>(want);
  while (v > 0 && !dense_isa_supported(static_cast<DenseIsa>(v))) --v;
  return static_cast<DenseIsa>(v);
}

}  // namespace

const char* dense_isa_name(DenseIsa isa) noexcept {
  switch (isa) {
    case DenseIsa::kScalar: return "scalar";
    case DenseIsa::kAvx2: return "avx2";
  }
  return "unknown";
}

bool dense_isa_supported(DenseIsa isa) noexcept {
  switch (isa) {
    case DenseIsa::kScalar:
      return true;
    case DenseIsa::kAvx2:
#ifdef LINGXI_DENSE_X86
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

DenseIsa dense_isa() noexcept {
  int v = g_dense_isa.load(std::memory_order_relaxed);
  if (v < 0) {
    // Unset or unrecognized values take the widest supported ISA.
    DenseIsa want = DenseIsa::kAvx2;
    if (const char* e = std::getenv("LINGXI_DENSE_ISA");
        e != nullptr && std::strcmp(e, "scalar") == 0) {
      want = DenseIsa::kScalar;
    }
    v = static_cast<int>(clamp_to_supported(want));
    g_dense_isa.store(v, std::memory_order_relaxed);
  }
  return static_cast<DenseIsa>(v);
}

DenseIsa set_dense_isa_for_testing(DenseIsa isa) noexcept {
  const DenseIsa got = clamp_to_supported(isa);
  g_dense_isa.store(static_cast<int>(got), std::memory_order_relaxed);
  return got;
}

void Dense::forward_sparse_row(const double* in, double* out,
                              std::vector<std::uint32_t>& active) const {
  active.clear();
  for (std::size_t i = 0; i < in_; ++i) {
    if (in[i] != 0.0) active.push_back(static_cast<std::uint32_t>(i));
  }
  for (std::size_t o = 0; o < out_; ++o) {
    const double* wrow = w_.data() + o * in_;
    double acc = b_[o];
    for (const std::uint32_t i : active) acc += wrow[i] * in[i];
    if (acc == 0.0) {
      // Only the sign of a zero can differ from forward(): take its chain.
      acc = b_[o];
      for (std::size_t i = 0; i < in_; ++i) acc += wrow[i] * in[i];
    }
    out[o] = acc;
  }
}

void Dense::forward_batch(ConstBatchView in, BatchView out) const {
  LINGXI_ASSERT(in.rows == out.rows);
  LINGXI_ASSERT(in.cols == in_ && out.cols == out_);
  constexpr std::size_t kBlock = 8;
#ifdef LINGXI_DENSE_X86
  const bool avx2 = dense_isa() == DenseIsa::kAvx2;
  // Interleaved row panel for the 3-8-row AVX2 kernels, reused across
  // blocks (and calls) so a lockstep Monte Carlo run allocates it once per
  // thread.
  static thread_local std::vector<double> panel;
  if (avx2) panel.resize(kBlock * in_);
#endif
  std::size_t b0 = 0;
  while (b0 < in.rows) {
    const std::size_t bn = std::min(kBlock, in.rows - b0);
    const double* rows[kBlock];
    double* dst[kBlock];
    for (std::size_t j = 0; j < bn; ++j) {
      rows[j] = in.row(b0 + j);
      dst[j] = out.row(b0 + j);
    }
#ifdef LINGXI_DENSE_X86
    if (avx2) {
      dense_block_avx2(w_.data(), b_.data(), in_, out_, rows, bn, dst, panel.data());
      b0 += bn;
      continue;
    }
#endif
    switch (bn) {
      case 1: dense_block<1>(w_.data(), b_.data(), in_, 0, out_, rows, dst); break;
      case 2: dense_block<2>(w_.data(), b_.data(), in_, 0, out_, rows, dst); break;
      case 3: dense_block<3>(w_.data(), b_.data(), in_, 0, out_, rows, dst); break;
      case 4: dense_block<4>(w_.data(), b_.data(), in_, 0, out_, rows, dst); break;
      case 5: dense_block<5>(w_.data(), b_.data(), in_, 0, out_, rows, dst); break;
      case 6: dense_block<6>(w_.data(), b_.data(), in_, 0, out_, rows, dst); break;
      case 7: dense_block<7>(w_.data(), b_.data(), in_, 0, out_, rows, dst); break;
      default: dense_block<8>(w_.data(), b_.data(), in_, 0, out_, rows, dst); break;
    }
    b0 += bn;
  }
}

Tensor Dense::backward(const Tensor& grad_output) {
  LINGXI_ASSERT(grad_output.rank() == 1 && grad_output.dim(0) == out_);
  LINGXI_ASSERT(last_input_.size() == in_);
  Tensor grad_in({in_});
  for (std::size_t o = 0; o < out_; ++o) {
    const double go = grad_output[o];
    gb_[o] += go;
    double* gwrow = gw_.data() + o * in_;
    const double* wrow = w_.data() + o * in_;
    for (std::size_t i = 0; i < in_; ++i) {
      gwrow[i] += go * last_input_[i];
      grad_in[i] += go * wrow[i];
    }
  }
  return grad_in;
}

}  // namespace lingxi::nn
