#include "nn/conv1d.h"

#include <vector>

#if defined(__GNUC__)
// Baseline 16-byte generic vectors: wider generic vectors get split into
// stack-spilling sequences on pre-AVX codegen.
#define LINGXI_CONV_SIMD 1
typedef double v2df __attribute__((vector_size(16)));
#endif

namespace lingxi::nn {

Conv1D::Conv1D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel, Rng& rng)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel),
      w_({out_channels, in_channels, kernel}),
      b_({out_channels}),
      gw_({out_channels, in_channels, kernel}),
      gb_({out_channels}) {
  LINGXI_ASSERT(kernel_ > 0);
  he_init(w_, in_channels * kernel, rng);
}

Tensor Conv1D::forward(const Tensor& input) {
  LINGXI_ASSERT(input.rank() == 2 && input.dim(0) == in_ch_);
  const std::size_t len = input.dim(1);
  LINGXI_ASSERT(len >= kernel_);
  last_input_ = input;
  const std::size_t out_len = len - kernel_ + 1;
  Tensor out({out_ch_, out_len});
  for (std::size_t oc = 0; oc < out_ch_; ++oc) {
    for (std::size_t t = 0; t < out_len; ++t) {
      double acc = b_[oc];
      for (std::size_t ic = 0; ic < in_ch_; ++ic) {
        for (std::size_t k = 0; k < kernel_; ++k) {
          acc += w_.at(oc, ic, k) * input.at(ic, t + k);
        }
      }
      out.at(oc, t) = acc;
    }
  }
  return out;
}

void Conv1D::forward_batch(ConstBatchView in, BatchView out) const {
  LINGXI_ASSERT(in.rows == out.rows);
  LINGXI_ASSERT(in_ch_ > 0 && in.cols % in_ch_ == 0);
  const std::size_t len = in.cols / in_ch_;
  LINGXI_ASSERT(len >= kernel_);
  const std::size_t out_len = len - kernel_ + 1;
  LINGXI_ASSERT(out.cols == out_ch_ * out_len);
  const double* w = w_.data();
  const double* bias = b_.data();
  const std::size_t taps = in_ch_ * kernel_;
#ifdef LINGXI_CONV_SIMD
  // Weights transposed to [tap][oc], tap = ic * kernel + k, so eight
  // consecutive output channels load as four contiguous 2-lane vectors.
  static thread_local std::vector<double> wt;
  wt.resize(taps * out_ch_);
  for (std::size_t oc = 0; oc < out_ch_; ++oc) {
    for (std::size_t tap = 0; tap < taps; ++tap) wt[tap * out_ch_ + oc] = w[oc * taps + tap];
  }
#endif
  for (std::size_t b = 0; b < in.rows; ++b) {
    const double* src = in.row(b);
    double* dst = out.row(b);
    for (std::size_t t = 0; t < out_len; ++t) {
      std::size_t oc = 0;
#ifdef LINGXI_CONV_SIMD
      // Lanes run across output channels, never along the (ic, k)
      // reduction: each lane performs forward()'s exact accumulation
      // sequence for its (oc, t) output.
      for (; oc + 8 <= out_ch_; oc += 8) {
        v2df acc0, acc1, acc2, acc3;
        __builtin_memcpy(&acc0, bias + oc, sizeof acc0);
        __builtin_memcpy(&acc1, bias + oc + 2, sizeof acc1);
        __builtin_memcpy(&acc2, bias + oc + 4, sizeof acc2);
        __builtin_memcpy(&acc3, bias + oc + 6, sizeof acc3);
        for (std::size_t ic = 0; ic < in_ch_; ++ic) {
          for (std::size_t k = 0; k < kernel_; ++k) {
            const double xs = src[ic * len + t + k];
            const v2df x = {xs, xs};
            const double* wk = wt.data() + (ic * kernel_ + k) * out_ch_ + oc;
            v2df w0, w1, w2, w3;
            __builtin_memcpy(&w0, wk, sizeof w0);
            __builtin_memcpy(&w1, wk + 2, sizeof w1);
            __builtin_memcpy(&w2, wk + 4, sizeof w2);
            __builtin_memcpy(&w3, wk + 6, sizeof w3);
            acc0 += w0 * x;
            acc1 += w1 * x;
            acc2 += w2 * x;
            acc3 += w3 * x;
          }
        }
        double* d = dst + oc * out_len + t;
        d[0] = acc0[0];
        d[out_len] = acc0[1];
        d[2 * out_len] = acc1[0];
        d[3 * out_len] = acc1[1];
        d[4 * out_len] = acc2[0];
        d[5 * out_len] = acc2[1];
        d[6 * out_len] = acc3[0];
        d[7 * out_len] = acc3[1];
      }
#endif
      for (; oc < out_ch_; ++oc) {
        const double* wo = w + oc * taps;
        double acc = bias[oc];
        for (std::size_t ic = 0; ic < in_ch_; ++ic) {
          for (std::size_t k = 0; k < kernel_; ++k) {
            acc += wo[ic * kernel_ + k] * src[ic * len + t + k];
          }
        }
        dst[oc * out_len + t] = acc;
      }
    }
  }
}

Tensor Conv1D::backward(const Tensor& grad_output) {
  const std::size_t len = last_input_.dim(1);
  const std::size_t out_len = len - kernel_ + 1;
  LINGXI_ASSERT(grad_output.rank() == 2 && grad_output.dim(0) == out_ch_ &&
                grad_output.dim(1) == out_len);
  Tensor grad_in({in_ch_, len});
  for (std::size_t oc = 0; oc < out_ch_; ++oc) {
    for (std::size_t t = 0; t < out_len; ++t) {
      const double go = grad_output.at(oc, t);
      gb_[oc] += go;
      for (std::size_t ic = 0; ic < in_ch_; ++ic) {
        for (std::size_t k = 0; k < kernel_; ++k) {
          gw_.at(oc, ic, k) += go * last_input_.at(ic, t + k);
          grad_in.at(ic, t + k) += go * w_.at(oc, ic, k);
        }
      }
    }
  }
  return grad_in;
}

}  // namespace lingxi::nn
