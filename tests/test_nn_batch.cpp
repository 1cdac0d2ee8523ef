// Exhaustive scalar-vs-batched bitwise parity for the batched inference
// engine: nn layers (Dense, Conv1D, activations), the stall-exit net, the
// full hybrid predictor, and the engagement-state feature cache the batched
// assembly path relies on. "Bitwise" means EXPECT_EQ on doubles — the
// batched kernels must reorder no accumulation, which is what keeps batched
// fleet checksums identical to the scalar path (Low & Lapsley's lesson:
// "equivalent" reformulations drift unless parity is pinned exactly).
//
// Batch sizes cover 1, 2, 7 (odd remainder against the 8-row block of
// Dense::forward_batch), 64, and the empty batch. The Dense kernels'
// dispatch boundaries (lanes across outputs for 1-2 rows, 4- and 8-lane row
// panels above) get their own sweep at the fc1 shape and at tail shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "nn/tensor.h"
#include "predictor/engagement_state.h"
#include "predictor/exit_net.h"
#include "predictor/hybrid.h"
#include "predictor/os_model.h"

namespace lingxi {
namespace {

constexpr std::size_t kBatchSizes[] = {0, 1, 2, 7, 64};

std::vector<double> random_values(std::size_t n, Rng& rng, double lo = -2.0,
                                  double hi = 2.0) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

TEST(DenseBatch, BitwiseParityAcrossBatchSizes) {
  Rng rng(42);
  constexpr std::size_t kIn = 13, kOut = 9;
  nn::Dense layer(kIn, kOut, rng);
  for (const std::size_t batch : kBatchSizes) {
    const std::vector<double> in = random_values(batch * kIn, rng);
    std::vector<double> want;
    want.reserve(batch * kOut);
    for (std::size_t b = 0; b < batch; ++b) {
      const nn::Tensor out = layer.forward(
          nn::Tensor({kIn}, {in.begin() + b * kIn, in.begin() + (b + 1) * kIn}));
      for (std::size_t o = 0; o < kOut; ++o) want.push_back(out[o]);
    }
    std::vector<double> got(batch * kOut, -1.0);
    layer.forward_batch({in.data(), batch, kIn}, {got.data(), batch, kOut});
    for (std::size_t i = 0; i < batch * kOut; ++i) {
      EXPECT_EQ(got[i], want[i]) << "batch " << batch << " element " << i;
    }
  }
}

TEST(DenseBatch, StridedViewsMatchContiguous) {
  Rng rng(7);
  constexpr std::size_t kIn = 6, kOut = 4, kBatch = 7;
  constexpr std::size_t kInStride = 11, kOutStride = 5;
  nn::Dense layer(kIn, kOut, rng);
  const std::vector<double> in = random_values(kBatch * kInStride, rng);
  std::vector<double> got(kBatch * kOutStride, -1.0);
  layer.forward_batch({in.data(), kBatch, kIn, kInStride},
                      {got.data(), kBatch, kOut, kOutStride});
  for (std::size_t b = 0; b < kBatch; ++b) {
    const nn::Tensor out = layer.forward(nn::Tensor(
        {kIn}, {in.begin() + b * kInStride, in.begin() + b * kInStride + kIn}));
    for (std::size_t o = 0; o < kOut; ++o) {
      EXPECT_EQ(got[b * kOutStride + o], out[o]) << "row " << b << " col " << o;
    }
  }
}

TEST(DenseBatch, SimdPanelKernelBitwiseParity) {
  // Batches of >= 8 rows route full blocks through the SIMD panel kernel
  // (lanes across rows, interleaved panel loads); tails fall back to the
  // scalar block templates. Parity must hold bitwise at sizes that mix both
  // paths and at an in_features large enough to exercise long accumulation
  // chains (the fc1-like shape where the kernel matters).
  Rng rng(77);
  constexpr std::size_t kIn = 57, kOut = 11;
  nn::Dense layer(kIn, kOut, rng);
  for (const std::size_t batch : {8, 9, 16, 63, 129}) {
    const std::vector<double> in = random_values(batch * kIn, rng);
    std::vector<double> got(batch * kOut, -1.0);
    layer.forward_batch({in.data(), batch, kIn}, {got.data(), batch, kOut});
    for (std::size_t b = 0; b < batch; ++b) {
      const nn::Tensor want = layer.forward(
          nn::Tensor({kIn}, {in.begin() + b * kIn, in.begin() + (b + 1) * kIn}));
      for (std::size_t o = 0; o < kOut; ++o) {
        EXPECT_EQ(got[b * kOut + o], want[o]) << "batch " << batch << " row " << b
                                              << " col " << o;
      }
    }
  }
}

TEST(DenseBatch, ForcedIsaBitwiseParity) {
  // AVX2 must produce byte-identical outputs to scalar: lanes run across
  // batch rows or across outputs, never along the reduction, so changing
  // the kernel changes nothing about any output's accumulation order.
  // Covers single rows, partial blocks and full 8-row blocks (skipped where
  // the CPU lacks AVX2), then restores the dispatch default.
  const nn::DenseIsa before = nn::dense_isa();
  Rng rng(91);
  constexpr std::size_t kIn = 160, kOut = 17;
  nn::Dense layer(kIn, kOut, rng);
  for (const std::size_t batch : {1, 2, 5, 8, 9, 24, 63}) {
    const std::vector<double> in = random_values(batch * kIn, rng);
    ASSERT_EQ(nn::set_dense_isa_for_testing(nn::DenseIsa::kScalar),
              nn::DenseIsa::kScalar);
    std::vector<double> want(batch * kOut, -1.0);
    layer.forward_batch({in.data(), batch, kIn}, {want.data(), batch, kOut});
    if (!nn::dense_isa_supported(nn::DenseIsa::kAvx2)) continue;
    ASSERT_EQ(nn::set_dense_isa_for_testing(nn::DenseIsa::kAvx2), nn::DenseIsa::kAvx2);
    std::vector<double> got(batch * kOut, -2.0);
    layer.forward_batch({in.data(), batch, kIn}, {got.data(), batch, kOut});
    for (std::size_t i = 0; i < batch * kOut; ++i) {
      ASSERT_EQ(got[i], want[i]) << "batch " << batch << " element " << i;
    }
  }
  nn::set_dense_isa_for_testing(before);
}

// Dense::forward_batch against forward(), row by row, under every supported
// ISA, with contiguous and strided views (strides leave a gap after each
// row that must stay untouched).
void expect_dense_parity_every_isa(std::size_t in, std::size_t out, std::uint64_t seed) {
  const nn::DenseIsa before = nn::dense_isa();
  Rng rng(seed);
  nn::Dense layer(in, out, rng);
  constexpr double kUntouched = -7.0;
  for (const std::size_t rows : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16}) {
    for (const std::size_t gap : {0, 3}) {
      const std::size_t in_stride = in + gap;
      const std::size_t out_stride = out + gap;
      const std::vector<double> x = random_values(rows * in_stride, rng);
      std::vector<nn::Tensor> want;
      for (std::size_t b = 0; b < rows; ++b) {
        want.push_back(layer.forward(nn::Tensor(
            {in}, {x.begin() + b * in_stride, x.begin() + b * in_stride + in})));
      }
      for (const nn::DenseIsa isa : {nn::DenseIsa::kScalar, nn::DenseIsa::kAvx2}) {
        if (!nn::dense_isa_supported(isa)) continue;
        ASSERT_EQ(nn::set_dense_isa_for_testing(isa), isa);
        std::vector<double> got(rows * out_stride, kUntouched);
        layer.forward_batch({x.data(), rows, in, in_stride},
                            {got.data(), rows, out, out_stride});
        for (std::size_t b = 0; b < rows; ++b) {
          for (std::size_t o = 0; o < out_stride; ++o) {
            const double expected = o < out ? want[b][o] : kUntouched;
            ASSERT_EQ(got[b * out_stride + o], expected)
                << in << "->" << out << " " << nn::dense_isa_name(isa) << " rows " << rows
                << " gap " << gap << " row " << b << " col " << o;
          }
        }
      }
    }
  }
  nn::set_dense_isa_for_testing(before);
}

TEST(DenseBatch, Fc1ShapeParityAtDispatchBoundaries) {
  // The stall-exit net's fc1 (1600 -> 64): four whole 4x4-transpose groups
  // per output pass and whole row-panel passes, the shape the fleet runs.
  expect_dense_parity_every_isa(1600, 64, 501);
}

TEST(DenseBatch, TailShapeParityAtDispatchBoundaries) {
  // Shapes that leave remainders everywhere: `in` not a multiple of 4
  // (transpose tail), `out` not a multiple of a pass (single-group passes
  // and scalar output tails), and fc2's 64 -> 2 head that fits no group.
  expect_dense_parity_every_isa(13, 9, 502);
  expect_dense_parity_every_isa(64, 2, 503);
  expect_dense_parity_every_isa(1601, 23, 504);
  expect_dense_parity_every_isa(6, 7, 505);
}

// forward_sparse_row against forward(), bit for bit (the sign of zeros
// included), on rows with mostly-zero inputs of both signs.
void expect_sparse_row_parity(nn::Dense& layer, const std::vector<double>& x) {
  const std::size_t out = layer.out_features();
  const nn::Tensor want = layer.forward(nn::Tensor({layer.in_features()}, x));
  std::vector<std::uint32_t> active;
  std::vector<double> got(out, -1.0);
  layer.forward_sparse_row(x.data(), got.data(), active);
  for (std::size_t o = 0; o < out; ++o) {
    ASSERT_EQ(got[o], want[o]) << layer.in_features() << "->" << out << " col " << o;
    ASSERT_EQ(std::signbit(got[o]), std::signbit(want[o])) << "col " << o;
  }
}

TEST(DenseSparseRow, BitwiseParityWithForward) {
  Rng rng(601);
  for (const auto& [in, out] : {std::pair<std::size_t, std::size_t>{1600, 64},
                                {13, 9},
                                {64, 2}}) {
    nn::Dense layer(in, out, rng);
    for (const double zero_share : {0.0, 0.6, 0.95, 1.0}) {
      std::vector<double> x = random_values(in, rng);
      for (double& v : x) {
        if (rng.bernoulli(zero_share)) v = rng.bernoulli(0.5) ? 0.0 : -0.0;
      }
      expect_sparse_row_parity(layer, x);
    }
  }
}

TEST(DenseSparseRow, ZeroSumTakesTheFullChainsSign) {
  // forward() on an all-zero row from a -0 bias: -0 + (+0) is +0, so the
  // output's sign depends on the skipped terms — the recompute must agree.
  Rng rng(602);
  nn::Dense layer(8, 4, rng);
  nn::Tensor& bias = *layer.parameters()[1];
  for (std::size_t o = 0; o < bias.size(); ++o) bias[o] = -0.0;
  nn::Tensor& weight = *layer.parameters()[0];
  weight[0] = -weight[0];  // mixed signs
  weight[9] = -weight[9];
  expect_sparse_row_parity(layer, std::vector<double>(8, 0.0));
  expect_sparse_row_parity(layer, std::vector<double>(8, -0.0));
}

TEST(DenseIsa, ClampsToSupportAndReportsNames) {
  const nn::DenseIsa before = nn::dense_isa();
  EXPECT_STREQ(nn::dense_isa_name(nn::DenseIsa::kScalar), "scalar");
  EXPECT_STREQ(nn::dense_isa_name(nn::DenseIsa::kAvx2), "avx2");
  EXPECT_TRUE(nn::dense_isa_supported(nn::DenseIsa::kScalar));
  // Requesting any ISA yields a supported one no wider than the request.
  for (const nn::DenseIsa isa : {nn::DenseIsa::kScalar, nn::DenseIsa::kAvx2}) {
    const nn::DenseIsa got = nn::set_dense_isa_for_testing(isa);
    EXPECT_TRUE(nn::dense_isa_supported(got));
    EXPECT_LE(static_cast<int>(got), static_cast<int>(isa));
    EXPECT_EQ(nn::dense_isa(), got);
  }
  nn::set_dense_isa_for_testing(before);
}

TEST(Conv1DBatch, BitwiseParityAcrossBatchSizes) {
  Rng rng(17);
  constexpr std::size_t kInCh = 2, kOutCh = 5, kKernel = 3, kLen = 10;
  constexpr std::size_t kInCols = kInCh * kLen;
  constexpr std::size_t kOutCols = kOutCh * (kLen - kKernel + 1);
  nn::Conv1D layer(kInCh, kOutCh, kKernel, rng);
  for (const std::size_t batch : kBatchSizes) {
    const std::vector<double> in = random_values(batch * kInCols, rng);
    std::vector<double> want;
    want.reserve(batch * kOutCols);
    for (std::size_t b = 0; b < batch; ++b) {
      const nn::Tensor out = layer.forward(nn::Tensor(
          {kInCh, kLen}, {in.begin() + b * kInCols, in.begin() + (b + 1) * kInCols}));
      for (std::size_t i = 0; i < kOutCols; ++i) want.push_back(out[i]);
    }
    std::vector<double> got(batch * kOutCols, -1.0);
    layer.forward_batch({in.data(), batch, kInCols}, {got.data(), batch, kOutCols});
    for (std::size_t i = 0; i < batch * kOutCols; ++i) {
      EXPECT_EQ(got[i], want[i]) << "batch " << batch << " element " << i;
    }
  }
}

TEST(Conv1DBatch, ChannelVectorizedParityWithStridedViews) {
  // The exit-net branch shape (1 -> 64 channels, kernel 4, length 8: eight
  // whole 8-channel blocks) and a multi-input shape with a channel tail
  // (3 -> 13: one block plus five scalar channels), read and written through
  // strided views.
  struct Shape {
    std::size_t in_ch, out_ch, kernel, len;
  };
  Rng rng(29);
  for (const Shape shape : {Shape{1, 64, 4, 8}, Shape{3, 13, 2, 6}}) {
    nn::Conv1D layer(shape.in_ch, shape.out_ch, shape.kernel, rng);
    const std::size_t in_cols = shape.in_ch * shape.len;
    const std::size_t out_cols = shape.out_ch * (shape.len - shape.kernel + 1);
    for (const std::size_t batch : {1, 3, 9}) {
      const std::size_t in_stride = in_cols + 2, out_stride = out_cols + 1;
      const std::vector<double> in = random_values(batch * in_stride, rng);
      std::vector<double> got(batch * out_stride, -1.0);
      layer.forward_batch({in.data(), batch, in_cols, in_stride},
                          {got.data(), batch, out_cols, out_stride});
      for (std::size_t b = 0; b < batch; ++b) {
        const nn::Tensor want = layer.forward(nn::Tensor(
            {shape.in_ch, shape.len},
            {in.begin() + b * in_stride, in.begin() + b * in_stride + in_cols}));
        for (std::size_t i = 0; i < out_cols; ++i) {
          EXPECT_EQ(got[b * out_stride + i], want[i])
              << shape.out_ch << " channels, batch " << batch << " row " << b
              << " element " << i;
        }
        EXPECT_EQ(got[b * out_stride + out_cols], -1.0) << "stride gap written";
      }
    }
  }
}

TEST(ActivationBatch, ReluAndSoftmaxRowsMatchScalar) {
  Rng rng(23);
  constexpr std::size_t kCols = 5;
  for (const std::size_t batch : kBatchSizes) {
    const std::vector<double> in = random_values(batch * kCols, rng, -3.0, 3.0);

    std::vector<double> relu_got = in;
    nn::relu_rows({relu_got.data(), batch, kCols});
    std::vector<double> soft_got = in;
    nn::softmax_rows({soft_got.data(), batch, kCols});

    nn::ReLU relu;
    for (std::size_t b = 0; b < batch; ++b) {
      const nn::Tensor row(
          {kCols}, {in.begin() + b * kCols, in.begin() + (b + 1) * kCols});
      const nn::Tensor relu_want = relu.forward(row);
      const nn::Tensor soft_want = nn::softmax(row);
      for (std::size_t i = 0; i < kCols; ++i) {
        EXPECT_EQ(relu_got[b * kCols + i], relu_want[i]);
        EXPECT_EQ(soft_got[b * kCols + i], soft_want[i]);
      }
    }
  }
}

TEST(StallExitNetBatch, BitwiseParityAcrossBatchSizes) {
  Rng rng(99);
  predictor::StallExitNet net(rng);
  constexpr std::size_t kFeat = predictor::kChannels * predictor::kHistoryLen;
  predictor::StallExitNet::BatchWorkspace ws;  // shared across calls
  for (const std::size_t batch : kBatchSizes) {
    const std::vector<double> feats = random_values(batch * kFeat, rng, 0.0, 1.0);
    std::vector<double> got(batch, -1.0);
    net.predict_batch({feats.data(), batch, kFeat}, got.data(), &ws);
    for (std::size_t b = 0; b < batch; ++b) {
      const double want = net.predict(nn::Tensor(
          {predictor::kChannels, predictor::kHistoryLen},
          {feats.begin() + b * kFeat, feats.begin() + (b + 1) * kFeat}));
      EXPECT_EQ(got[b], want) << "batch " << batch << " row " << b;
      EXPECT_EQ(net.predict_row(feats.data() + b * kFeat, &ws), want)
          << "batch " << batch << " row " << b;
    }
  }
}

sim::SegmentRecord make_segment(std::size_t index, double bitrate, double throughput,
                                double stall) {
  sim::SegmentRecord seg;
  seg.index = index;
  seg.level = index % 4;
  seg.bitrate = bitrate;
  seg.throughput = throughput;
  seg.stall_time = stall;
  return seg;
}

/// A deterministic engagement history with stalls and stall exits mixed in.
predictor::EngagementState make_state(std::uint64_t seed, std::size_t segments) {
  Rng rng(seed);
  predictor::EngagementState state;
  state.begin_session();
  for (std::size_t i = 0; i < segments; ++i) {
    const double stall = rng.bernoulli(0.3) ? rng.uniform(0.1, 4.0) : 0.0;
    state.on_segment(
        make_segment(i, rng.uniform(300.0, 4000.0), rng.uniform(500.0, 8000.0), stall),
        1.0);
    if (stall > 0.0 && rng.bernoulli(0.25)) state.on_stall_exit();
  }
  return state;
}

TEST(EngagementFeatures, WriteFeaturesMatchesTensorAndCacheStaysFresh) {
  // One state queried after every segment (long-term row cache constantly
  // reused/invalidated) must match a twin fed the same history but queried
  // only once at each step from scratch.
  Rng rng(5);
  predictor::EngagementState cached;
  cached.begin_session();
  predictor::EngagementState shadow;
  shadow.begin_session();
  for (std::size_t i = 0; i < 40; ++i) {
    const double stall = rng.bernoulli(0.4) ? rng.uniform(0.06, 3.0) : 0.0;
    const auto seg =
        make_segment(i, rng.uniform(300.0, 4000.0), rng.uniform(500.0, 8000.0), stall);
    cached.on_segment(seg, 1.0);
    shadow.on_segment(seg, 1.0);
    if (stall > 0.0 && rng.bernoulli(0.3)) {
      cached.on_stall_exit();
      shadow.on_stall_exit();
    }

    const nn::Tensor from_cached = cached.features();  // exercises the cache
    const nn::Tensor from_shadow = shadow.features();
    double raw[predictor::kChannels * predictor::kHistoryLen];
    cached.write_features(raw);
    ASSERT_EQ(from_cached.size(), from_shadow.size());
    for (std::size_t k = 0; k < from_cached.size(); ++k) {
      EXPECT_EQ(from_cached[k], from_shadow[k]) << "segment " << i << " feature " << k;
      EXPECT_EQ(raw[k], from_shadow[k]) << "segment " << i << " feature " << k;
    }
  }
}

TEST(HybridPredictorBatch, BitwiseParityAcrossBatchSizes) {
  Rng rng(123);
  auto net = std::make_shared<predictor::StallExitNet>(rng);
  auto os = std::make_shared<predictor::OverallStatsModel>();
  // Seed the OS model so its buckets are non-trivial.
  for (std::size_t i = 0; i < 500; ++i) {
    os->observe(i % 4, static_cast<predictor::SwitchType>(i % 3), rng.bernoulli(0.05));
  }
  const predictor::HybridExitPredictor predictor(net, os);

  // A pool of distinct states; queries mix stalled and non-stalled segments.
  std::vector<predictor::EngagementState> states;
  for (std::uint64_t s = 0; s < 9; ++s) states.push_back(make_state(1000 + s, 30));

  predictor::HybridExitPredictor::BatchScratch scratch;
  for (const std::size_t batch : kBatchSizes) {
    std::vector<predictor::HybridExitPredictor::ExitQuery> queries;
    for (std::size_t i = 0; i < batch; ++i) {
      predictor::HybridExitPredictor::ExitQuery q;
      q.state = &states[i % states.size()];
      q.level = i % 4;
      q.stall_time = i % 3 == 0 ? 0.0 : 0.1 + 0.2 * static_cast<double>(i % 5);
      q.sw = static_cast<predictor::SwitchType>(i % 3);
      queries.push_back(q);
    }
    std::vector<double> got(batch, -1.0);
    predictor.predict_batch(batch, queries.data(), got.data(), &scratch);
    for (std::size_t i = 0; i < batch; ++i) {
      // Oracle: the training forward through the same OS lookup and blend.
      const auto& q = queries[i];
      const double want =
          q.stall_time <= predictor::HybridExitPredictor::kNnStallThreshold
              ? std::clamp(os->predict(q.level, q.sw), 0.0, 1.0)
              : predictor.finish_stalled(q, net->predict(q.state->features()));
      EXPECT_EQ(got[i], want) << "batch " << batch << " query " << i;
      EXPECT_EQ(predictor.predict(q), want) << "batch " << batch << " query " << i;
    }
  }
}

}  // namespace
}  // namespace lingxi
