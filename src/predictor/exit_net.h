// The personalized stall-exit network (§3.3, Fig. 7).
//
// Architecture, verbatim from the paper: each of the five input dimensions
// passes through its own 1D-CNN (1 -> 64 channels, kernel 1x4) over the
// length-8 history; the five feature maps are merged (flatten + concat) and
// fed to a 64-unit fully connected layer, then a 2-unit layer; softmax gives
// [P(continue), P(exit)].
#pragma once

#include <cstdint>
#include <vector>

#include "nn/activations.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "predictor/engagement_state.h"

namespace lingxi::predictor {

class StallExitNet {
 public:
  explicit StallExitNet(Rng& rng);

  /// P(exit) for a 5x8 feature tensor — the training forward: it allocates
  /// per layer and writes the caches backward() reads. Inference goes
  /// through predict_batch / predict_row; this stays for training and as
  /// their test oracle.
  double predict(const nn::Tensor& features);
  /// Raw logits [continue, exit] (training forward).
  nn::Tensor logits(const nn::Tensor& features);

  /// Reusable scratch for predict_batch: the merged / hidden / logit
  /// matrices, kept by callers that evaluate many batches (one lockstep
  /// Monte Carlo step each) so the buffers are allocated once.
  struct BatchWorkspace {
    std::vector<double> merged;
    std::vector<double> hidden;
    std::vector<double> logits;
    std::vector<std::uint32_t> active;  ///< predict_row's non-zero fc1 inputs
  };

  /// Batched P(exit): each row of `features` is one 5x8 feature matrix
  /// flattened row-major (the layout EngagementState::write_features emits).
  /// Writes features.rows probabilities to `out`. Every row is bitwise
  /// identical to predict() on the same features — the batched path reorders
  /// no accumulation (see nn::Dense::forward_batch). Inference only: no
  /// layer caches are touched, so this is const and safe on a net shared
  /// across rollouts. `ws` may be null; passing one amortizes scratch.
  void predict_batch(nn::ConstBatchView features, double* out,
                     BatchWorkspace* ws = nullptr) const;
  /// P(exit) for one flattened feature matrix, bitwise identical to
  /// predict_batch on that row, with fc1 as nn::Dense::forward_sparse_row:
  /// about half the vector kernel's best speed, but its cost stays put when
  /// the weights drop out of L2, where the vector kernel's swings 2.5x. For
  /// callers that run one query at a time and want each to cost the same
  /// (the per-user loop); batches keep predict_batch.
  double predict_row(const double* features, BatchWorkspace* ws = nullptr) const;
  /// Backprop a gradient w.r.t. logits (accumulates parameter grads).
  void backward(const nn::Tensor& grad_logits);

  nn::ParamSet param_set();

  /// Weight (de)serialization for checkpointing.
  std::vector<const nn::Tensor*> weights() const;
  /// Restore from tensors in the same order as weights(). Fails (returns
  /// false) on shape mismatch.
  bool load_weights(const std::vector<nn::Tensor>& tensors);

 private:
  /// predict_batch body; `sparse_fc1` (one row only) takes predict_row's fc1.
  void forward_rows(nn::ConstBatchView features, double* out, BatchWorkspace* ws,
                    bool sparse_fc1) const;

  std::vector<nn::Conv1D> branches_;  // one per input channel
  std::vector<nn::ReLU> branch_relu_;
  nn::Dense fc1_;
  nn::ReLU relu1_;
  nn::Dense fc2_;
  // backward() bookkeeping
  std::size_t conv_out_len_ = 0;
};

}  // namespace lingxi::predictor
