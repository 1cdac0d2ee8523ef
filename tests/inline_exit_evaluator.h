// Test-side sim::BatchExitEvaluator for driving Monte Carlo evaluations with
// plain ExitModels (constant exits, probes, user models).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>

#include "sim/session.h"

namespace lingxi::testing_util {

/// Gives every rollout a fresh model from `make` and resolves every query
/// inline through its exit_probability(), so nothing is ever parked and
/// flush() has nothing to evaluate.
class InlineExitEvaluator final : public sim::BatchExitEvaluator {
 public:
  using Factory = std::function<std::unique_ptr<sim::ExitModel>()>;

  explicit InlineExitEvaluator(Factory make) : make_(std::move(make)) {}

  std::unique_ptr<sim::ExitModel> make_model() const override { return make_(); }
  bool prepare(sim::ExitModel& model, const sim::SegmentRecord& segment,
               double& out) const override {
    out = model.exit_probability(segment);
    return true;
  }
  std::size_t flush(double*) const override { return 0; }
  void discard_parked() const override {}

 private:
  Factory make_;
};

}  // namespace lingxi::testing_util
