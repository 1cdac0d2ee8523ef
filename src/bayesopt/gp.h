// Gaussian-process regression surrogate (§3.1).
//
// Squared-exponential kernel with observation noise, exact inference via
// Cholesky factorization. observe() extends the factor with one new row
// (O(n^2) incremental update); the factorization is row-ordered, so the
// extended factor is bitwise identical to a from-scratch refit — pinned by
// GpIncremental.FactorMatchesFullRefitExactly against the full refit that
// refit_from() runs.
#pragma once

#include <cstddef>
#include <vector>

namespace lingxi::bayesopt {

struct GpConfig {
  double length_scale = 0.25;  ///< in unit-cube coordinates
  double signal_variance = 1.0;
  double noise_variance = 1e-4;

  bool operator==(const GpConfig&) const = default;
};

struct GpPrediction {
  double mean = 0.0;
  double variance = 0.0;
};

/// Caller-owned scratch for predict()/predict_batch(): the k_star panel and
/// the triangular-solve buffer. Reusing one workspace across calls keeps the
/// acquisition hot path allocation-free (the buffers only ever grow).
struct GpWorkspace {
  std::vector<double> panel;  ///< [n][count] k_star, overwritten by L^-1 k_star
};

/// Checkpointable GP state: the observation history plus the kernel
/// hyperparameters. The Cholesky factors are deliberately NOT part of the
/// state — they are a pure function of (config, xs, ys), and restore()
/// replays the observations through the same incremental row-extension path
/// observe() uses, recomputing them bitwise identically.
struct GpState {
  GpConfig config;
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;

  bool operator==(const GpState&) const = default;
};

class GaussianProcess {
 public:
  GaussianProcess();  // default config
  explicit GaussianProcess(GpConfig config);

  /// Add one observation y = f(x). Points must share a dimension. Extends the
  /// Cholesky factor with one row (O(n^2)) and re-solves for alpha; the
  /// resulting factor is bitwise identical to a full O(n^3) refit.
  void observe(const std::vector<double>& x, double y);

  /// Posterior at `x` (prior if no observations yet). Targets are internally
  /// centered on their mean, so the prior mean tracks the data. The
  /// workspace overload is allocation-free once the workspace has grown.
  GpPrediction predict(const std::vector<double>& x) const;
  GpPrediction predict(const std::vector<double>& x, GpWorkspace& ws) const;

  /// Posterior at `count` points of dimension `dim`, packed row-major in
  /// `candidates`. Evaluates the k_star panel in one pass and shares the
  /// triangular solve across candidates; each candidate's result is bitwise
  /// identical to a scalar predict() call (lanes across candidates, never
  /// along the reduction). Zero allocations once `ws` has grown.
  void predict_batch(const double* candidates, std::size_t count, std::size_t dim,
                     GpPrediction* out, GpWorkspace& ws) const;

  std::size_t observations() const noexcept { return xs_.size(); }
  /// Lowest observed target and its location (minimization convention).
  /// Tracked at observe() time — O(1), first minimum wins on ties exactly
  /// like the std::min_element scan it replaced.
  double best_y() const;
  const std::vector<double>& best_x() const;

  /// Checkpoint / resume (see GpState): restore(state()) reproduces the
  /// identical posterior — predictions and best_x/best_y match bitwise.
  GpState state() const;
  void restore(const GpState& state);

  /// Packed lower-triangular Cholesky factor (row i at offset i*(i+1)/2) and
  /// the solved alpha = K^-1 (y - mean). Exposed so tests can pin the
  /// incremental-update path against a full refit exactly.
  const std::vector<double>& factor() const noexcept { return chol_; }
  const std::vector<double>& alpha() const noexcept { return alpha_; }

  /// The reference: a GP over `state` whose factor comes from one
  /// from-scratch O(n^3) refactorization instead of row extensions. The
  /// equality test and BM_GpRefitFull run against it; nothing else does.
  static GaussianProcess refit_from(const GpState& state);

 private:
  void refit();
  void extend_factor(std::size_t i);
  void recompute_alpha();
  /// Load `state`'s config and observations with no factor yet.
  void set_observations(const GpState& state);
  double kernel(const std::vector<double>& a, const std::vector<double>& b) const;

  GpConfig config_;
  std::vector<std::vector<double>> xs_;
  std::vector<double> ys_;
  double y_mean_ = 0.0;
  std::size_t best_index_ = 0;
  // Cholesky factor L of (K + noise*I), packed lower triangular (row i lives
  // at [i*(i+1)/2, i*(i+1)/2 + i]) so extending by one row is an append, and
  // alpha = K^-1 (y - mean).
  std::vector<double> chol_;
  std::vector<double> alpha_;
};

}  // namespace lingxi::bayesopt
