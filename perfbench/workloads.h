// The benchmark's workloads and the types main.cpp shares with them.
//
// A workload is set up once per timed set-up repetition (predictor training
// plus runner or user construction), then runs whole *units* — one fixed,
// seed-derived pass of its pipeline — until the run's time is used up. Every
// unit repeats the same inputs, so units differ only in timing noise and the
// report takes medians over them.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "predictor/hybrid.h"
#include "probes.h"

namespace lingxi::perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;     ///< working space for archives and span logs
  std::size_t workers = 4;  ///< fleet worker threads (min(4, nproc))
};

/// Correctness checks: each one counts as attempted and, when it does not
/// hold, as failed (with a diagnostic on stderr).
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Outcome of one unit.
struct UnitResult {
  std::uint64_t sessions = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Digest of the unit's outputs (fleet checksums, or the controller's
  /// per-user parameter trail): equal across units and across traced and
  /// untraced runs of one seed.
  std::uint32_t fingerprint = 0;
  double exit_rate = 0.0;
  double stall_per_10k = 0.0;
  /// Optional per-item timings (the controller times each user), index
  /// aligned across units; see Throughput in main.cpp.
  std::vector<double> item_wall_s;
  std::vector<double> item_cpu_s;
  /// Media seconds the unit's live sessions played (work per session varies
  /// with how long viewers watch).
  double watch_s = 0.0;
};

/// Probes armed for traced units, plus per-unit samples the workloads add.
struct TraceContext {
  SpanLog spans;
  AbrProbe abr;
  CallTally record_session;
  std::atomic<std::uint64_t> predictor_factory_calls{0};
  /// Installed as the process-wide obs registry while a traced unit runs, so
  /// the program's own stage histograms are recorded.
  obs::Registry registry;
  /// Named per-unit (or per-call) samples; each workload documents its own.
  std::map<std::string, Samples> samples;
  /// Time inside measured stages (each stage keeps its thread busy, so its
  /// wall time stands for CPU time), and the process CPU of the traced units.
  double attributed_cpu_s = 0.0;
  double traced_cpu_s = 0.0;
};

/// Ordered metric table (name -> value); units live in main.cpp's tables.
using MetricValues = std::map<std::string, double>;

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  /// Build fresh state: train the predictor and construct runners or users.
  virtual void setup() = 0;
  /// Run one unit; `trace` is null for untraced units.
  virtual UnitResult run_unit(TraceContext* trace) = 0;
  /// Timed runs execute at least this many units.
  virtual std::size_t min_units() const { return 1; }
  /// Units run (and checked) before timing starts, so that the allocator's
  /// and the page cache's steady state is what gets measured.
  virtual std::size_t warmup_units() const { return 1; }
  /// Per-layer metrics from `traced_units` traced units.
  virtual void layer_metrics(TraceContext& trace, std::size_t traced_units,
                             MetricValues& out) = 0;
  /// Threads the workload's units run on (provenance).
  virtual std::size_t workers() const = 0;
  /// The trained predictor (for the direct nn timings of a traced run).
  virtual const predictor::HybridExitPredictor& predictor() const = 0;
};

/// The workload named by `options.workload`, or null for an unknown name.
std::unique_ptr<Workload> make_workload(const RunOptions& options, Checks& checks);

}  // namespace lingxi::perfbench
