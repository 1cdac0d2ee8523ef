#!/usr/bin/env bash
# Configure, build and test — the tier-1 verify, as run by CI — followed by:
#   * the CTest label matrix: the `nn` label (batched-inference parity layer)
#     and the `fleet` label (FleetRunner substrate + experiment drivers) are
#     re-run explicitly, so a label regression fails loudly on every push;
#     the `bayesopt` label pins the optimizer fast path (incremental
#     Cholesky == the full-refit reference, which the test calls explicitly
#     through GaussianProcess::refit_from; batched-acquisition parity), and
#     the nn suite re-runs under LINGXI_DENSE_ISA=scalar/avx2 so both
#     dispatchable dense kernels prove bitwise parity on the CI host;
#     finally the fleet_scaling smoke JSON is gated on non-regressing
#     sessions/sec ratios (width-64 vs width-1 waves, 3-user vs 1-user
#     shards), each arm the median of 3 interleaved serial runs;
#   * the batched-path + cross-user wave smoke: bench_fleet_scaling
#     --batch 64 --users-per-shard 3 runs the LingXi fleet with width-1
#     ("scalar") and width-64 ("batched") per-optimization waves (one user
#     per shard) AND cross-user pooled predictor inference (3 users per
#     shard) at several thread counts, and exits non-zero unless every
#     FleetAccumulator checksum is bitwise identical — the wave-width parity
#     contract extended across shard sizes. The machine-readable
#     summary (rates, occupancy, checksums) lands in
#     ${BUILD_DIR}/smoke/fleet_scaling.json for the artifact upload;
#   * the ablation smoke (bench_ablation, every mode, sanitizers included):
#     the Monte Carlo sample-count, pruning, trigger-threshold and BO-vs-
#     random ablations, which drive MonteCarloEvaluator::evaluate_rollouts
#     and core::LingXi directly, outside any fleet;
#   * a telemetry capture->replay round-trip smoke (Fig. 12 A/B on 64
#     users): simulate both arms once, archive them, recompute the DiD
#     series from the archives, and exit non-zero unless the replayed
#     accumulators bitwise-match the live runs. The archives and the bench
#     JSON land in ${BUILD_DIR}/smoke/ so CI uploads them as artifacts;
#   * a snapshot->resume smoke (bench_warm_start on a fig12-shaped fleet,
#     D=2 resume K=2): simulate 4 days in one go, then snapshot at day 2 and
#     resume from disk — exits non-zero unless the resumed FleetAccumulator
#     checksum AND the telemetry archive bytes bitwise-match the full run.
#     The snapshot directory and the JSON summary land in
#     ${BUILD_DIR}/smoke/ for the artifact upload;
#   * a crash-recovery smoke (bench_crash_recovery): run the checkpointing
#     fleet and SIGKILL it from inside the snapshot commit protocol, then
#     recover via snapshot::find_latest_valid in a fresh process and resume
#     to the horizon — non-zero exit unless the resumed FleetAccumulator
#     checksum AND archive checksum bitwise-match an uninterrupted reference
#     run. The checkpoint root and JSON summaries land in ${BUILD_DIR}/smoke/;
#   * a scenario smoke (bench_scenarios --smoke): the canonical "CDN
#     brownout + flash crowd + churn" script on an A/B fleet — empty-script
#     byte parity, scenario-on grid determinism, a SIGKILLed checkpoint leg
#     resumed through the churn day (all bitwise-verified, non-zero exit on
#     any mismatch) and the per-event DiD / per-cohort analytics report;
#   * observability smokes: the fig12 run above also dumps the obs metrics
#     registry (--metrics-json) and a Chrome trace (--trace-out), validated
#     here with python3 — both files must parse as JSON and the trace must
#     contain wave.flush, obo.refit and checkpoint.commit spans; and in
#     Release builds bench_obs_overhead gates the obs fast path, exiting
#     non-zero if enabling the full health plane costs more than 3% in
#     sessions per CPU-second (best-of-N per arm, alternating off/on pairs);
#   * the health timeline + SLO watchdog smoke: the scenario run keeps a
#     per-day health timeline under a quiet floor SLO (exit 0 required),
#     bench_health_report summarizes it into a schema-validated JSON report
#     (day records present, deterministic section intact, zero alerts), and
#     a second run under a must-fire ceiling SLO has to exit with code 3;
#   * the bench_compare perf-regression gate (Release): dimensionless ratio
#     checks from the fleet_scaling smoke JSON against the committed
#     bench/baseline.json, plus a synthetic halved-throughput summary that
#     must be caught with a non-zero exit.
#
#
# Sanitizer modes build a separate tree (build-ci-asan/, build-ci-tsan/;
# Debug, -O1, assertions on) and skip the timing gates, whose thresholds
# mean nothing under instrumentation:
#   * asan: AddressSanitizer + UndefinedBehaviorSanitizer (any report is
#     fatal) over the full suite and the ablation smoke, plus the nn suite
#     under each forced dense ISA (scalar, avx2);
#   * tsan: ThreadSanitizer over the full suite, the ablation smoke and the
#     multi-threaded smokes — bench_fleet_scaling (fleet workers share one predictor and
#     its net), the scenario smoke and the crash-recovery fork + SIGKILL
#     legs.
#
# Usage: scripts/ci.sh [Debug|Release|asan|tsan]   (default Release)
set -euo pipefail

MODE="${1:-Release}"
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${ROOT}/build-ci-${MODE,,}"
SANITIZE=""
case "${MODE}" in
  Debug|Release) BUILD_TYPE="${MODE}" ;;
  asan) BUILD_TYPE=Debug; SANITIZE="address,undefined" ;;
  tsan) BUILD_TYPE=Debug; SANITIZE="thread" ;;
  *)
    echo "usage: $0 [Debug|Release|asan|tsan]" >&2
    exit 2
    ;;
esac

CMAKE_ARGS=(-DCMAKE_BUILD_TYPE="${BUILD_TYPE}")
if [ -n "${SANITIZE}" ]; then
  SAN_FLAGS="-O1 -g -fno-omit-frame-pointer -fsanitize=${SANITIZE}"
  if [ "${MODE}" = "asan" ]; then
    SAN_FLAGS="${SAN_FLAGS} -fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS"
  fi
  CMAKE_ARGS+=(-DCMAKE_CXX_FLAGS="${SAN_FLAGS}" -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=${SANITIZE}")
  export ASAN_OPTIONS="detect_leaks=1:abort_on_error=1"
  export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
  export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
fi

# Crash-recovery smoke: reference run -> checkpointing run killed (-9, raised
# from inside the commit protocol) -> recover + resume in a fresh process,
# asserting bitwise parity against the reference.
crash_recovery_smoke() {
  "${BUILD_DIR}/bench/bench_crash_recovery" --reference --smoke --days 4 \
    --json "${SMOKE_DIR}/crash_reference.json" \
    | tee "${SMOKE_DIR}/crash_recovery.txt"
  local ref_checksum ref_archive run_rc
  ref_checksum="$(sed -n 's/.*"checksum": "\(0x[0-9a-f]*\)".*/\1/p' "${SMOKE_DIR}/crash_reference.json")"
  ref_archive="$(sed -n 's/.*"archive_checksum": "\(0x[0-9a-f]*\)".*/\1/p' "${SMOKE_DIR}/crash_reference.json")"
  set +e
  "${BUILD_DIR}/bench/bench_crash_recovery" --run --smoke --days 4 --every 1 \
    --root "${SMOKE_DIR}/crash-checkpoints" \
    --kill-at-checkpoint 2 --kill-during-commit durable \
    2>&1 | tee -a "${SMOKE_DIR}/crash_recovery.txt"
  run_rc="${PIPESTATUS[0]}"
  set -e
  # 137 = killed by SIGKILL; a crash or a sanitizer report exits otherwise.
  if [ "${run_rc}" -ne 137 ]; then
    echo "crash-recovery smoke BROKEN: the armed run exited ${run_rc}, want 137 (SIGKILL)" >&2
    exit 1
  fi
  "${BUILD_DIR}/bench/bench_crash_recovery" --resume --smoke --days 4 \
    --root "${SMOKE_DIR}/crash-checkpoints" \
    --expect-checksum "${ref_checksum}" \
    --expect-archive-checksum "${ref_archive}" \
    --json "${SMOKE_DIR}/crash_resume.json" \
    | tee -a "${SMOKE_DIR}/crash_recovery.txt"
  echo "crash-recovery smoke OK: killed at checkpoint 2 (commit stage durable)," \
    "resumed bitwise-identical (${ref_checksum} / ${ref_archive})"
}

cmake -B "${BUILD_DIR}" -S "${ROOT}" "${CMAKE_ARGS[@]}"
cmake --build "${BUILD_DIR}" -j "$(nproc)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"

SMOKE_DIR="${BUILD_DIR}/smoke"
rm -rf "${SMOKE_DIR}"
mkdir -p "${SMOKE_DIR}"

# Ablation smoke, in every mode: a crash, a failed assertion or a sanitizer
# report exits non-zero. Its printed numbers are informational (no golden).
"${BUILD_DIR}/bench/bench_ablation" > "${SMOKE_DIR}/ablation.txt"
echo "ablation smoke OK"

if [ "${MODE}" = "asan" ]; then
  for isa in scalar avx2; do
    LINGXI_DENSE_ISA="${isa}" \
      ctest --test-dir "${BUILD_DIR}" --output-on-failure --no-tests=error -L nn
    echo "asan forced-ISA nn suite OK: ${isa}"
  done
  echo "asan mode OK: full suite clean under ASan+UBSan"
  exit 0
fi

if [ "${MODE}" = "tsan" ]; then
  # Checksums are still asserted (non-zero exit on mismatch); rates are not.
  "${BUILD_DIR}/bench/bench_fleet_scaling" --batch 64 --users-per-shard 3 --smoke \
    --json "${SMOKE_DIR}/fleet_scaling.json" > "${SMOKE_DIR}/fleet_scaling.txt"
  echo "tsan fleet_scaling smoke OK"
  "${BUILD_DIR}/bench/bench_scenarios" --smoke \
    --root "${SMOKE_DIR}/scenario-checkpoints" \
    --archive-dir "${SMOKE_DIR}/scenario-archive" \
    --json "${SMOKE_DIR}/scenarios.json" > "${SMOKE_DIR}/scenarios.txt"
  echo "tsan scenario smoke OK"
  crash_recovery_smoke
  echo "tsan mode OK: suite and multi-threaded smokes clean under ThreadSanitizer"
  exit 0
fi

# CTest label matrix (cheap re-runs). --no-tests=error is what actually
# catches label wiring drift: a label matching zero tests would otherwise
# exit 0 and silently disable the gate.
for label in nn fleet snapshot obs scenario bayesopt; do
  ctest --test-dir "${BUILD_DIR}" --output-on-failure --no-tests=error -L "${label}"
done

# Forced-ISA parity sweep: the dense-kernel dispatch (nn::dense_isa) honours
# LINGXI_DENSE_ISA, so the nn parity suite re-runs pinned to each variant
# (avx2 on a host without it clamps down to scalar — redundant but still a
# valid scalar-parity run, never a skip).
for isa in scalar avx2; do
  LINGXI_DENSE_ISA="${isa}" \
    ctest --test-dir "${BUILD_DIR}" --output-on-failure --no-tests=error -L nn
  echo "forced-ISA parity OK: ${isa}"
done

# Batched-inference + cross-user wave parity smoke (small fleet, batch 64,
# shard 3; non-zero exit on any checksum mismatch between thread counts,
# batch modes or shard sizes).
#
# The wall-clock sessions/sec gates on the summary can be blanketed by a
# host-side steal burst on virtualized single-core runners (one observed
# burst read the batched arm at 0.57x scalar where steady state was ~2x), so
# an over-gate measurement is re-taken from scratch up to 3 attempts —
# checksum mismatches fail immediately (they are deterministic, retrying
# cannot fix them), and a genuine perf regression fails every attempt.
FLEET_GATE_OK=0
for FLEET_ATTEMPT in 1 2 3; do
  "${BUILD_DIR}/bench/bench_fleet_scaling" --batch 64 --users-per-shard 3 --smoke \
    --json "${SMOKE_DIR}/fleet_scaling.json" \
    | tee "${SMOKE_DIR}/fleet_scaling.txt"
  echo "batched-path + cross-user wave smoke OK (attempt ${FLEET_ATTEMPT})"

  # Sessions/sec non-regression gate on the smoke summary: width-64 waves
  # ("batched") must not fall far behind width-1 waves ("scalar"; both run
  # the same inference forward, so they measure about even), and 3-user
  # cohort waves must not regress against one-user (per-optimization)
  # shards. Each gated rate is the median of 3 interleaved serial runs
  # (bench_fleet_scaling --smoke). Thresholds sit below every measurement
  # (12 smoke runs: batched/scalar median 0.93, range 0.88-1.08;
  # cross/per-opt median 1.14, range 1.09-1.22) so only a real regression
  # or a steal burst trips them.
  set +e
  python3 - "${SMOKE_DIR}/fleet_scaling.json" <<'PYEOF'
import json, sys
summary = json.load(open(sys.argv[1]))
assert summary["all_checksums_match"] is True, "smoke checksum mismatch"
scalar = summary["scalar_sessions_per_sec"]
batched = summary["batched_sessions_per_sec"]
per_opt = summary["cross_user"]["per_opt_sessions_per_sec"]
cross = summary["cross_user"]["cross_user_sessions_per_sec"]
assert batched >= 0.7 * scalar, f"batched/scalar regressed: {batched:.0f} vs {scalar:.0f}"
assert cross >= 0.9 * per_opt, f"cross-user regressed: {cross:.0f} vs {per_opt:.0f}"
print(f"sessions/sec gate OK: batched/scalar {batched / scalar:.2f}x, "
      f"cross/per-opt {cross / per_opt:.2f}x (isa {summary['dense_isa']})")
PYEOF
  FLEET_GATE_RC=$?
  set -e
  # Determinism failures never retry: the checksum field is bitwise.
  python3 -c 'import json,sys; sys.exit(0 if json.load(open(sys.argv[1]))["all_checksums_match"] else 1)' \
    "${SMOKE_DIR}/fleet_scaling.json"
  if [ "${FLEET_GATE_RC}" -eq 0 ]; then
    FLEET_GATE_OK=1
    break
  fi
  echo "sessions/sec gate over threshold on attempt ${FLEET_ATTEMPT}; re-measuring"
done
if [ "${FLEET_GATE_OK}" -ne 1 ]; then
  echo "sessions/sec gate FAILED on all attempts" >&2
  exit 1
fi

"${BUILD_DIR}/bench/bench_fig12_ab_test" \
  --users 64 --days 4 \
  --archive-dir "${SMOKE_DIR}/fig12-archives" \
  --json "${SMOKE_DIR}/fig12.json" \
  --metrics-json "${SMOKE_DIR}/fig12_metrics.json" \
  --trace-out "${SMOKE_DIR}/fig12_trace.json"
echo "capture->replay smoke OK: $(ls "${SMOKE_DIR}/fig12-archives")"

# Observability output validation: the metrics dump and the Chrome trace must
# both be well-formed JSON, and the trace must cover the three span families
# the layer instruments end to end (shard wave flushes, Bayesian-optimizer
# refits, snapshot checkpoint commits).
python3 - "${SMOKE_DIR}/fig12_metrics.json" "${SMOKE_DIR}/fig12_trace.json" <<'PYEOF'
import json, sys
metrics = json.load(open(sys.argv[1]))
assert metrics["schema"] == "lingxi.obs.metrics/v1", metrics.get("schema")
assert metrics["metrics"], "metrics dump is empty"
trace = json.load(open(sys.argv[2]))
names = {event["name"] for event in trace["traceEvents"]}
missing = {"wave.flush", "obo.refit", "checkpoint.commit"} - names
assert not missing, f"trace missing spans: {sorted(missing)}"
print(f"obs smoke OK: {len(metrics['metrics'])} metrics, "
      f"{len(trace['traceEvents'])} trace events, spans {sorted(names)}")
PYEOF

# Snapshot->resume smoke: fig12-shaped fleet, snapshot at day 2, resume for
# 2 more days; non-zero exit unless the resumed checksum and archive bytes
# bitwise-match the uninterrupted run. Snapshot + JSON become CI artifacts.
"${BUILD_DIR}/bench/bench_warm_start" --smoke --days 4 --resume-at 2 \
  --dir "${SMOKE_DIR}/warm-start-snapshot" \
  --json "${SMOKE_DIR}/warm_start.json" \
  | tee "${SMOKE_DIR}/warm_start.txt"
echo "snapshot->resume smoke OK: $(ls "${SMOKE_DIR}/warm-start-snapshot")"

crash_recovery_smoke

# Scenario smoke: the canonical "CDN brownout + flash crowd + churn" script
# end to end on an A/B fleet — empty-script byte parity, scenario-on grid
# determinism, a SIGKILLed checkpoint leg resumed through the churn day (all
# bitwise, non-zero exit on any mismatch) and the DiD/cohort analytics
# report. JSON summary, metrics dump and the scripted archive land in
# ${SMOKE_DIR}/ for the artifact upload.
"${BUILD_DIR}/bench/bench_scenarios" --smoke \
  --root "${SMOKE_DIR}/scenario-checkpoints" \
  --archive-dir "${SMOKE_DIR}/scenario-archive" \
  --json "${SMOKE_DIR}/scenarios.json" \
  --metrics-json "${SMOKE_DIR}/scenarios_metrics.json" \
  --timeline-out "${SMOKE_DIR}/scenarios_timeline.bin" \
  --slo "floor:sim.fleet.sessions_total:1:sessions-floor" \
  | tee "${SMOKE_DIR}/scenarios.txt"
echo "scenario smoke OK: $(ls "${SMOKE_DIR}/scenario-archive")"

# Health timeline + SLO watchdog smoke. The scenario run above kept a per-day
# timeline under a floor SLO that a healthy fleet can never trip — its rc 0
# already proves the quiet path. Summarize the timeline with the reporting
# CLI (rc 0 = no alerts on board), validate the JSON report with python3, and
# keep both as CI artifacts.
"${BUILD_DIR}/bench/bench_health_report" \
  --timeline "${SMOKE_DIR}/scenarios_timeline.bin" \
  --json "${SMOKE_DIR}/health_report.json" \
  | tee "${SMOKE_DIR}/health_report.txt"
python3 - "${SMOKE_DIR}/health_report.json" <<'PYEOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "lingxi.obs.health_report/v1", report.get("schema")
assert report["day_records"] > 0, "timeline recorded no fleet days"
det = [m["name"] for m in report["metrics"] if m["deterministic"]]
assert "sim.fleet.sessions_total" in det, f"deterministic section lost: {det}"
assert report["alerts"] == [], f"quiet SLO fired: {report['alerts']}"
print(f"health timeline smoke OK: {report['day_records']} day records, "
      f"{len(report['metrics'])} metric series, {len(det)} deterministic")
PYEOF

# The watchdog must also FIRE: re-run the scenario smoke under a ceiling of 1
# session (violated on day one of any run) and require exit code 3 — the
# SLO-violation code, distinct from parity failures (1) and usage errors (2).
set +e
"${BUILD_DIR}/bench/bench_scenarios" --smoke \
  --root "${SMOKE_DIR}/scenario-checkpoints-slo" \
  --archive-dir "${SMOKE_DIR}/scenario-archive-slo" \
  --timeline-out "${SMOKE_DIR}/scenarios_timeline_fired.bin" \
  --slo "ceiling:sim.fleet.sessions_total:1:sessions-ceiling" \
  > "${SMOKE_DIR}/scenarios_slo_fired.txt" 2>&1
SLO_RC=$?
set -e
if [ "${SLO_RC}" -ne 3 ]; then
  echo "SLO watchdog BROKEN: must-fire rule exited ${SLO_RC}, want 3" >&2
  exit 1
fi
echo "SLO watchdog smoke OK: must-fire ceiling exited 3"

# Obs fast-path regression gate (Release only: Debug timings say nothing
# about the optimized cost of the disabled-path branch or the record path).
# Non-zero exit when the best-of-N overhead exceeds 3%.
if [ "${BUILD_TYPE}" = "Release" ]; then
  "${BUILD_DIR}/bench/bench_obs_overhead" --smoke --reps 5 --threshold 3.0 \
    --json "${SMOKE_DIR}/obs_overhead.json" \
    | tee "${SMOKE_DIR}/obs_overhead.txt"
  echo "obs overhead gate OK"

  # Perf-regression gate against the committed baseline (Release only: the
  # committed ratios were measured on optimized builds). The checks are
  # dimensionless ratios of quantities measured in the same process, so they
  # transfer across machines; floors sit far below steady state so only a
  # real regression trips them. Then prove the gate has teeth: a synthetic
  # halved-throughput summary must exit non-zero.
  "${BUILD_DIR}/bench/bench_compare" --baseline "${ROOT}/bench/baseline.json" \
    --input "fleet_scaling=${SMOKE_DIR}/fleet_scaling.json" \
    | tee "${SMOKE_DIR}/bench_compare.txt"
  python3 - "${SMOKE_DIR}/fleet_scaling.json" "${SMOKE_DIR}/fleet_scaling_regressed.json" <<'PYEOF'
import json, sys
summary = json.load(open(sys.argv[1]))
summary["batched_sessions_per_sec"] = summary["scalar_sessions_per_sec"] * 0.5
summary["cross_user"]["speedup"] = 0.4
json.dump(summary, open(sys.argv[2], "w"))
PYEOF
  set +e
  "${BUILD_DIR}/bench/bench_compare" --baseline "${ROOT}/bench/baseline.json" \
    --input "fleet_scaling=${SMOKE_DIR}/fleet_scaling_regressed.json" \
    >> "${SMOKE_DIR}/bench_compare.txt" 2>&1
  COMPARE_RC=$?
  set -e
  if [ "${COMPARE_RC}" -ne 1 ]; then
    echo "bench_compare gate BROKEN: synthetic regression exited ${COMPARE_RC}, want 1" >&2
    exit 1
  fi
  echo "bench_compare gate OK: baseline within tolerance, synthetic regression caught"
fi
