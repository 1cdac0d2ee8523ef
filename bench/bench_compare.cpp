// Perf-regression gate CLI: compares bench --json summaries against the
// committed baseline (bench/baseline.json) and exits non-zero on a
// regression past the per-check threshold — CI's run-to-run perf signal.
//
// Usage (one command line, wrapped here):
//   bench_compare --baseline bench/baseline.json
//                 --input fleet_scaling=out/fleet_scaling.json
//                 [--input fig12=out/fig12.json ...]
//
// Checks read dimensionless ratios (metric / divide_by measured in the same
// process) so the committed baseline values transfer across machines; see
// analytics/bench_gate.h for the baseline schema and comparison rule.
// Exit codes: 0 all checks pass, 1 regression(s), 2 bad usage or unreadable
// input.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analytics/bench_gate.h"
#include "common/json.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bench_compare --baseline <baseline.json> "
               "--input <label>=<bench.json> [--input ...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using lingxi::JsonValue;
  using lingxi::parse_json_file;
  namespace analytics = lingxi::analytics;

  std::string baseline_path;
  std::map<std::string, JsonValue> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--baseline") {
      const char* v = next();
      if (v == nullptr) return usage();
      baseline_path = v;
    } else if (arg == "--input") {
      const char* v = next();
      if (v == nullptr) return usage();
      const char* eq = std::strchr(v, '=');
      if (eq == nullptr || eq == v || eq[1] == '\0') {
        std::fprintf(stderr, "bench_compare: --input wants <label>=<path>, got '%s'\n", v);
        return 2;
      }
      const std::string label(v, static_cast<std::size_t>(eq - v));
      auto doc = parse_json_file(eq + 1);
      if (!doc) {
        std::fprintf(stderr, "bench_compare: %s\n", doc.error().message.c_str());
        return 2;
      }
      inputs.insert_or_assign(label, std::move(*doc));
    } else {
      std::fprintf(stderr, "bench_compare: unknown flag '%s'\n", arg.c_str());
      return usage();
    }
  }
  if (baseline_path.empty() || inputs.empty()) return usage();

  auto spec = analytics::BaselineSpec::load(baseline_path);
  if (!spec) {
    std::fprintf(stderr, "bench_compare: %s\n", spec.error().message.c_str());
    return 2;
  }

  const analytics::GateReport report = analytics::evaluate_baseline(*spec, inputs);
  std::printf("bench_compare: %zu check(s) against %s\n", spec->checks.size(),
              baseline_path.c_str());
  report.write_text(std::cout);
  if (!report.ok()) {
    std::fprintf(stderr, "bench_compare: perf regression detected\n");
    return 1;
  }
  std::printf("bench_compare: all checks within tolerance\n");
  return 0;
}
