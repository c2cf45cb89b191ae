// The benchmark's metric names and units (mirrored in BENCHMARK.json and
// checked against it by the tests) and the one-line JSON result.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Reported by every untraced run (--trace 0).
[[nodiscard]] const std::vector<MetricSpec>& endToEndMetrics();
/// Reported by every traced run (--trace 1); 0 where the workload does not
/// exercise the layer.
[[nodiscard]] const std::vector<MetricSpec>& perLayerMetrics();

/// What one workload run produced. `metrics` must hold every name of the
/// table the run reports; `attempted` counts the operations the run
/// issued and `failed` those that errored or produced a wrong output.
struct RunResult {
  std::map<std::string, double> metrics;
  long attempted = 0;
  long failed = 0;
  /// Free-form notes printed before the result line (never parsed).
  std::vector<std::string> notes;
};

/// The result line: {"correct", "attempted", "failed", "metrics"} with
/// every metric of `table` in table order. Throws std::logic_error when a
/// metric of the table is missing from `r`.
[[nodiscard]] std::string resultJson(const RunResult& r,
                                     const std::vector<MetricSpec>& table);

/// Hardware threads, build type and compiler, so reports compare like
/// with like.
[[nodiscard]] std::string environmentLine();

/// Peak resident set size of this process, in MB.
[[nodiscard]] double selfPeakRssMb();

}  // namespace perfbench
