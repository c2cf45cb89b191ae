// Small statistics helpers shared by the workloads: nearest-rank
// percentiles with a tail-sample guard, medians, and least-squares slopes.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in (0, 1]) of `v`; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// Samples strictly beyond the nearest-rank q-percentile of n samples.
[[nodiscard]] std::size_t samplesBeyond(std::size_t n, double q);

/// True when the q-percentile of n samples keeps at least ten samples
/// beyond it — the rule for reporting a tail percentile at all.
[[nodiscard]] bool tailIsBacked(std::size_t n, double q);

[[nodiscard]] double median(std::vector<double> v);

/// Least-squares slope of y over x.
[[nodiscard]] double slope(const std::vector<std::pair<double, double>>& xy);

/// Growth exponent: the least-squares slope of log(y) over log(x), over
/// the pairs with positive x and y; 0 with fewer than two such pairs.
[[nodiscard]] double logLogSlope(
    const std::vector<std::pair<double, double>>& xy);

}  // namespace perfbench
