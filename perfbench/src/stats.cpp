#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 0-based nearest-rank index of the q-percentile among n sorted samples.
std::size_t rankIndex(std::size_t n, double q) {
  const double r = std::ceil(q * (double)n);
  const std::size_t k = r < 1 ? 1 : (std::size_t)r;
  return std::min(k, n) - 1;
}

}  // namespace

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const std::size_t k = rankIndex(v.size(), q);
  std::nth_element(v.begin(), v.begin() + (std::ptrdiff_t)k, v.end());
  return v[k];
}

std::size_t samplesBeyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - 1 - rankIndex(n, q);
}

bool tailIsBacked(std::size_t n, double q) { return samplesBeyond(n, q) >= 10; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double slope(const std::vector<std::pair<double, double>>& xy) {
  if (xy.size() < 2) return 0;
  double mx = 0, my = 0;
  for (const auto& [x, y] : xy) {
    mx += x;
    my += y;
  }
  mx /= (double)xy.size();
  my /= (double)xy.size();
  double sxy = 0, sxx = 0;
  for (const auto& [x, y] : xy) {
    sxy += (x - mx) * (y - my);
    sxx += (x - mx) * (x - mx);
  }
  return sxx > 0 ? sxy / sxx : 0;
}

double logLogSlope(const std::vector<std::pair<double, double>>& xy) {
  std::vector<std::pair<double, double>> logs;
  for (const auto& [x, y] : xy)
    if (x > 0 && y > 0) logs.emplace_back(std::log(x), std::log(y));
  return slope(logs);
}

}  // namespace perfbench
