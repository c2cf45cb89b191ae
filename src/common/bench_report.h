// Benchmark timing: a wall-clock stopwatch and a best-of-N timer. The
// bench, fuzz and loadgen reports that carry these times are json::Node
// documents (common/json_reader.h).
#pragma once

#include <algorithm>
#include <chrono>

namespace mphls {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Runs `fn` `repeats` times (at least once) and returns the best
/// (minimum) wall time in seconds — the standard estimator on a noisy
/// shared machine.
template <typename Fn>
double timeBest(int repeats, Fn&& fn) {
  double best = -1;
  for (int r = 0; r < std::max(repeats, 1); ++r) {
    WallTimer t;
    fn();
    const double s = t.seconds();
    if (best < 0 || s < best) best = s;
  }
  return best;
}

}  // namespace mphls
