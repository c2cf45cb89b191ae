// WallTimer, the one wall-clock stopwatch: it measures the times that the
// fuzz and loadgen reports, the serve daemon and the recorded simulation
// publish.
#pragma once

#include <chrono>

namespace mphls {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mphls
