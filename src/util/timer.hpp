// Monotonic timing vocabulary: the time point stage boundaries are read
// into, the one milliseconds formula, and a Stopwatch for the benches.
#pragma once

#include <chrono>

namespace crowdrank {

/// One reading of the monotonic (steady) clock.
using TimePoint = std::chrono::steady_clock::time_point;

/// Milliseconds from `from` to `to`. Every stage time is computed with
/// this one formula, so two layers timing the same boundaries report the
/// same doubles.
inline double millis_between(TimePoint from, TimePoint to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Monotonic stopwatch, started on construction; elapsed_*() reads
/// without stopping.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double elapsed_millis() const { return elapsed_seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace crowdrank
