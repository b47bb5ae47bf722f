#ifndef ARIADNE_COMMON_TIMER_H_
#define ARIADNE_COMMON_TIMER_H_

#include <chrono>

namespace ariadne {

/// Monotonic wall-clock stopwatch used by engine stats and benches.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

  /// Seconds since the start or the previous Lap; restarts the watch.
  double Lap() {
    const Clock::time_point now = Clock::now();
    const double seconds = std::chrono::duration<double>(now - start_).count();
    start_ = now;
    return seconds;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace ariadne

#endif  // ARIADNE_COMMON_TIMER_H_
