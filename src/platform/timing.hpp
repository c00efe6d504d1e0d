// Timing utilities: wall-clock timers for the throughput harness and a fast
// monotonic timestamp for the quality benchmark's operation logs.
//
// The quality benchmark timestamps every operation on every thread, so the
// timestamp must be a few nanoseconds; on x86-64 we use RDTSC (invariant TSC
// on all CPUs of the last decade, and the benchmark only needs a total order
// consistent with real time at microsecond granularity). Elsewhere we fall
// back to steady_clock.
#pragma once

#include <chrono>
#include <cstdint>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace cpq {

// Fast monotonic timestamp in unspecified units. Only comparisons between
// timestamps from the same run are meaningful.
//
// On x86-64 this is RDTSCP (TSC ticks): unlike plain RDTSC, RDTSCP waits
// for all earlier instructions to retire before reading the counter, so a
// timestamp taken after a queue operation cannot be hoisted above it (the
// quality replay orders operations by these stamps; an unfenced read can
// reorder around the bracketed operation and corrupt that order). The
// serialization is one-sided — later instructions may still start early —
// which is the standard timestamp/lightweight-fence trade-off and is
// sufficient for a total order consistent with real time at microsecond
// granularity.
//
// Elsewhere the fallback is std::chrono::steady_clock, whose period is
// nanoseconds on every platform we target (libstdc++/libc++ define
// steady_clock::period as std::nano).
//
// To place one of these timestamps on the shared monotonic-ns timeline
// (aligning it with telemetry records, Chrome trace events, and service
// deadlines), use platform/clock.hpp's TscClock::to_ns — the process-wide
// calibration every exporter shares.
inline std::uint64_t fast_timestamp() noexcept {
#if defined(__x86_64__)
  unsigned aux;
  return __rdtscp(&aux);
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

// Wall-clock stopwatch for measuring benchmark intervals.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  void restart() { start_ = clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  std::uint64_t elapsed_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                             start_)
            .count());
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace cpq
