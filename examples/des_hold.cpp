// Parallel discrete event simulation — the "hold model" (Jones 1986).
//
// The paper's configurable benchmark explicitly maps to this workload
// (§F: "an operation batch size of one with an insert following delete
// with dependent keys … would correspond to the hold model proposed in
// [Jones]"). A DES event loop holds the queue at a steady size: pop the
// earliest event, execute it, schedule a follow-up event at
// (popped time + random increment).
//
// With a relaxed queue, events can execute out of timestamp order; whether
// that is tolerable is application-specific (optimistic simulators roll
// back, PHOLD-style models tolerate bounded skew). This example runs the
// hold loop over several queues and reports:
//   * event throughput,
//   * causality violations: events whose timestamp precedes the maximum
//     timestamp already executed by the same worker (the local time warp),
//   * the maximum observed warp magnitude.

#include <atomic>
#include <cstdio>
#include <cstdint>
#include <memory>
#include <vector>

#include "platform/cache.hpp"
#include "platform/rng.hpp"
#include "platform/thread_util.hpp"
#include "platform/timing.hpp"
#include "queues/globallock.hpp"
#include "queues/klsm/klsm.hpp"
#include "queues/multiqueue.hpp"
#include "service/priority_service.hpp"

namespace {

constexpr unsigned kThreads = 4;
constexpr std::uint64_t kPopulation = 100000;  // events held in the queue
constexpr std::uint64_t kEventsPerThread = 200000;
constexpr std::uint64_t kMeanHold = 16;  // mean timestamp increment

template <typename Queue>
void run_hold_model(const char* name, Queue& queue) {
  {
    auto handle = queue.get_handle(0);
    cpq::Xoroshiro128 rng(7);
    for (std::uint64_t i = 0; i < kPopulation; ++i) {
      handle.insert(rng.next_below(kPopulation * kMeanHold), i);
    }
  }
  std::vector<cpq::CacheAligned<std::uint64_t>> violations(kThreads);
  std::vector<cpq::CacheAligned<std::uint64_t>> max_warp(kThreads);
  cpq::Stopwatch watch;
  cpq::run_team(kThreads, [&](unsigned tid) {
    auto handle = queue.get_handle(tid);
    cpq::Xoroshiro128 rng(tid + 100);
    std::uint64_t now = 0;  // this worker's local virtual clock
    for (std::uint64_t e = 0; e < kEventsPerThread; ++e) {
      std::uint64_t time, payload;
      if (!handle.delete_min(time, payload)) continue;
      if (time < now) {
        ++violations[tid].value;
        const std::uint64_t warp = now - time;
        if (warp > max_warp[tid].value) max_warp[tid].value = warp;
      } else {
        now = time;
      }
      // Hold model: the follow-up event depends on the popped timestamp.
      handle.insert(time + 1 + rng.next_below(2 * kMeanHold - 1), payload);
    }
  });
  const double seconds = watch.elapsed_seconds();
  std::uint64_t total_violations = 0;
  std::uint64_t warp = 0;
  for (unsigned t = 0; t < kThreads; ++t) {
    total_violations += violations[t].value;
    if (max_warp[t].value > warp) warp = max_warp[t].value;
  }
  const double events = static_cast<double>(kThreads) * kEventsPerThread;
  std::printf(
      "%-10s %8.2f kEvents/s   causality violations: %8llu (%.3f%%)   max "
      "warp: %llu\n",
      name, events / seconds / 1e3,
      static_cast<unsigned long long>(total_violations),
      100.0 * total_violations / events,
      static_cast<unsigned long long>(warp));
}

}  // namespace

int main() {
  std::printf("hold-model DES: %u workers, population %llu, %llu events each\n",
              kThreads, static_cast<unsigned long long>(kPopulation),
              static_cast<unsigned long long>(kEventsPerThread));
  {
    cpq::GlobalLockQueue<std::uint64_t, std::uint64_t> q(kThreads);
    run_hold_model("glock", q);
  }
  {
    cpq::MultiQueue<std::uint64_t, std::uint64_t> q(kThreads, 4);
    run_hold_model("mq", q);
  }
  {
    cpq::KLsmQueue<std::uint64_t, std::uint64_t> q(kThreads, 256);
    run_hold_model("klsm256", q);
  }
  {
    cpq::KLsmQueue<std::uint64_t, std::uint64_t> q(kThreads, 4096);
    run_hold_model("klsm4096", q);
  }
  // The same event loop through the PriorityService dispatch layer: the
  // service satisfies the queue-handle concept, so run_hold_model is
  // oblivious to it. Over glock the service adds admission and counters but
  // no relaxation; over the engineered MultiQueue the queue's insertion and
  // deletion buffers add relaxation (more causality violations) in exchange
  // for amortized synchronization — the trade the service makes visible.
  {
    using Inner = cpq::GlobalLockQueue<std::uint64_t, std::uint64_t>;
    cpq::service::PriorityService<Inner> q(kThreads, {}, [](unsigned) {
      return std::make_unique<Inner>(kThreads);
    });
    run_hold_model("glock+svc", q);
  }
  {
    using Inner = cpq::MultiQueue<std::uint64_t, std::uint64_t>;
    cpq::service::PriorityService<Inner> q(kThreads, {}, [](unsigned) {
      return std::make_unique<Inner>(kThreads, cpq::MqEngConfig{}, 1);
    });
    run_hold_model("mq-eng+svc", q);
  }
  return 0;
}
