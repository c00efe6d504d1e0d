// The `service` cell's open loop, shared by the workload and by the
// self-test: a seeded Poisson arrival schedule per producer, producers that
// submit each task at its due time whatever the engine's state, consumers
// that pop continuously, and an exactly-once audit at the end.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "common.hpp"
#include "platform/backoff.hpp"
#include "platform/cache.hpp"
#include "platform/rng.hpp"

namespace pb {

// Due times (ns after the window opens) and keys of one producer's tasks.
struct Arrivals {
  std::vector<double> due_ns;
  std::vector<Key> keys;
};

// Poisson arrivals at `total_hz` split evenly over `producers`, long enough
// to cover `seconds`.
inline std::vector<Arrivals> poisson_schedule(double total_hz,
                                              unsigned producers,
                                              double seconds,
                                              std::uint64_t seed) {
  std::vector<Arrivals> out(producers);
  const double hz = total_hz / producers;
  for (unsigned p = 0; p < producers; ++p) {
    cpq::Xoroshiro128 rng(cpq::thread_seed(seed ^ 0xa441a1ULL, p));
    double t = 0.0;
    const double horizon = seconds * 1e9;
    while (t < horizon) {
      // Inverse-CDF exponential gap; 1 - u keeps log away from zero.
      t += -std::log(1.0 - rng.next_double()) / hz * 1e9;
      out[p].due_ns.push_back(t);
      out[p].keys.push_back(rng.next() & 0xffffffffULL);
    }
  }
  return out;
}

inline std::uint64_t schedule_checksum(const std::vector<Arrivals>& s) {
  std::uint64_t sum = 0;
  for (const auto& a : s) {
    for (std::size_t i = 0; i < a.keys.size(); ++i) {
      sum += mix(a.keys[i] ^ static_cast<std::uint64_t>(a.due_ns[i]));
    }
  }
  return sum;
}

// Task ids: producer in the top bits, schedule index below.
inline std::uint64_t task_id(unsigned producer, std::size_t index) {
  return (static_cast<std::uint64_t>(producer) << 40) | index;
}
inline unsigned task_producer(std::uint64_t id) {
  return static_cast<unsigned>(id >> 40);
}
inline std::size_t task_index(std::uint64_t id) { return id & 0xffffffffffULL; }

// Length of the intervals (by due time) whose p99s are reported: a stall of
// the shared host spoils the intervals it falls in, not the whole window.
// The last one of a window is cut off by the stop and left out.
inline constexpr double kIntervalNs = 50e6;

struct OpenLoop {
  std::vector<double> sojourn_us;  // due time -> delivery, delivered tasks
  std::vector<double> lag_us;      // submit time - due time, every task
  // Sojourns of the tasks due in the complete intervals; a task not
  // delivered in the window is infinitely late.
  std::vector<double> settled_sojourn_us;
  // p99s of each complete interval with at least 100 tasks due.
  std::vector<double> sojourn_p99_by_interval;
  std::vector<double> lag_p99_by_interval;
  std::uint64_t submitted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t polls = 0;  // consumer delete_min calls
  std::uint64_t failures = 0;  // lost or duplicated tasks
  double seconds = 0.0;
  double offered_per_s() const { return submitted / seconds; }
};

// Runs the schedule for `seconds` against `engine` (producers use handles
// 0..P-1, consumers P..P+C-1), then stops, lets `drain(sink)` recover what
// is left, and audits that every submitted task came out exactly once.
// `stall_ns` delays producer 0 once, at its first task (self-test).
template <bool kTrace, typename Engine, typename Drain>
OpenLoop open_loop(Engine& engine, const std::vector<Arrivals>& schedule,
                   unsigned consumers, double seconds, Drain&& drain,
                   Tracer& tracer, std::uint32_t cell,
                   std::uint32_t submit_name, std::uint32_t pop_name,
                   std::uint64_t stall_ns = 0) {
  const unsigned producers = static_cast<unsigned>(schedule.size());
  const unsigned threads = producers + consumers;
  const double ns_per_tick = cpq::tsc_clock().ns_per_tick();
  struct Delivery {
    std::uint64_t id;
    std::uint64_t tick;
  };
  // Records are written by index into buffers filled beforehand, so no
  // page is touched for the first time inside the window.
  struct Worker {
    std::vector<double> lag_us;
    std::vector<Delivery> delivered;
    std::size_t count = 0;  // records written
    std::uint64_t submitted = 0;
    std::uint64_t polls = 0;
  };
  std::vector<cpq::CacheAligned<Worker>> workers(threads);
  std::size_t tasks = 0;
  for (const auto& a : schedule) tasks += a.due_ns.size();
  for (unsigned p = 0; p < producers; ++p) {
    workers[p]->lag_us.assign(schedule[p].due_ns.size(), 0.0);
  }
  for (unsigned c = producers; c < threads; ++c) {
    workers[c]->delivered.assign(tasks, Delivery{0, 0});
  }

  // The schedule starts after every worker has spun for kWarmupNs.
  std::atomic<std::uint64_t> start_tick{0};
  cpq::SpinBarrier barrier(threads + 1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> team;
  team.reserve(threads);
  for (unsigned tid = 0; tid < threads; ++tid) {
    team.emplace_back([&, tid] {
      cpq::pin_to_core(tid);
      auto handle = engine.get_handle(tid);
      Worker& w = *workers[tid];
      barrier.arrive_and_wait();
      const std::uint64_t start = start_tick.load(std::memory_order_acquire);
      while (cpq::fast_timestamp() < start) cpq::cpu_relax();
      const WorkerClock clock;
      if (tid < producers) {
        const Arrivals& a = schedule[tid];
        if (tid == 0 && stall_ns > 0) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(stall_ns));
        }
        for (std::size_t i = 0; i < a.due_ns.size(); ++i) {
          const auto due =
              start + static_cast<std::uint64_t>(a.due_ns[i] / ns_per_tick);
          std::uint64_t now = cpq::fast_timestamp();
          while (now < due && !stop.load(std::memory_order_relaxed)) {
            cpq::cpu_relax();
            now = cpq::fast_timestamp();
          }
          if (stop.load(std::memory_order_relaxed)) break;
          const std::uint64_t id = task_id(tid, i);
          bool accepted = true;
          if constexpr (requires {
                          { handle.insert(Key{}, Value{}) }
                              -> std::convertible_to<bool>;
                        }) {
            accepted = handle.insert(a.keys[i], id);
          } else {
            handle.insert(a.keys[i], id);
          }
          const std::uint64_t done = cpq::fast_timestamp();
          if (kTrace && i % Tracer::kServiceSample == 0) {
            tracer.record(1 + tid, submit_name, cell, now, done, id);
          }
          w.lag_us[w.count++] =
              static_cast<double>(now - due) * ns_per_tick / 1e3;
          w.submitted += accepted;
        }
      } else {
        while (!stop.load(std::memory_order_relaxed)) {
          Key key;
          Value id;
          const std::uint64_t t0 = cpq::fast_timestamp();
          ++w.polls;
          if (handle.delete_min(key, id)) {
            const std::uint64_t t1 = cpq::fast_timestamp();
            w.delivered[w.count++] = Delivery{id, t1};
            if (kTrace && task_index(id) % Tracer::kServiceSample == 0) {
              tracer.record(1 + tid, pop_name, cell, t0, t1, id);
            }
          } else {
            cpq::cpu_relax();
          }
        }
      }
    });
  }
  start_tick.store(cpq::fast_timestamp() +
                       static_cast<std::uint64_t>(kWarmupNs / ns_per_tick),
                   std::memory_order_release);
  barrier.arrive_and_wait();
  std::this_thread::sleep_for(std::chrono::nanoseconds(
      static_cast<std::uint64_t>(kWarmupNs)));
  cpq::Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_release);
  for (auto& t : team) t.join();

  OpenLoop r;
  r.seconds = watch.elapsed_seconds();
  // Exactly-once audit over (producer, index) slots: the delivery tick of
  // each task, kDrained if recovered after the window, 0 if never seen.
  constexpr std::uint64_t kDrained = ~std::uint64_t{0};
  std::vector<std::vector<std::uint64_t>> out(producers);
  for (unsigned p = 0; p < producers; ++p) {
    out[p].assign(schedule[p].due_ns.size(), 0);
  }
  auto mark = [&](std::uint64_t id, std::uint64_t tick) {
    const unsigned p = task_producer(id);
    const std::size_t i = task_index(id);
    if (p >= producers || i >= out[p].size()) {
      ++r.failures;  // fabricated
    } else if (out[p][i] != 0) {
      ++r.failures;  // duplicated
    } else {
      out[p][i] = tick;
    }
  };
  for (unsigned tid = 0; tid < threads; ++tid) {
    Worker& w = *workers[tid];
    r.submitted += w.submitted;
    r.polls += w.polls;
    if (tid >= producers) {
      r.delivered += w.count;
      for (std::size_t k = 0; k < w.count; ++k) {
        mark(w.delivered[k].id, w.delivered[k].tick);
      }
    }
  }
  drain([&](Key, Value id) { mark(id, kDrained); });

  // Per task due inside the window: lag, sojourn, and their interval. A
  // task not issued or not delivered in the window counts as missing every
  // limit (infinite); the last interval, cut off by the stop, is left out.
  const double inf = std::numeric_limits<double>::infinity();
  const double window_ns = r.seconds * 1e9;
  const auto intervals = static_cast<std::size_t>(window_ns / kIntervalNs);
  std::vector<std::vector<double>> sojourn_by(intervals), lag_by(intervals);
  const std::uint64_t start = start_tick.load();
  for (unsigned p = 0; p < producers; ++p) {
    const Worker& w = *workers[p];
    for (std::size_t i = 0; i < out[p].size(); ++i) {
      const double due_ns = schedule[p].due_ns[i];
      if (i < w.count && out[p][i] == 0) ++r.failures;  // lost
      if (due_ns >= window_ns) continue;
      const double lag = i < w.count ? w.lag_us[i] : inf;
      double sojourn = inf;
      if (out[p][i] != 0 && out[p][i] != kDrained) {
        sojourn = (static_cast<double>(out[p][i] - start) * ns_per_tick -
                   due_ns) / 1e3;
        r.sojourn_us.push_back(sojourn);
      }
      if (i < w.count) r.lag_us.push_back(lag);
      const auto k = static_cast<std::size_t>(due_ns / kIntervalNs);
      if (k + 1 < intervals) {
        r.settled_sojourn_us.push_back(sojourn);
        sojourn_by[k].push_back(sojourn);
        lag_by[k].push_back(lag);
      }
    }
  }
  for (std::size_t k = 0; k + 1 < intervals; ++k) {
    if (sojourn_by[k].size() < 100) continue;
    r.sojourn_p99_by_interval.push_back(quantile(sojourn_by[k], 0.99));
    r.lag_p99_by_interval.push_back(quantile(lag_by[k], 0.99));
  }
  return r;
}

}  // namespace pb
