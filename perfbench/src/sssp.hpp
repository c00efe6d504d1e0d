// The `sssp` cell's graph, reference solver and parallel label-correcting
// search, shared by the workload and by the self-test.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "common.hpp"
#include "platform/cache.hpp"
#include "queues.hpp"

namespace pb {

inline constexpr std::uint64_t kUnreached =
    std::numeric_limits<std::uint64_t>::max();

struct Edge {
  std::uint32_t to;
  std::uint32_t weight;
};

// Directed graph in compressed rows: the out-edges of v are
// edges[offset[v], offset[v + 1]).
struct Graph {
  std::vector<std::uint32_t> offset;
  std::vector<Edge> edges;

  std::uint32_t vertices() const {
    return static_cast<std::uint32_t>(offset.size() - 1);
  }
  static Graph random(std::uint32_t vertices, std::uint32_t avg_degree,
                      std::uint64_t seed);
  std::uint64_t checksum() const;
};

std::vector<std::uint64_t> dijkstra(const Graph& g, std::uint32_t source);

// Vertices whose distance differs from the reference.
std::uint64_t count_wrong(const std::vector<std::uint64_t>& dist,
                          const std::vector<std::uint64_t>& truth);

struct SsspResult {
  std::vector<std::uint64_t> dist;
  double seconds = 0.0;     // time to solution
  std::uint64_t pops = 0;   // successful delete_min calls
  std::uint64_t useful = 0; // pops that settled a vertex (label still current)
  std::uint64_t polls = 0;  // all delete_min calls
  std::uint64_t pushes = 0; // inserts, the source's included
  // Queue entries lost or delivered twice: the entries still pending by
  // the count against those left in the queue.
  std::uint64_t entry_failures = 0;
  bool stalled = false;     // stopped by the stall watch
};

// Operations found wrong in one solve: wrong distances and lost or
// duplicated queue entries.
inline std::uint64_t sssp_failures(const SsspResult& r,
                                   const std::vector<std::uint64_t>& truth) {
  return count_wrong(r.dist, truth) + r.entry_failures;
}

// Seconds `pending` may stay unchanged before a solve counts as stalled:
// it changes with every push and every processed pop, so only a queue
// that lost an entry (workers polling an empty queue) holds it still.
inline constexpr double kStallS = 1.0;

// Label-correcting search: a popped label that is still the vertex's
// distance relaxes its out-edges, re-inserting improved neighbours; a stale
// label is a wasted pop. Workers stop when no queued entry is pending, or
// when the stall watch gives up on the solve. Afterwards the queue is
// drained: a correct queue leaves exactly the pending entries in it.
template <bool kTrace, typename Q>
SsspResult parallel_sssp(const Graph& g, std::uint32_t source, Q& queue,
                         unsigned threads, Tracer& tracer, std::uint32_t cell,
                         std::uint32_t insert_name, std::uint32_t delete_name) {
  const std::uint32_t n = g.vertices();
  std::vector<std::atomic<std::uint64_t>> dist(n);
  for (auto& d : dist) d.store(kUnreached, std::memory_order_relaxed);
  dist[source].store(0, std::memory_order_relaxed);
  // Every pop and push updates `pending`: it gets a cache line of its own,
  // and workers read everything else through local copies, so no line they
  // read is invalidated by it whatever the stack's alignment. It is signed
  // so that an entry delivered twice drives it below zero, which stops the
  // workers, instead of wrapping; the stall watch stops them the same way
  // by subtracting kAbort.
  constexpr std::int64_t kAbort = std::int64_t{1} << 62;
  cpq::CacheAligned<std::atomic<std::int64_t>> pending;
  pending->store(1, std::memory_order_relaxed);
  queue.get_handle(0).insert(0, source);

  struct Counts {
    std::uint64_t pops = 0, useful = 0, polls = 0, pushes = 0;
    std::uint64_t end = 0;  // fast_timestamp at exit
  };
  std::vector<cpq::CacheAligned<Counts>> counts(threads);
  // The last worker to stop wakes the stall watch on the main thread.
  unsigned finished = 0;
  std::mutex finished_mutex;
  std::condition_variable all_finished;
  cpq::SpinBarrier barrier(threads + 1);
  std::vector<std::thread> team;
  team.reserve(threads);
  for (unsigned tid = 0; tid < threads; ++tid) {
    team.emplace_back([&, tid] {
      cpq::pin_to_core(tid);
      std::atomic<std::uint64_t>* const label = dist.data();
      std::atomic<std::int64_t>& live = *pending;
      const std::uint32_t* const offset = g.offset.data();
      const Edge* const edges = g.edges.data();
      auto handle = queue.get_handle(tid);
      Counts c;
      barrier.arrive_and_wait();
      const WorkerClock clock;
      while (live.load(std::memory_order_acquire) > 0) {
        std::uint64_t d;
        std::uint64_t v64;
        const bool sampled = kTrace && c.polls % Tracer::kSample == 0;
        const std::uint64_t t0 = sampled ? cpq::fast_timestamp() : 0;
        ++c.polls;
        const bool hit = handle.delete_min(d, v64);
        if (sampled) {
          tracer.record(1 + tid, delete_name, cell, t0, cpq::fast_timestamp());
        }
        if (!hit) continue;  // relaxed or transient emptiness: re-poll
        ++c.pops;
        const auto v = static_cast<std::uint32_t>(v64);
        if (d == label[v].load(std::memory_order_acquire)) {
          ++c.useful;
          for (std::uint32_t i = offset[v]; i < offset[v + 1]; ++i) {
            const Edge& e = edges[i];
            const std::uint64_t candidate = d + e.weight;
            std::uint64_t current = label[e.to].load(std::memory_order_relaxed);
            while (candidate < current) {
              if (label[e.to].compare_exchange_weak(
                      current, candidate, std::memory_order_acq_rel)) {
                live.fetch_add(1, std::memory_order_acq_rel);
                const bool s = kTrace && c.pushes % Tracer::kSample == 0;
                const std::uint64_t i0 = s ? cpq::fast_timestamp() : 0;
                handle.insert(candidate, e.to);
                ++c.pushes;
                if (s) {
                  tracer.record(1 + tid, insert_name, cell, i0,
                                cpq::fast_timestamp());
                }
                break;
              }
            }
          }
        }
        live.fetch_sub(1, std::memory_order_acq_rel);
      }
      c.end = cpq::fast_timestamp();
      *counts[tid] = c;
      std::lock_guard<std::mutex> lock(finished_mutex);
      if (++finished == threads) all_finished.notify_one();
    });
  }
  barrier.arrive_and_wait();
  const std::uint64_t start = cpq::fast_timestamp();
  SsspResult r;
  std::int64_t last = pending->load(std::memory_order_relaxed);
  cpq::Stopwatch still;
  std::unique_lock<std::mutex> lock(finished_mutex);
  while (!all_finished.wait_for(lock, std::chrono::milliseconds(100),
                                [&] { return finished == threads; })) {
    const std::int64_t now = pending->load(std::memory_order_relaxed);
    if (now != last) {
      last = now;
      still.restart();
    } else if (!r.stalled && still.elapsed_seconds() > kStallS) {
      r.stalled = true;
      pending->fetch_sub(kAbort, std::memory_order_acq_rel);
    }
  }
  lock.unlock();
  for (auto& t : team) t.join();

  std::uint64_t end = start;
  r.dist.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    r.dist[i] = dist[i].load(std::memory_order_relaxed);
  }
  r.pushes = 1;
  for (const auto& c : counts) {
    r.pops += c->pops;
    r.useful += c->useful;
    r.polls += c->polls;
    r.pushes += c->pushes;
    end = std::max(end, c->end);
  }
  r.seconds = ticks_to_ns(end - start) / 1e9;
  const std::int64_t left =
      pending->load(std::memory_order_relaxed) + (r.stalled ? kAbort : 0);
  const auto drained =
      static_cast<std::int64_t>(drain(queue, [](Key, Value) {}));
  r.entry_failures = static_cast<std::uint64_t>(
      left > drained ? left - drained : drained - left);
  return r;
}

}  // namespace pb
