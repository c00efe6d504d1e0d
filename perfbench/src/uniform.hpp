// The `uniform` cell's building blocks, shared by the workload and by the
// self-test: prefill, the closed-loop timed window, and the conservation
// drain. Each is a template over any queue with the cpq handle interface.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "bench_framework/harness.hpp"
#include "common.hpp"
#include "platform/cache.hpp"
#include "platform/rng.hpp"
#include "queues.hpp"
#include "workloads/keyspace.hpp"

namespace pb {

using cpq::bench::detail::item_id;

// Per-worker accounting of one queue instance, kept across its windows.
struct Tally {
  Fingerprint inserted;
  Fingerprint deleted;
  std::uint64_t next_id = 0;  // per-worker item counter
};
using Tallies = std::vector<cpq::CacheAligned<Tally>>;

inline const cpq::workloads::KeyConfig kUniformKeys =
    cpq::workloads::KeyConfig::uniform(32);

// Owner slots of prefill items, above every worker id.
inline constexpr unsigned kPrefillOwner = 0x10000;

// Checksum of the generated key streams (prefill and workers) of a seed.
inline std::uint64_t uniform_keys_checksum(std::uint64_t seed,
                                           unsigned threads) {
  std::uint64_t sum = 0;
  for (unsigned tid = 0; tid < threads; ++tid) {
    cpq::workloads::KeyGenerator prefill_keys(
        kUniformKeys, seed ^ 0x9e3779b9ULL, kPrefillOwner + tid);
    cpq::workloads::KeyGenerator worker_keys(kUniformKeys, seed, tid);
    for (int i = 0; i < 4096; ++i) {
      sum += mix(prefill_keys.next()) ^ mix(worker_keys.next() + tid);
    }
  }
  return sum;
}

// Inserts `n` uniform items split over `threads` workers; returns their
// fingerprint.
template <typename Q>
Fingerprint prefill(Q& queue, unsigned threads, std::uint64_t seed,
                    std::size_t n) {
  std::vector<cpq::CacheAligned<Fingerprint>> fp(threads);
  cpq::run_team(threads, [&](unsigned tid) {
    auto handle = queue.get_handle(tid);
    cpq::workloads::KeyGenerator gen(kUniformKeys, seed ^ 0x9e3779b9ULL,
                                     kPrefillOwner + tid);
    const std::size_t share = n / threads + (tid < n % threads ? 1 : 0);
    for (std::size_t i = 0; i < share; ++i) {
      const std::uint64_t id = item_id(kPrefillOwner + tid, i);
      handle.insert(gen.next(), id);
      fp[tid]->add(id);
    }
  });
  Fingerprint total;
  for (const auto& f : fp) total.merge(*f);
  return total;
}

struct Window {
  double mops = 0.0;       // an empty delete_min counts, as in the paper
  std::uint64_t ops = 0;
};

// One closed-loop window: each worker flips a fair coin between insert (a
// uniform 32-bit key) and delete_min until stopped. With kTrace, one
// operation in Tracer::kSample is bracketed by a span.
template <bool kTrace, typename Q>
Window uniform_window(Q& queue, unsigned threads, double seconds,
                      std::uint64_t seed, Tallies& tallies, Tracer& tracer,
                      std::uint32_t cell, std::uint32_t insert_name,
                      std::uint32_t delete_name) {
  std::vector<cpq::CacheAligned<std::uint64_t>> ops(threads);
  const double elapsed = timed_team(
      threads, seconds, [&](unsigned tid, const std::atomic<bool>& stop) {
        auto handle = queue.get_handle(tid);
        cpq::workloads::KeyGenerator gen(kUniformKeys, seed, tid);
        cpq::Xoroshiro128 coin(cpq::thread_seed(seed ^ 0xc014f11bULL, tid));
        Tally t = *tallies[tid];
        std::uint64_t n = 0;
        std::uint64_t bits = 0;
        unsigned left = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          if (left == 0) {
            bits = coin.next();
            left = 64;
          }
          const bool insert = (bits & 1) != 0;
          bits >>= 1;
          --left;
          const bool sampled = kTrace && n % Tracer::kSample == 0;
          const std::uint64_t t0 = sampled ? cpq::fast_timestamp() : 0;
          if (insert) {
            const std::uint64_t id = item_id(tid, t.next_id++);
            handle.insert(gen.next(), id);
            t.inserted.add(id);
          } else {
            Key key;
            Value id;
            if (handle.delete_min(key, id)) t.deleted.add(id);
          }
          if (sampled) {
            tracer.record(1 + tid, insert ? insert_name : delete_name, cell,
                          t0, cpq::fast_timestamp());
          }
          ++n;
        }
        *tallies[tid] = t;
        *ops[tid] = n;
      });
  Window w;
  for (const auto& o : ops) w.ops += *o;
  w.mops = static_cast<double>(w.ops) / elapsed / 1e6;
  return w;
}

// Fingerprint of the ids drained from the queue after its windows: the
// workers drain it together, then worker 0 once more, alone, so an item
// another worker's retries missed is still found.
template <typename Q>
Fingerprint drained_fingerprint(Q& queue, unsigned threads) {
  std::vector<cpq::CacheAligned<Fingerprint>> fp(threads);
  cpq::run_team(threads, [&](unsigned tid) {
    drain(queue, [&](Key, Value id) { fp[tid]->add(id); }, tid);
  });
  Fingerprint total;
  for (const auto& f : fp) total.merge(*f);
  drain(queue, [&](Key, Value id) { total.add(id); });
  return total;
}

// Items lost or duplicated by the queue: everything inserted (prefill and
// windows) must come out exactly once (windows and drain).
inline std::uint64_t conservation_failures(const Fingerprint& prefilled,
                                           const Tallies& tallies,
                                           const Fingerprint& drained,
                                           std::uint64_t& attempted) {
  Fingerprint in = prefilled;
  Fingerprint out = drained;
  for (const auto& t : tallies) {
    in.merge(t->inserted);
    out.merge(t->deleted);
  }
  attempted = in.count;
  return fingerprint_failures(in, out);
}

}  // namespace pb
