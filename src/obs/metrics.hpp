// Process-wide metrics registry: per-thread contention counters and sampled
// operation-trace rings, mergeable into one report.
//
// Two consumers:
//   * the benchmarks (--metrics): contention counters explain *why* a
//     throughput cell moved — a CAS-retry or lock-retry delta localizes a
//     scalability regression to a seam without a profiler;
//   * the progress watchdog (validation/watchdog.hpp): on a stall it dumps
//     every thread's counters plus the last sampled operations per thread,
//     turning an exit-86 abort into a diagnosable report.
//
// Design: a fixed array of cache-line-aligned slices; each recording thread
// claims one on first use (thread_local handle) and releases it at thread
// exit after folding its counts into a retired-totals accumulator — the
// same orphan-adoption idea as the EBR participant slots, so benchmarks
// that spawn thousands of short-lived workers never exhaust the table.
// Counters are single-writer relaxed atomics updated with the same
// store(load+1) idiom as validation::WorkerProgress::tick: no lock prefix
// on the hot path, and concurrent dump/total readers are race-free.
//
// Cost model (mirrors CPQ_INJECT in validation/fault_injection.hpp):
//   * CPQ_METRICS_ENABLED undefined: CPQ_COUNT / CPQ_TRACE_OP expand to
//     ((void)0) — no code at the hook site. The registry type itself is
//     always compiled (the watchdog dump and the tests use it directly).
//   * CPQ_METRICS_ENABLED defined (default; -DCPQ_METRICS=OFF at configure
//     time removes it): each hook is a thread-local lookup plus one relaxed
//     load/store pair. Hooks sit only on cold paths (retry loops, backoff,
//     reclamation) so the uncontended fast path is unchanged; traces sample
//     one operation in 64.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>

#include "obs/rank_estimator.hpp"
#include "platform/cache.hpp"
#include "platform/timing.hpp"

namespace cpq::obs {

enum class Counter : unsigned {
  kCasRetry = 0,        // lock-free publish retries (skiplist, klsm, hunt)
  kLockRetry,           // spinlock acquisitions that found the lock held
  kBackoffPause,        // Backoff::pause() calls (contention dwell time)
  kEbrRetire,           // nodes deferred to epoch-based reclamation
  kEbrFree,             // deferred nodes actually reclaimed
  kEbrAdvance,          // global epoch advances
  kHazardScan,          // hazard-pointer scans
  kHazardRetire,        // nodes deferred to hazard-pointer reclamation
  kServiceReject,       // admission rejections (priority service)
  kServiceShed,         // tasks dropped past their deadline
  kServiceTierReject,   // rejections from the tiered-admission gate
  kServiceRetry,        // submit_with_retry re-attempts
  kCounterCount,
};

inline constexpr unsigned kNumCounters =
    static_cast<unsigned>(Counter::kCounterCount);

inline const char* counter_name(unsigned index) noexcept {
  static const char* const names[kNumCounters] = {
      "cas_retry",    "lock_retry",    "backoff_pause",
      "ebr_retire",   "ebr_free",      "ebr_advance",
      "hazard_scan",  "hazard_retire", "service_reject",
      "service_shed", "service_tier_reject", "service_retry",
  };
  return index < kNumCounters ? names[index] : "?";
}

// Sampled-operation codes; numerically identical to validation::LastOp so
// harness call sites translate by cast.
enum class TraceOp : std::uint8_t {
  kNone = 0,
  kInsert = 1,
  kDeleteHit = 2,
  kDeleteEmpty = 3,
};

inline const char* trace_op_name(std::uint8_t op) noexcept {
  switch (op) {
    case 1: return "insert";
    case 2: return "delete_hit";
    case 3: return "delete_empty";
    default: return "none";
  }
}

// Trace one operation in 2^6: cheap enough to leave on, frequent enough
// that a stalled thread's ring still shows its recent history.
inline constexpr std::uint64_t kTraceSampleMask = 63;

class MetricsRegistry {
 public:
  static constexpr unsigned kMaxSlices = 256;
  static constexpr unsigned kTraceCapacity = 32;

  struct TraceEvent {
    std::atomic<std::uint64_t> timestamp{0};
    std::atomic<std::uint64_t> key{0};
    std::atomic<std::uint8_t> op{0};
  };

  struct alignas(kCacheLineSize) Slice {
    std::atomic<std::uint64_t> counters[kNumCounters] = {};
    TraceEvent trace[kTraceCapacity];
    std::atomic<std::uint64_t> trace_count{0};
    std::atomic<bool> in_use{false};

    // Single-writer increment (the owning thread); relaxed load/store pairs
    // keep the hot path free of locked instructions while remaining
    // race-free against concurrent dump()/totals() readers.
    void count(Counter c, std::uint64_t n = 1) noexcept {
      auto& cell = counters[static_cast<unsigned>(c)];
      cell.store(cell.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
    }

    void trace_record(TraceOp op, std::uint64_t key,
                      std::uint64_t timestamp) noexcept {
      const std::uint64_t i = trace_count.load(std::memory_order_relaxed);
      TraceEvent& e = trace[i % kTraceCapacity];
      e.timestamp.store(timestamp, std::memory_order_relaxed);
      e.key.store(key, std::memory_order_relaxed);
      e.op.store(static_cast<std::uint8_t>(op), std::memory_order_relaxed);
      trace_count.store(i + 1, std::memory_order_relaxed);
    }
  };

  // Leaky singleton: never destroyed, so thread-exit folding (TLS handle
  // destructors) can run at any point of process teardown.
  static MetricsRegistry& global() {
    static MetricsRegistry* registry = new MetricsRegistry();
    return *registry;
  }

  // The calling thread's slice, claimed on first use. If all slices are
  // taken the shared overflow slice is returned: counts recorded there may
  // race (best effort), but nothing is dropped structurally.
  Slice& local_slice() {
    thread_local SliceHandle handle;
    if (handle.slice == nullptr || handle.registry != this) {
      handle.release();
      handle.registry = this;
      handle.slice = &overflow_;
      handle.owned = false;
      for (unsigned i = 0; i < kMaxSlices; ++i) {
        bool expected = false;
        if (slices_[i].in_use.compare_exchange_strong(
                expected, true, std::memory_order_acq_rel)) {
          handle.slice = &slices_[i];
          handle.owned = true;
          break;
        }
      }
    }
    return *handle.slice;
  }

  std::array<std::uint64_t, kNumCounters> totals() const {
    std::array<std::uint64_t, kNumCounters> sums{};
    for (unsigned c = 0; c < kNumCounters; ++c) {
      sums[c] = retired_[c].load(std::memory_order_relaxed) +
                overflow_.counters[c].load(std::memory_order_relaxed);
      for (unsigned i = 0; i < kMaxSlices; ++i) {
        sums[c] += slices_[i].counters[c].load(std::memory_order_relaxed);
      }
    }
    return sums;
  }

  std::uint64_t total(Counter c) const {
    return totals()[static_cast<unsigned>(c)];
  }

  // Total queue operations executed by the current benchmark cell. Recorded
  // once per repetition by the harness after its workers join (never on the
  // hot path) so per-op derived metrics — hardware-counter events per
  // operation, trace sampling coverage — have a denominator.
  void add_cell_ops(std::uint64_t n) noexcept {
    cell_ops_.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t cell_ops() const noexcept {
    return cell_ops_.load(std::memory_order_relaxed);
  }

  // Visit every sampled trace event across all live rings, oldest first
  // within each slice. `fn(slice_index, op, key, timestamp)` — used by the
  // Chrome trace exporter; reads are racy-but-atomic like dump().
  template <typename Fn>
  void visit_trace_events(Fn&& fn) const {
    for (unsigned i = 0; i < kMaxSlices; ++i) {
      visit_slice_events(slices_[i], i, fn);
    }
    visit_slice_events(overflow_, kMaxSlices, fn);
  }

  // Zero every counter and trace ring. Call between benchmark cells, while
  // no measurement threads are recording (increments racing a reset may be
  // lost, nothing worse).
  void reset() {
    cell_ops_.store(0, std::memory_order_relaxed);
    for (unsigned c = 0; c < kNumCounters; ++c) {
      retired_[c].store(0, std::memory_order_relaxed);
      overflow_.counters[c].store(0, std::memory_order_relaxed);
    }
    overflow_.trace_count.store(0, std::memory_order_relaxed);
    for (unsigned i = 0; i < kMaxSlices; ++i) {
      for (unsigned c = 0; c < kNumCounters; ++c) {
        slices_[i].counters[c].store(0, std::memory_order_relaxed);
      }
      slices_[i].trace_count.store(0, std::memory_order_relaxed);
    }
  }

  // Counter totals plus every live trace ring, newest event first. Safe to
  // call from the watchdog while worker threads are still recording (the
  // snapshot is racy but every read is an atomic load).
  void dump(std::FILE* out) const {
    const auto sums = totals();
    std::fprintf(out, "[cpq-metrics] counters:");
    for (unsigned c = 0; c < kNumCounters; ++c) {
      std::fprintf(out, " %s=%llu", counter_name(c),
                   static_cast<unsigned long long>(sums[c]));
    }
    std::fprintf(out, "\n");
    for (unsigned i = 0; i < kMaxSlices; ++i) {
      dump_trace(out, slices_[i], i);
    }
    dump_trace(out, overflow_, kMaxSlices);
  }

 private:
  struct SliceHandle {
    MetricsRegistry* registry = nullptr;
    Slice* slice = nullptr;
    bool owned = false;

    ~SliceHandle() { release(); }

    // Fold this thread's counts into the retired accumulator and free the
    // slot for the next worker. The trace ring survives the thread: the
    // end-of-run exporters (--dump-traces, --trace-out) read the rings after
    // every worker has joined, so a slice keeps its sampled tail until
    // reset() or until a successor thread claims the slot and records over
    // it (lanes are per-slice, not per-thread, and are labeled as such).
    void release() noexcept {
      if (slice == nullptr || !owned) {
        slice = nullptr;
        return;
      }
      for (unsigned c = 0; c < kNumCounters; ++c) {
        const std::uint64_t v =
            slice->counters[c].load(std::memory_order_relaxed);
        if (v) registry->retired_[c].fetch_add(v, std::memory_order_relaxed);
        slice->counters[c].store(0, std::memory_order_relaxed);
      }
      slice->in_use.store(false, std::memory_order_release);
      slice = nullptr;
    }
  };

  template <typename Fn>
  static void visit_slice_events(const Slice& slice, unsigned index,
                                 Fn&& fn) {
    const std::uint64_t n = slice.trace_count.load(std::memory_order_relaxed);
    if (n == 0) return;
    const std::uint64_t shown = n < kTraceCapacity ? n : kTraceCapacity;
    for (std::uint64_t k = shown; k >= 1; --k) {
      const TraceEvent& e = slice.trace[(n - k) % kTraceCapacity];
      fn(index, e.op.load(std::memory_order_relaxed),
         e.key.load(std::memory_order_relaxed),
         e.timestamp.load(std::memory_order_relaxed));
    }
  }

  static void dump_trace(std::FILE* out, const Slice& slice,
                         unsigned index) {
    const std::uint64_t n = slice.trace_count.load(std::memory_order_relaxed);
    if (n == 0) return;
    std::fprintf(out,
                 "[cpq-metrics] thread-slice %u: %llu sampled ops, "
                 "newest first:\n",
                 index, static_cast<unsigned long long>(n));
    const std::uint64_t shown = n < kTraceCapacity ? n : kTraceCapacity;
    for (std::uint64_t k = 1; k <= shown; ++k) {
      const TraceEvent& e = slice.trace[(n - k) % kTraceCapacity];
      std::fprintf(
          out, "[cpq-metrics]   %-12s key=%llu ts=%llu\n",
          trace_op_name(e.op.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(
              e.key.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(
              e.timestamp.load(std::memory_order_relaxed)));
    }
  }

  Slice slices_[kMaxSlices];
  Slice overflow_;
  std::atomic<std::uint64_t> retired_[kNumCounters] = {};
  std::atomic<std::uint64_t> cell_ops_{0};
};

// Convenience wrappers used by the hook macros (and directly by tests and
// the forced-stall diagnostics path, which work whether or not the macros
// are compiled in).
inline void count(Counter c, std::uint64_t n = 1) noexcept {
  MetricsRegistry::global().local_slice().count(c, n);
}

inline void trace(TraceOp op, std::uint64_t key) noexcept {
  MetricsRegistry::global().local_slice().trace_record(op, key,
                                                       fast_timestamp());
  // Feed the online rank-error estimator from the same sampling seam. The
  // check is one relaxed load on the already-sampled (1-in-64) path; the
  // estimator is armed only for --metrics runs of queues with a rank bound.
  RankEstimator& estimator = RankEstimator::global();
  if (estimator.enabled()) {
    if (op == TraceOp::kInsert) {
      estimator.observe_insert(key);
    } else if (op == TraceOp::kDeleteHit) {
      estimator.observe_delete(key);
    }
  }
}

}  // namespace cpq::obs

// Hook macros. Call sites name the Counter enumerator directly:
//   CPQ_COUNT(kLockRetry);
//   CPQ_COUNT_N(kEbrFree, batch.size());
//   CPQ_TRACE_OP(ops, ::cpq::obs::TraceOp::kInsert, key);
#if defined(CPQ_METRICS_ENABLED)

#define CPQ_COUNT(counter) ::cpq::obs::count(::cpq::obs::Counter::counter)
#define CPQ_COUNT_N(counter, n) \
  ::cpq::obs::count(::cpq::obs::Counter::counter, (n))
// Samples one operation in (kTraceSampleMask + 1); `ops` is the caller's
// running operation count, so the thread-local lookup only happens on the
// sampled iterations.
#define CPQ_TRACE_OP(ops, opcode, key)                        \
  do {                                                        \
    if ((((ops)) & ::cpq::obs::kTraceSampleMask) == 0) {      \
      ::cpq::obs::trace((opcode), (key));                     \
    }                                                         \
  } while (0)

#else  // !CPQ_METRICS_ENABLED

#define CPQ_COUNT(counter) ((void)0)
#define CPQ_COUNT_N(counter, n) ((void)0)
#define CPQ_TRACE_OP(ops, opcode, key) ((void)0)

#endif  // CPQ_METRICS_ENABLED
