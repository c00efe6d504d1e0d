// PriorityService: admission, deadlines and retry around one roster queue
// (src/queues/queue_traits.hpp concept).
//
// The paper's central observation is that workload shape — not raw
// throughput — decides which queue wins; a service front-end is where that
// shape is actually controlled. The service wraps exactly one queue and
// gives every client thread a Handle that holds the queue's handle plus:
//
//   * admission control: a global in-flight bound with reject, block
//     (backpressure), or tiered policy, plus graceful close() + drain()
//     shutdown.
//   * deadline shedding: with ttl_us configured (or try_submit_for), tasks
//     carry an absolute expiry; expired tasks are dropped at pop time,
//     counted, and reported to an optional shed sink instead of delivered.
//     Deadlines ride in a DeadlinePool slot whose index replaces the queue
//     value (top bit tagged), so the inner queue's value type is unchanged —
//     this requires unsigned 64-bit values below 2^63.
//   * tiered admission (AdmissionPolicy::kTiered): the key space is split
//     into priority tiers and low-priority tiers are rejected first as the
//     in-flight window fills, instead of the binary full/not-full cliff.
//   * bounded retry: submit_with_retry retries rejected submissions with
//     exponential backoff up to retry_limit times.
//
// Scaling and relaxation are the queue's job. Insertion and deletion
// buffers, sticky two-choice routing and spill-on-destroy live in
// MultiQueue's buffered configurations ("Engineering MultiQueues",
// Williams & Sanders); a caller that wants them builds
// PriorityService<MultiQueue<K, V>> over MultiQueue(threads, MqEngConfig{},
// seed). The service adds no relaxation of its own: over GlobalLockQueue at
// one thread it delivers in exact key order.
//
// Conservation: every accepted task is delivered exactly once, recovered by
// drain(), or (with deadlines enabled) shed exactly once through the shed
// sink. tests/torture_test.cpp audits this through CheckedQueue under fault
// injection for every roster queue.
//
// Counters: one cache-aligned block per thread id, owned by the service (so
// counts outlive handles) and written only by the handle of that id, so
// with max_in_flight == 0 a task costs no shared read-modify-write beyond
// the queue's own. Only the bounded admission path keeps a global in-flight
// count (a CAS per admission, a decrement per delivery or shed). stats(),
// fill_gauges() and in_flight() sum the blocks; dump_stats() is what the
// service benches install as the watchdog's diagnostics callback.
//
// Fault-injection seams: CPQ_INJECT("service/submit") and
// CPQ_INJECT("service/delete_min") sit at the public entry points, before
// any service state changes, so kThrow there never loses an accepted task.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "platform/backoff.hpp"
#include "platform/cache.hpp"
#include "service/resilience.hpp"
#include "validation/fault_injection.hpp"

namespace cpq::service {

enum class AdmissionPolicy : std::uint8_t {
  kBlock,   // submitters wait (backpressure) until in-flight drops
  kReject,  // try_submit returns false immediately when full
  kTiered,  // low-priority tiers rejected first as the window fills
};

struct ServiceConfig {
  // Admission bound on accepted-but-undelivered tasks; 0 = unbounded.
  std::size_t max_in_flight = 0;
  AdmissionPolicy policy = AdmissionPolicy::kBlock;
  // Unused: the service routes to one queue and draws no random numbers.
  // Kept because perfbench/ sets it.
  std::uint64_t seed = 1;

  // ---- overload resilience ----
  // Default time-to-live applied to every submission; 0 disables deadline
  // shedding (per-task deadlines via try_submit_for still work if
  // deadline_slots > 0). Requires unsigned 64-bit values < 2^63.
  std::uint64_t ttl_us = 0;
  // DeadlinePool capacity; 0 derives it from max_in_flight (or 64k).
  std::size_t deadline_slots = 0;
  // Tier count for AdmissionPolicy::kTiered when tier_boundaries is empty:
  // the key space [0, tier_key_space) is split uniformly. 0 means 4.
  unsigned tiers = 0;
  std::uint64_t tier_key_space = std::uint64_t{1} << 32;
  // Explicit ascending tier upper bounds (overrides uniform splitting).
  std::vector<std::uint64_t> tier_boundaries;
  // submit_with_retry: extra attempts after the first rejection, backing off
  // exponentially from retry_base_us.
  unsigned retry_limit = 3;
  std::uint64_t retry_base_us = 50;
};

struct ServiceStats {
  std::uint64_t submitted = 0;        // accepted tasks
  std::uint64_t rejected = 0;         // admission rejections (all causes)
  std::uint64_t tier_rejected = 0;    // rejections from the tier gate only
  std::uint64_t delivered = 0;        // tasks handed to consumers
  std::uint64_t drained = 0;          // tasks recovered by drain()
  std::uint64_t shed_deadline = 0;    // tasks dropped past their deadline
  std::uint64_t retries = 0;          // submit_with_retry re-attempts
  std::uint64_t retry_exhausted = 0;  // submissions dropped after retries
  std::uint64_t pool_exhausted = 0;   // deadline slots unavailable
  // Always 0: the service has no buffers of its own (a buffered queue
  // counts its own). Kept because perfbench/ reads them.
  std::uint64_t flushes = 0;
  std::uint64_t refills = 0;
  std::uint64_t steals = 0;
  double mean_insert_fill = 0.0;
  double mean_delete_fill = 0.0;
};

template <typename Q>
class PriorityService {
  struct Counts;

 public:
  using key_type = typename Q::key_type;
  using value_type = typename Q::value_type;
  using InnerHandle = decltype(std::declval<Q&>().get_handle(0u));
  using ShedSink = std::function<void(key_type, value_type)>;

  // Deadline envelopes replace the queue value with a tagged DeadlinePool
  // slot index; only unsigned 64-bit value types have the spare top bit.
  static constexpr bool kDeadlineCapable =
      std::is_integral_v<value_type> && std::is_unsigned_v<value_type> &&
      sizeof(value_type) == 8;

  // `make_queue(0u)` constructs the one queue, which must accept
  // get_handle(tid) for tid in [0, max_threads).
  template <typename QueueFactory>
  PriorityService(unsigned max_threads, const ServiceConfig& config,
                  QueueFactory&& make_queue)
      : config_(config),
        queue_(make_queue(0u)),
        counts_(max_threads == 0 ? 1 : max_threads) {
    if constexpr (kDeadlineCapable) {
      if (config_.ttl_us > 0 || config_.deadline_slots > 0) {
        std::size_t slots = config_.deadline_slots;
        if (slots == 0) {
          slots = config_.max_in_flight > 0 ? config_.max_in_flight
                                            : std::size_t{1} << 16;
        }
        pool_ = std::make_unique<DeadlinePool<value_type>>(slots);
      }
    }
    if (config_.policy == AdmissionPolicy::kTiered) {
      if (!config_.tier_boundaries.empty()) {
        tier_map_.boundaries = config_.tier_boundaries;
      } else {
        tier_map_ = TierMap::uniform(config_.tiers == 0 ? 4 : config_.tiers,
                                     config_.tier_key_space);
      }
    }
  }

  class Handle {
   public:
    Handle(Handle&&) = default;
    Handle& operator=(Handle&&) = delete;

    // Queue-concept insert: never drops an accepted task. Blocks for a slot
    // regardless of the configured policy (use try_submit for kReject
    // semantics); the only way it can fail is a close()d service — close()
    // deliberately wakes submitters parked on the in-flight bound so
    // shutdown cannot deadlock behind a full admission window. The bool
    // return reports acceptance for callers that track conservation; plain
    // queue-concept users may ignore it.
    bool insert(key_type key, value_type value) {
      return submit(key, value, true, config().ttl_us);
    }

    // Policy-honouring submission. Returns false (and counts a rejection)
    // when the service is closed, or when the in-flight bound (or, under
    // kTiered, the key's tier allowance) is hit.
    bool try_submit(key_type key, value_type value) {
      return submit(key, value, config().policy == AdmissionPolicy::kBlock,
                    config().ttl_us);
    }

    // try_submit with an explicit time-to-live (microseconds; 0 = no
    // deadline) overriding the configured default.
    bool try_submit_for(key_type key, value_type value,
                        std::uint64_t ttl_us) {
      return submit(key, value, config().policy == AdmissionPolicy::kBlock,
                    ttl_us);
    }

    // Bounded retry for rejected submissions: up to retry_limit extra
    // attempts with exponential backoff from retry_base_us. Returns false
    // once the budget is exhausted or the service closes.
    bool submit_with_retry(key_type key, value_type value) {
      if (try_submit(key, value)) return true;
      for (unsigned attempt = 0; attempt < config().retry_limit; ++attempt) {
        if (service_->closed()) return false;
        CPQ_COUNT(kServiceRetry);
        bump(counts_->retries);
        const unsigned shift = attempt < 20 ? attempt : 20;
        std::this_thread::sleep_for(
            std::chrono::microseconds(config().retry_base_us << shift));
        if (try_submit(key, value)) return true;
      }
      bump(counts_->retry_exhausted);
      return false;
    }

    bool delete_min(key_type& key_out, value_type& value_out) {
      CPQ_INJECT("service/delete_min");
      return pop_task(key_out, value_out, counts_->delivered);
    }

    // Tasks shed during the most recent delete_min call on this handle.
    // A false delete_min with last_pop_shed() > 0 means "busy shedding an
    // expired backlog", not "empty" — poll again instead of concluding the
    // service has drained.
    std::size_t last_pop_shed() const noexcept { return shed_in_pop_; }

   private:
    friend class PriorityService;

    // Bound on expired tasks shed inside one pop_task call: enough to chew
    // through a modest expired backlog in one call, small enough that a
    // full-expiry storm (producers feeding dead-on-arrival tasks as fast as
    // they are shed) cannot trap the caller and starve its heartbeat.
    static constexpr std::size_t kMaxShedRounds = 64;

    Handle(PriorityService& service, unsigned thread_id)
        : service_(&service),
          inner_(service.queue_->get_handle(thread_id)),
          counts_(&service.counts_[thread_id % service.counts_.size()]
                       .value) {}

    const ServiceConfig& config() const noexcept { return service_->config_; }

    bool submit(key_type key, value_type value, bool block,
                std::uint64_t ttl_us) {
      CPQ_INJECT("service/submit");
      unsigned tier = 0;
      if (!block && config().policy == AdmissionPolicy::kTiered &&
          config().max_in_flight > 0) {
        tier = service_->tier_map_.tier_of(static_cast<std::uint64_t>(key));
      }
      bool tier_limited = false;
      if (!service_->acquire_slot(block, tier, tier_limited)) {
        CPQ_COUNT(kServiceReject);
        bump(counts_->rejected);
        if (tier_limited) {
          CPQ_COUNT(kServiceTierReject);
          bump(counts_->tier_rejected);
        }
        return false;
      }
      // The deadline starts before the chaos pause: a stalled queue makes
      // tasks older, which is what deadline shedding is there to catch.
      const std::uint64_t deadline =
          ttl_us != 0 ? steady_now_us() + ttl_us : 0;
      service_->chaos_pause();
      inner_.insert(key, service_->encode(value, deadline));
      bump(counts_->submitted);
      return true;
    }

    // Shared pop path; `counted` is the delivered counter for delete_min and
    // the drained counter for drain(), so the two stats add up without
    // double counting. A false return means the queue reported empty, or
    // that kMaxShedRounds expired tasks were shed (see last_pop_shed()).
    bool pop_task(key_type& key_out, value_type& value_out,
                  std::atomic<std::uint64_t>& counted) {
      shed_in_pop_ = 0;
      service_->chaos_pause();
      key_type key{};
      value_type value{};
      while (inner_.delete_min(key, value)) {
        std::uint64_t deadline_us = 0;
        value = service_->decode(value, deadline_us);
        if (deadline_us != 0 && steady_now_us() > deadline_us) {
          service_->shed_task(key, value, *counts_);
          if (++shed_in_pop_ >= kMaxShedRounds) return false;
          continue;
        }
        key_out = key;
        value_out = value;
        bump(counted);
        service_->release_slot();
        return true;
      }
      return false;
    }

    PriorityService* service_;
    InnerHandle inner_;
    Counts* counts_;
    std::size_t shed_in_pop_ = 0;
  };

  Handle get_handle(unsigned thread_id) { return Handle(*this, thread_id); }

  // Stop admitting work: subsequent submissions fail (and are counted as
  // rejected); submitters blocked on the in-flight bound wake up and fail.
  // Already-accepted tasks stay deliverable. Idempotent and safe to call
  // concurrently with in-flight insert()/try_submit(); returns true for the
  // call that actually transitioned the service to closed.
  bool close() noexcept {
    return !closed_.exchange(true, std::memory_order_acq_rel);
  }
  bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

  // Pop every remaining task into `sink(key, value)`. Call after every
  // worker handle has been destroyed (a buffered queue's handles spill on
  // destruction); the drain re-polls so relaxed transient emptiness cannot
  // hide tasks. Expired tasks shed during the drain go to the shed sink, not
  // to `sink`. Returns the number of drained tasks.
  template <typename Sink>
  std::size_t drain(Sink&& sink) {
    auto handle = get_handle(0);
    key_type key{};
    value_type value{};
    std::size_t drained = 0;
    unsigned misses = 0;
    while (misses < 8) {
      if (handle.pop_task(key, value, handle.counts_->drained)) {
        sink(key, value);
        ++drained;
        misses = 0;
      } else if (handle.last_pop_shed() > 0) {
        misses = 0;  // not empty — an expired backlog is being shed
      } else {
        ++misses;
      }
    }
    return drained;
  }

  // Observer for shed tasks (conservation audits, dead-letter queues).
  // Install before traffic starts; called from whichever thread sheds.
  void set_shed_sink(ShedSink sink) { shed_sink_ = std::move(sink); }

  // Chaos hook (always compiled, one relaxed load per operation when idle):
  // every submit and delete_min sleeps for `stall_us` before it touches the
  // queue — a slow queue as its clients see it. 0 clears the stall.
  void chaos_stall(std::uint32_t stall_us) noexcept {
    chaos_stall_us_.store(stall_us, std::memory_order_relaxed);
  }

  // Accepted tasks not yet delivered, drained or shed. Exact once the
  // handles are quiescent; a racy estimate while they run.
  std::size_t in_flight() const noexcept { return in_flight_of(stats()); }

  const ServiceConfig& config() const noexcept { return config_; }

  ServiceStats stats() const noexcept {
    ServiceStats out;
    for (const auto& aligned : counts_) {
      const Counts& c = aligned.value;
      out.submitted += c.submitted.load(std::memory_order_relaxed);
      out.rejected += c.rejected.load(std::memory_order_relaxed);
      out.tier_rejected += c.tier_rejected.load(std::memory_order_relaxed);
      out.delivered += c.delivered.load(std::memory_order_relaxed);
      out.drained += c.drained.load(std::memory_order_relaxed);
      out.shed_deadline += c.shed.load(std::memory_order_relaxed);
      out.retries += c.retries.load(std::memory_order_relaxed);
      out.retry_exhausted +=
          c.retry_exhausted.load(std::memory_order_relaxed);
    }
    out.pool_exhausted = pool_ != nullptr ? pool_->exhausted() : 0;
    return out;
  }

  // Telemetry gauge snapshot: fills an obs::GaugeSet-shaped sink (templated
  // so this header stays independent of obs/timeseries.hpp) from the same
  // relaxed atomics stats() reads. Allocation-free and safe to call from the
  // telemetry sampler thread while workers run. Gauge names must be string
  // literals (GaugeSet stores the pointers).
  template <typename GaugeSetT>
  void fill_gauges(GaugeSetT& g) const {
    const ServiceStats s = stats();
    g.set("submitted", static_cast<double>(s.submitted));
    g.set("delivered", static_cast<double>(s.delivered));
    g.set("rejected", static_cast<double>(s.rejected));
    g.set("shed", static_cast<double>(s.shed_deadline));
    g.set("in_flight", static_cast<double>(in_flight_of(s)));
  }

  // Human-readable counter dump; installed as the watchdog's diagnostics
  // callback by the service benches so livelocks die loudly.
  void dump_stats(std::FILE* out) const {
    const ServiceStats s = stats();
    std::fprintf(out,
                 "[cpq-service] submitted=%llu delivered=%llu drained=%llu "
                 "rejected=%llu in_flight=%zu stall_us=%u\n",
                 static_cast<unsigned long long>(s.submitted),
                 static_cast<unsigned long long>(s.delivered),
                 static_cast<unsigned long long>(s.drained),
                 static_cast<unsigned long long>(s.rejected), in_flight_of(s),
                 static_cast<unsigned>(
                     chaos_stall_us_.load(std::memory_order_relaxed)));
    if (s.shed_deadline + s.tier_rejected + s.retries + s.pool_exhausted >
        0) {
      std::fprintf(out,
                   "[cpq-service] shed=%llu tier_rejects=%llu retries=%llu "
                   "retry_exhausted=%llu pool_exhausted=%llu\n",
                   static_cast<unsigned long long>(s.shed_deadline),
                   static_cast<unsigned long long>(s.tier_rejected),
                   static_cast<unsigned long long>(s.retries),
                   static_cast<unsigned long long>(s.retry_exhausted),
                   static_cast<unsigned long long>(s.pool_exhausted));
    }
  }

 private:
  static constexpr std::uint64_t kEnvelopeTag = std::uint64_t{1} << 63;

  // One thread id's counters. Single writer (the handle of that id), so
  // bump() is a relaxed load and store, not a locked read-modify-write;
  // readers (stats, the telemetry sampler) load relaxed.
  struct Counts {
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> tier_rejected{0};
    std::atomic<std::uint64_t> delivered{0};
    std::atomic<std::uint64_t> drained{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> retry_exhausted{0};
  };

  static std::size_t in_flight_of(const ServiceStats& s) noexcept {
    const std::uint64_t out = s.delivered + s.drained + s.shed_deadline;
    return s.submitted > out ? static_cast<std::size_t>(s.submitted - out)
                             : 0;
  }

  static void bump(std::atomic<std::uint64_t>& counter) noexcept {
    counter.store(counter.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  }

  void chaos_pause() const {
    const std::uint32_t us = chaos_stall_us_.load(std::memory_order_relaxed);
    if (us != 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
  }

  // Wrap a value for the queue: with a deadline and a free DeadlinePool
  // slot, the value becomes the tagged slot index; otherwise (no deadline,
  // pool exhausted, or non-envelope value type) the raw value travels
  // untouched and the task simply cannot be shed.
  value_type encode(value_type value, std::uint64_t deadline_us) noexcept {
    if constexpr (kDeadlineCapable) {
      if (deadline_us != 0 && pool_ != nullptr) {
        std::uint32_t slot = 0;
        if (pool_->acquire(value, deadline_us, slot)) {
          return static_cast<value_type>(kEnvelopeTag |
                                         static_cast<std::uint64_t>(slot));
        }
      }
    }
    return value;
  }

  // Inverse of encode(): the task's value, and its deadline (0 = none)
  // through `deadline_us`.
  value_type decode(value_type value, std::uint64_t& deadline_us) noexcept {
    if constexpr (kDeadlineCapable) {
      if (pool_ != nullptr &&
          (static_cast<std::uint64_t>(value) & kEnvelopeTag) != 0) {
        const auto entry = pool_->take(static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(value) & 0xFFFF'FFFFull));
        deadline_us = entry.deadline_us;
        return entry.value;
      }
    }
    return value;
  }

  // Account one shed task: counted, reported to the sink, and its in-flight
  // slot released (it will never reach delete_min's hand-off).
  void shed_task(key_type key, value_type value, Counts& counts) {
    CPQ_COUNT(kServiceShed);
    bump(counts.shed);
    if (shed_sink_) shed_sink_(key, value);
    release_slot();
  }

  bool acquire_slot(bool block, unsigned tier, bool& tier_limited) {
    tier_limited = false;
    if (closed()) return false;
    if (config_.max_in_flight == 0) return true;
    const unsigned tiers =
        config_.policy == AdmissionPolicy::kTiered ? tier_map_.tiers() : 1;
    Backoff backoff;
    for (;;) {
      std::size_t current = in_flight_.load(std::memory_order_relaxed);
      if (current < config_.max_in_flight) {
        if (!block && tier > 0 &&
            !tier_admitted(current, config_.max_in_flight, tier, tiers)) {
          tier_limited = true;
          return false;
        }
        if (in_flight_.compare_exchange_weak(current, current + 1,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed)) {
          return true;
        }
        continue;
      }
      if (!block || closed()) return false;
      backoff.pause();
    }
  }

  void release_slot() noexcept {
    if (config_.max_in_flight != 0) {
      in_flight_.fetch_sub(1, std::memory_order_release);
    }
  }

  ServiceConfig config_;
  std::unique_ptr<Q> queue_;
  std::vector<CacheAligned<Counts>> counts_;
  std::unique_ptr<DeadlinePool<value_type>> pool_;
  TierMap tier_map_;
  ShedSink shed_sink_;
  // Read on every operation, written only by close() and chaos_stall().
  std::atomic<bool> closed_{false};
  std::atomic<std::uint32_t> chaos_stall_us_{0};
  // The bounded admission window's count (max_in_flight > 0 only).
  alignas(kCacheLineSize) std::atomic<std::size_t> in_flight_{0};
};

}  // namespace cpq::service
