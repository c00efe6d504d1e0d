// Unit tests for the PriorityService dispatch layer: exact ordering over a
// strict queue, admission control (reject and blocking backpressure),
// close()/drain() shutdown, per-thread counters that outlive handles, when a
// buffered queue publishes, the chaos stall hook, and the open-loop service
// bench harness (including its CheckedQueue mode).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "platform/rng.hpp"
#include "platform/thread_util.hpp"
#include "queues/globallock.hpp"
#include "queues/multiqueue.hpp"
#include "service/priority_service.hpp"
#include "service/service_bench.hpp"
#include "validation/checked_queue.hpp"

namespace cpq::service {
namespace {

using K = std::uint64_t;
using V = std::uint64_t;
using Lock = GlobalLockQueue<K, V>;

using Mq = MultiQueue<K, V>;
using MqService = PriorityService<Mq>;

std::unique_ptr<PriorityService<Lock>> make_lock_service(
    unsigned threads, const ServiceConfig& cfg) {
  return std::make_unique<PriorityService<Lock>>(
      threads, cfg, [&](unsigned) { return std::make_unique<Lock>(threads); });
}

// The buffered MultiQueue (insertion/deletion buffers, sticky rounds).
std::unique_ptr<MqService> make_mq_eng_service(unsigned threads,
                                               const ServiceConfig& cfg) {
  return std::make_unique<MqService>(threads, cfg, [&](unsigned) {
    return std::make_unique<Mq>(threads, MqEngConfig{}, 1);
  });
}

// The service is one queue with no buffers of its own, so over a strict
// queue a batch of inserts comes back out in exact key order.
TEST(PriorityService, SingleShardUnbatchedIsStrictlyOrdered) {
  auto service = make_lock_service(1, {});
  auto handle = service->get_handle(0);
  for (K key : {9u, 3u, 7u, 1u, 5u}) handle.insert(key, key * 10);
  K key;
  V value;
  std::vector<K> popped;
  while (handle.delete_min(key, value)) {
    EXPECT_EQ(value, key * 10);
    popped.push_back(key);
  }
  EXPECT_EQ(popped, (std::vector<K>{1, 3, 5, 7, 9}));
}

// One thread, default config, over a strict queue: the service adds no
// relaxation, so every pop returns the current minimum — also when inserts
// and pops interleave (a handle-side insertion or deletion buffer would
// hand out a stale or not-yet-published minimum here).
TEST(PriorityService, DefaultConfigDeliversInExactKeyOrderOverGlock) {
  auto service = make_lock_service(1, {});
  auto handle = service->get_handle(0);
  std::multiset<K> reference;
  Xoroshiro128 rng(3);
  K key;
  V value;
  for (int round = 0; round < 200; ++round) {
    const unsigned inserts = 1 + static_cast<unsigned>(rng.next_below(12));
    for (unsigned i = 0; i < inserts; ++i) {
      const K k = rng.next_below(1000);
      handle.insert(k, k * 10);
      reference.insert(k);
    }
    const unsigned pops = 1 + static_cast<unsigned>(rng.next_below(12));
    for (unsigned i = 0; i < pops && !reference.empty(); ++i) {
      ASSERT_TRUE(handle.delete_min(key, value));
      EXPECT_EQ(value, key * 10);
      ASSERT_EQ(key, *reference.begin()) << "round " << round;
      reference.erase(reference.begin());
    }
  }
  while (!reference.empty()) {
    ASSERT_TRUE(handle.delete_min(key, value));
    ASSERT_EQ(key, *reference.begin());
    reference.erase(reference.begin());
  }
  EXPECT_FALSE(handle.delete_min(key, value));
}

TEST(PriorityService, RejectPolicyBoundsInFlightWork) {
  ServiceConfig cfg;
  cfg.max_in_flight = 2;
  cfg.policy = AdmissionPolicy::kReject;
  auto service = make_lock_service(1, cfg);
  auto handle = service->get_handle(0);
  EXPECT_TRUE(handle.try_submit(1, 1));
  EXPECT_TRUE(handle.try_submit(2, 2));
  EXPECT_FALSE(handle.try_submit(3, 3));  // bound hit
  EXPECT_EQ(service->in_flight(), 2u);

  K key;
  V value;
  ASSERT_TRUE(handle.delete_min(key, value));
  EXPECT_TRUE(handle.try_submit(3, 3));  // slot released by the delivery
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.submitted, 3u);
}

TEST(PriorityService, CloseRejectsNewWorkButKeepsAcceptedDeliverable) {
  ServiceConfig cfg;
  auto service = make_lock_service(1, cfg);
  auto handle = service->get_handle(0);
  handle.insert(1, 10);
  handle.insert(2, 20);
  service->close();
  EXPECT_TRUE(service->closed());
  EXPECT_FALSE(handle.try_submit(3, 30));
  K key;
  V value;
  EXPECT_TRUE(handle.delete_min(key, value));
  EXPECT_TRUE(handle.delete_min(key, value));
  EXPECT_FALSE(handle.delete_min(key, value));
  EXPECT_EQ(service->stats().rejected, 1u);
}

// The acceptance-critical shutdown property: producers blocked on the
// admission bound (backpressure), concurrent consumers, then close() +
// handle teardown + drain() — every accepted task is delivered or drained,
// none dropped, none duplicated (values are unique per task).
TEST(PriorityService, BackpressureDrainShutdownDropsNoTask) {
  constexpr unsigned kProducers = 2;
  constexpr unsigned kConsumers = 2;
  constexpr unsigned kThreads = kProducers + kConsumers;
  constexpr std::uint64_t kPerProducer = 5000;
  ServiceConfig cfg;
  cfg.max_in_flight = 64;  // far below the offered total: submitters block
  cfg.policy = AdmissionPolicy::kBlock;
  auto service = make_lock_service(kThreads, cfg);

  std::atomic<unsigned> producers_done{0};
  std::vector<char> seen(kThreads * kPerProducer, 0);
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<bool> duplicate{false};

  auto mark = [&](V value) {
    if (seen[value]) duplicate.store(true);
    seen[value] = 1;
    delivered.fetch_add(1, std::memory_order_relaxed);
  };

  run_team(kThreads, [&](unsigned tid) {
    if (tid < kProducers) {
      {
        auto handle = service->get_handle(tid);
        for (std::uint64_t i = 0; i < kPerProducer; ++i) {
          handle.insert(i % 97, tid * kPerProducer + i);
        }
      }
      producers_done.fetch_add(1, std::memory_order_release);
    } else {
      auto handle = service->get_handle(tid);
      K key;
      V value;
      unsigned misses = 0;
      while (misses < 64) {
        if (handle.delete_min(key, value)) {
          mark(value);
          misses = 0;
        } else if (producers_done.load(std::memory_order_acquire) ==
                   kProducers) {
          ++misses;
        }
      }
    }
  });

  service->close();
  const std::size_t drained = service->drain([&](K, V value) { mark(value); });

  EXPECT_FALSE(duplicate.load()) << "a task was delivered twice";
  EXPECT_EQ(delivered.load(), kProducers * kPerProducer)
      << "a task was dropped (drained " << drained << ")";
  EXPECT_EQ(service->in_flight(), 0u);
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.submitted, kProducers * kPerProducer);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(PriorityService, CloseWakesBlockedSubmitters) {
  ServiceConfig cfg;
  cfg.max_in_flight = 1;
  cfg.policy = AdmissionPolicy::kBlock;
  auto service = make_lock_service(2, cfg);
  auto warm = service->get_handle(0);
  warm.insert(1, 1);  // takes the only slot

  std::atomic<bool> returned{false};
  std::thread blocked([&] {
    auto handle = service->get_handle(1);
    EXPECT_FALSE(handle.try_submit(2, 2));  // blocks until close()
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  service->close();
  blocked.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(service->stats().rejected, 1u);
}

TEST(PriorityService, StatsAccountForEveryFlushedAndPoppedTask) {
  auto service = make_mq_eng_service(1, {});
  {
    auto handle = service->get_handle(0);
    Xoroshiro128 rng(7);
    for (std::uint64_t i = 0; i < 1000; ++i) {
      handle.insert(rng.next_below(1u << 20), i);
    }
    K key;
    V value;
    for (int i = 0; i < 500; ++i) ASSERT_TRUE(handle.delete_min(key, value));
  }  // the queue handle spills its buffers back into the queue

  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.submitted, 1000u);
  EXPECT_EQ(stats.delivered, 500u);
  EXPECT_EQ(stats.drained, 0u);
  EXPECT_EQ(service->in_flight(), 500u);
  // The service has no buffers of its own; the queue's are not its to count.
  EXPECT_EQ(stats.flushes + stats.refills + stats.steals, 0u);
  EXPECT_EQ(stats.mean_insert_fill, 0.0);
  EXPECT_EQ(stats.mean_delete_fill, 0.0);

  std::size_t drained = 0;
  service->drain([&](K, V) { ++drained; });
  EXPECT_EQ(drained, 500u);
  stats = service->stats();
  EXPECT_EQ(stats.drained, 500u);
  EXPECT_EQ(service->in_flight(), 0u);
}

// Counts live in per-thread-id blocks owned by the service, not in handles:
// with handles created and destroyed mid-run (each teardown spills the
// queue's buffers) and no admission bound, every accepted task is still
// accounted for exactly once after the drain.
TEST(PriorityService, CountsOutliveHandlesAndBalanceAfterDrain) {
  constexpr unsigned kThreads = 4;
  ServiceConfig cfg;
  cfg.ttl_us = 200;  // some tasks expire in the queue and are shed
  auto service = make_mq_eng_service(kThreads, cfg);
  std::atomic<std::uint64_t> accepted{0};
  run_team(kThreads, [&](unsigned tid) {
    Xoroshiro128 rng(thread_seed(0xc0de, tid));
    std::uint64_t mine = 0;
    for (int epoch = 0; epoch < 8; ++epoch) {
      auto handle = service->get_handle(tid);
      for (int op = 0; op < 2000; ++op) {
        if (rng.next_below(100) < 60) {
          mine += handle.insert(rng.next_below(1u << 16), tid);
        } else {
          K key;
          V value;
          handle.delete_min(key, value);
        }
      }
    }
    accepted.fetch_add(mine, std::memory_order_relaxed);
  });
  service->close();
  const std::size_t drained = service->drain([](K, V) {});

  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.submitted, accepted.load());
  EXPECT_EQ(stats.drained, drained);
  EXPECT_EQ(stats.submitted,
            stats.delivered + stats.drained + stats.shed_deadline);
  EXPECT_GT(stats.delivered, 0u);
  EXPECT_EQ(service->in_flight(), 0u);
}

// in_flight() and the telemetry gauges sum every thread id's block: work
// submitted on one handle and delivered on others balances, and stays
// balanced once those handles are gone.
TEST(PriorityService, InFlightAndGaugesSumEveryThreadsCounts) {
  struct Gauges {
    std::map<std::string, double> values;
    void set(const char* name, double value) { values[name] = value; }
  };
  auto service = make_lock_service(3, {});
  {
    auto producer = service->get_handle(0);
    auto consumer_a = service->get_handle(1);
    auto consumer_b = service->get_handle(2);
    for (K key = 0; key < 6; ++key) ASSERT_TRUE(producer.insert(key, key));
    K key;
    V value;
    ASSERT_TRUE(consumer_a.delete_min(key, value));
    ASSERT_TRUE(consumer_a.delete_min(key, value));
    ASSERT_TRUE(consumer_b.delete_min(key, value));
    EXPECT_EQ(service->in_flight(), 3u);
  }
  EXPECT_EQ(service->in_flight(), 3u);
  Gauges gauges;
  service->fill_gauges(gauges);
  EXPECT_EQ(gauges.values["submitted"], 6.0);
  EXPECT_EQ(gauges.values["delivered"], 3.0);
  EXPECT_EQ(gauges.values["in_flight"], 3.0);
  EXPECT_EQ(gauges.values["shed"], 0.0);
}

// A buffered queue's handle holds inserts back until its batch fills or
// the handle goes away; the service adds no flush of its own. Tasks in
// that buffer are already accepted, so they count as in flight.
TEST(PriorityService, BufferedQueueTasksPublishOnBatchOrHandleTeardown) {
  const unsigned batch = MqEngConfig{}.ins_buffer;
  ASSERT_GT(batch, 4u);
  auto service = make_mq_eng_service(2, {});
  auto consumer = service->get_handle(1);
  K key;
  V value;
  // Pops until `want` tasks arrived; a relaxed queue may miss transiently.
  auto collect = [&](std::size_t want) {
    std::size_t got = 0;
    for (int attempt = 0; attempt < 10'000 && got < want; ++attempt) {
      if (consumer.delete_min(key, value)) ++got;
    }
    return got;
  };
  {
    auto producer = service->get_handle(0);
    for (K k = 0; k + 1 < batch; ++k) producer.insert(k, k);
    EXPECT_EQ(service->in_flight(), batch - 1);
    EXPECT_FALSE(consumer.delete_min(key, value));  // still buffered

    producer.insert(batch - 1, 0);  // the batch is full: published
    EXPECT_EQ(collect(batch), batch);

    for (K k = 0; k < 3; ++k) producer.insert(k, k);
    EXPECT_FALSE(consumer.delete_min(key, value));
  }  // teardown spills the partial batch
  EXPECT_EQ(collect(3), 3u);
  EXPECT_FALSE(consumer.delete_min(key, value));
  EXPECT_EQ(service->in_flight(), 0u);
}

// chaos_stall(us) makes every submit and delete_min wait before it
// touches the queue; 0 clears it. Nothing is lost while it holds.
TEST(PriorityService, ChaosStallDelaysEveryQueueOperationUntilCleared) {
  using Clock = std::chrono::steady_clock;
  constexpr std::uint32_t kStallUs = 2'000;
  auto service = make_lock_service(1, {});
  auto handle = service->get_handle(0);
  service->chaos_stall(kStallUs);
  auto start = Clock::now();
  ASSERT_TRUE(handle.insert(7, 70));
  EXPECT_GE(Clock::now() - start, std::chrono::microseconds(kStallUs));
  K key;
  V value;
  start = Clock::now();
  ASSERT_TRUE(handle.delete_min(key, value));
  EXPECT_GE(Clock::now() - start, std::chrono::microseconds(kStallUs));
  EXPECT_EQ(key, 7u);
  EXPECT_EQ(value, 70u);

  service->chaos_stall(0);
  ASSERT_TRUE(handle.insert(8, 80));
  ASSERT_TRUE(handle.delete_min(key, value));
  EXPECT_EQ(key, 8u);
  EXPECT_EQ(service->stats().delivered, 2u);
}

TEST(PriorityService, WrappedInCheckedQueueConservesTasks) {
  constexpr unsigned kThreads = 4;
  ServiceConfig cfg;
  validation::CheckedQueue<MqService> checked(
      kThreads, make_mq_eng_service(kThreads, cfg));

  run_team(kThreads, [&](unsigned tid) {
    auto handle = checked.get_handle(tid);
    Xoroshiro128 rng(thread_seed(0x5eed, tid));
    for (std::uint64_t i = 0; i < 4000; ++i) {
      if (rng.next_below(100) < 60) {
        handle.insert(rng.next_below(1u << 12),
                      (static_cast<V>(tid + 1) << 32) | i);
      } else {
        K key;
        V value;
        handle.delete_min(key, value);
      }
    }
  });

  const validation::ReconcileReport report = checked.reconcile();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.inserted, 0u);
}

// ---- the open-loop bench harness -----------------------------------------

ServiceBenchConfig tiny_bench() {
  ServiceBenchConfig cfg;
  cfg.producers = 1;
  cfg.consumers = 1;
  cfg.duration_s = 0.02;
  cfg.prefill = 500;
  cfg.seed = 11;
  cfg.pin_threads = false;
  return cfg;
}

TEST(ServiceBench, RawAndServiceRunsDeliverTasks) {
  auto factory = [](unsigned threads, std::uint64_t) {
    return std::make_unique<Lock>(threads);
  };
  const ServiceBenchConfig cfg = tiny_bench();
  const ServiceBenchResult raw = run_open_loop_raw(factory, cfg);
  EXPECT_GT(raw.submitted, 0u);
  EXPECT_GT(raw.delivered, 0u);
  EXPECT_GT(raw.offered_per_s, 0.0);

  const ServiceBenchResult service = run_open_loop_service(factory, cfg);
  EXPECT_GT(service.submitted, 0u);
  EXPECT_GT(service.delivered, 0u);
  EXPECT_EQ(service.stats.drained, service.drained);
  // Shutdown accounting: everything accepted (prefill included — it goes
  // through the same handle path) was delivered or recovered by the drain.
  EXPECT_EQ(service.stats.submitted,
            service.stats.delivered + service.drained);
}

TEST(ServiceBench, CheckedModeReportsConservation) {
  auto factory = [](unsigned threads, std::uint64_t) {
    return std::make_unique<Lock>(threads);
  };
  ServiceBenchConfig cfg = tiny_bench();
  cfg.checked = true;
  const ServiceBenchResult raw = run_open_loop_raw(factory, cfg);
  EXPECT_TRUE(raw.conservation_ok) << raw.conservation_report;
  const ServiceBenchResult service = run_open_loop_service(factory, cfg);
  EXPECT_TRUE(service.conservation_ok) << service.conservation_report;
  EXPECT_GT(service.delivered, 0u);
}

TEST(ServiceBench, PoissonArrivalsThrottleOfferedLoad) {
  auto factory = [](unsigned threads, std::uint64_t) {
    return std::make_unique<Lock>(threads);
  };
  ServiceBenchConfig cfg = tiny_bench();
  cfg.duration_s = 0.05;
  cfg.arrival_hz = 10000.0;  // ~500 arrivals in the window vs millions raw
  cfg.measure_quality = false;
  const ServiceBenchResult throttled = run_open_loop_service(factory, cfg);
  EXPECT_GT(throttled.submitted, 0u);
  // Open loop: the offered rate tracks the schedule, not the queue. Allow
  // generous jitter for a 1-core container.
  EXPECT_LT(throttled.offered_per_s, 10.0 * cfg.arrival_hz);
}

TEST(ServiceBench, QualityReplayScoresServiceRelaxation) {
  auto factory = [](unsigned threads, std::uint64_t seed) {
    return std::make_unique<Mq>(threads, MqEngConfig{}, seed);
  };
  ServiceBenchConfig cfg = tiny_bench();
  const ServiceBenchResult result = run_open_loop_service(factory, cfg);
  EXPECT_GT(result.deletions, 0u);
  EXPECT_GE(result.median_rank_error, 0.0);
  EXPECT_GE(result.max_rank_error, 0u);
}

}  // namespace
}  // namespace cpq::service
