// Overload-resilience coverage: the building blocks in service/resilience.hpp
// (DeadlinePool, TierMap/tier_admitted), their integration into
// PriorityService (deadline shedding and its per-pop cap, also over a
// buffered queue, tiered admission, retry), close() idempotence under
// concurrent inserts, the shed-aware open-loop bench, and stall-dump
// filename uniqueness.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "queues/globallock.hpp"
#include "queues/multiqueue.hpp"
#include "service/priority_service.hpp"
#include "service/resilience.hpp"
#include "service/service_bench.hpp"
#include "validation/checked_queue.hpp"
#include "validation/watchdog.hpp"

namespace cpq::service {
namespace {

using K = std::uint64_t;
using V = std::uint64_t;
using Lock = GlobalLockQueue<K, V>;

std::unique_ptr<PriorityService<Lock>> make_lock_service(
    unsigned threads, const ServiceConfig& cfg) {
  return std::make_unique<PriorityService<Lock>>(
      threads, cfg, [&](unsigned) { return std::make_unique<Lock>(threads); });
}

// ---------------------------------------------------------------- pool

TEST(DeadlinePool, AcquireTakeRoundTrips) {
  DeadlinePool<V> pool(4);
  std::uint32_t slot = DeadlinePool<V>::kNilSlot;
  ASSERT_TRUE(pool.acquire(777, 123456, slot));
  ASSERT_NE(slot, DeadlinePool<V>::kNilSlot);
  const auto entry = pool.take(slot);
  EXPECT_EQ(entry.value, 777u);
  EXPECT_EQ(entry.deadline_us, 123456u);
  EXPECT_EQ(pool.exhausted(), 0u);
}

TEST(DeadlinePool, ExhaustsAtCapacityAndRecyclesFreedSlots) {
  DeadlinePool<V> pool(2);
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  ASSERT_TRUE(pool.acquire(1, 10, a));
  ASSERT_TRUE(pool.acquire(2, 20, b));
  EXPECT_FALSE(pool.acquire(3, 30, c));
  EXPECT_EQ(pool.exhausted(), 1u);
  EXPECT_EQ(pool.take(a).value, 1u);
  ASSERT_TRUE(pool.acquire(4, 40, c));
  EXPECT_EQ(pool.take(c).value, 4u);
  EXPECT_EQ(pool.take(b).value, 2u);
}

TEST(DeadlinePool, ConcurrentAcquireTakeNeverDuplicatesSlots) {
  DeadlinePool<V> pool(16);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ops{0};
  std::vector<std::thread> team;
  for (unsigned t = 0; t < 4; ++t) {
    team.emplace_back([&, t] {
      std::uint32_t slots[4];
      while (!stop.load(std::memory_order_relaxed)) {
        unsigned held = 0;
        for (unsigned i = 0; i < 4; ++i) {
          if (pool.acquire(t * 100 + i, i, slots[held])) ++held;
        }
        for (unsigned i = 0; i < held; ++i) {
          const auto entry = pool.take(slots[i]);
          // The slot content must be what *this* thread wrote: a duplicated
          // slot hand-out would tear these.
          EXPECT_EQ(entry.value / 100, t);
          EXPECT_EQ(entry.deadline_us, entry.value % 100);
        }
        ops.fetch_add(held, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (auto& t : team) t.join();
  EXPECT_GT(ops.load(), 0u);
}

// ---------------------------------------------------------------- tiers

TEST(TierMap, UniformSplitAndLookup) {
  const TierMap map = TierMap::uniform(4, 400);
  EXPECT_EQ(map.tiers(), 4u);
  EXPECT_EQ(map.tier_of(0), 0u);
  EXPECT_EQ(map.tier_of(99), 0u);
  EXPECT_EQ(map.tier_of(100), 1u);
  EXPECT_EQ(map.tier_of(250), 2u);
  EXPECT_EQ(map.tier_of(399), 3u);
  EXPECT_EQ(map.tier_of(5000), 3u);  // beyond key_space: lowest priority
}

TEST(TierMap, FewerThanTwoTiersDegeneratesToSingleTier) {
  EXPECT_EQ(TierMap::uniform(0, 100).tiers(), 1u);
  EXPECT_EQ(TierMap::uniform(1, 100).tiers(), 1u);
}

TEST(TierAdmitted, GraduatedThresholds) {
  // capacity 100, 4 tiers: allowances 100 / 75 / 50 / 25.
  EXPECT_TRUE(tier_admitted(99, 100, 0, 4));
  EXPECT_FALSE(tier_admitted(100, 100, 0, 4));
  EXPECT_TRUE(tier_admitted(74, 100, 1, 4));
  EXPECT_FALSE(tier_admitted(75, 100, 1, 4));
  EXPECT_TRUE(tier_admitted(49, 100, 2, 4));
  EXPECT_FALSE(tier_admitted(50, 100, 2, 4));
  EXPECT_TRUE(tier_admitted(24, 100, 3, 4));
  EXPECT_FALSE(tier_admitted(25, 100, 3, 4));
  // Out-of-range tier clamps to the lowest priority.
  EXPECT_FALSE(tier_admitted(25, 100, 9, 4));
  // Single tier: plain capacity check.
  EXPECT_TRUE(tier_admitted(99, 100, 0, 1));
  EXPECT_FALSE(tier_admitted(100, 100, 0, 1));
}

// ------------------------------------------------------- deadline shedding

TEST(ServiceResilience, ExpiredTasksAreShedAtPopAndCounted) {
  ServiceConfig cfg;
  cfg.ttl_us = 1;  // everything expires almost immediately
  auto service = make_lock_service(1, cfg);
  std::vector<std::pair<K, V>> shed;
  service->set_shed_sink(
      [&shed](K key, V value) { shed.emplace_back(key, value); });
  auto handle = service->get_handle(0);
  for (K key = 1; key <= 8; ++key) handle.insert(key, key + 100);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  K key;
  V value;
  EXPECT_FALSE(handle.delete_min(key, value));  // all expired
  EXPECT_EQ(shed.size(), 8u);
  for (const auto& [k, v] : shed) EXPECT_EQ(v, k + 100);
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.shed_deadline, 8u);
  EXPECT_EQ(stats.delivered, 0u);
}

TEST(ServiceResilience, UnexpiredTasksSurviveTheTtl) {
  ServiceConfig cfg;
  cfg.ttl_us = 60'000'000;  // one minute: nothing expires in-test
  auto service = make_lock_service(1, cfg);
  auto handle = service->get_handle(0);
  for (K key : {5u, 3u, 9u}) handle.insert(key, key);
  K key;
  V value;
  std::vector<K> popped;
  while (handle.delete_min(key, value)) popped.push_back(key);
  EXPECT_EQ(popped, (std::vector<K>{3, 5, 9}));
  EXPECT_EQ(service->stats().shed_deadline, 0u);
}

// One delete_min sheds at most kMaxShedRounds (64) expired tasks, then
// returns false with last_pop_shed() set so the caller can heartbeat; the
// next calls pick up where it stopped, and only a call that sheds nothing
// means empty.
TEST(ServiceResilience, ShedCapPerPopLeavesTheRestForTheNextCall) {
  ServiceConfig cfg;
  cfg.ttl_us = 1;
  auto service = make_lock_service(1, cfg);
  auto handle = service->get_handle(0);
  for (K key = 0; key < 150; ++key) handle.insert(key, key);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  K key;
  V value;
  std::vector<std::size_t> per_call;
  for (int call = 0; call < 4; ++call) {
    EXPECT_FALSE(handle.delete_min(key, value));
    per_call.push_back(handle.last_pop_shed());
  }
  EXPECT_EQ(per_call, (std::vector<std::size_t>{64, 64, 22, 0}));
  EXPECT_EQ(service->stats().shed_deadline, 150u);
  EXPECT_EQ(service->in_flight(), 0u);
}

// The deadline runs from submission, so time a task spends in a buffered
// queue's insertion buffer counts against it: tasks that sat there past
// their ttl are shed when the consumer reaches them, never delivered.
TEST(ServiceResilience, DeadlineRunsWhileTaskWaitsInAQueueBuffer) {
  using Mq = MultiQueue<K, V>;
  ServiceConfig cfg;
  cfg.ttl_us = 1'000;
  PriorityService<Mq> service(2, cfg, [](unsigned) {
    return std::make_unique<Mq>(2, MqEngConfig{}, 5);
  });
  ASSERT_GT(MqEngConfig{}.ins_buffer, 5u);
  {
    auto producer = service.get_handle(0);
    for (K key = 0; key < 5; ++key) producer.insert(key, key);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }  // teardown publishes the expired partial batch
  auto consumer = service.get_handle(1);
  K key;
  V value;
  std::size_t shed = 0;
  for (int attempt = 0; attempt < 10'000 && shed < 5; ++attempt) {
    ASSERT_FALSE(consumer.delete_min(key, value)) << "delivered key " << key;
    shed += consumer.last_pop_shed();
  }
  EXPECT_EQ(shed, 5u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed_deadline, 5u);
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_EQ(service.in_flight(), 0u);
}

TEST(ServiceResilience, PoolExhaustionFallsBackToNoDeadlineWithoutLoss) {
  ServiceConfig cfg;
  cfg.ttl_us = 1;
  cfg.deadline_slots = 2;  // tiny pool: the rest must travel untagged
  auto service = make_lock_service(1, cfg);
  auto handle = service->get_handle(0);
  for (K key = 1; key <= 6; ++key) handle.insert(key, key);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  K key;
  V value;
  std::uint64_t delivered = 0;
  while (handle.delete_min(key, value)) ++delivered;
  const ServiceStats stats = service->stats();
  EXPECT_GT(stats.pool_exhausted, 0u);
  // Tagged tasks shed, untagged tasks delivered — but nothing vanished.
  EXPECT_EQ(delivered + stats.shed_deadline, 6u);
}

// ------------------------------------------------------- tiered admission

TEST(ServiceResilience, TieredAdmissionRefusesLowPriorityFirst) {
  ServiceConfig cfg;
  cfg.max_in_flight = 8;
  cfg.policy = AdmissionPolicy::kTiered;
  cfg.tiers = 2;
  cfg.tier_key_space = 100;  // keys < 50 are tier 0, >= 50 tier 1
  auto service = make_lock_service(1, cfg);
  auto handle = service->get_handle(0);
  // Fill half the window: tier 1 (allowance 4) is now refused, tier 0 is not.
  for (K key = 0; key < 4; ++key) ASSERT_TRUE(handle.try_submit(key, key));
  EXPECT_FALSE(handle.try_submit(90, 90));
  EXPECT_TRUE(handle.try_submit(1, 1));
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.tier_rejected, 1u);
  EXPECT_EQ(stats.rejected, 1u);
}

// ----------------------------------------------------------------- retry

TEST(ServiceResilience, SubmitWithRetryBacksOffThenGivesUp) {
  ServiceConfig cfg;
  cfg.max_in_flight = 1;
  cfg.policy = AdmissionPolicy::kReject;
  cfg.retry_limit = 2;
  cfg.retry_base_us = 10;
  auto service = make_lock_service(1, cfg);
  auto handle = service->get_handle(0);
  ASSERT_TRUE(handle.submit_with_retry(1, 1));
  // Window full and nobody pops: the retries must exhaust.
  EXPECT_FALSE(handle.submit_with_retry(2, 2));
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.retry_exhausted, 1u);
}

TEST(ServiceResilience, SubmitWithRetrySucceedsWhenWindowDrains) {
  ServiceConfig cfg;
  cfg.max_in_flight = 1;
  cfg.policy = AdmissionPolicy::kReject;
  cfg.retry_limit = 64;
  cfg.retry_base_us = 100;
  auto service = make_lock_service(2, cfg);
  auto producer = service->get_handle(0);
  ASSERT_TRUE(producer.try_submit(1, 1));
  std::thread drainer([&] {
    // Pop only after the submitter has provably been rejected at least
    // once — a fixed sleep loses this race on a loaded 1-CPU box (the
    // main thread can be descheduled past it, and the first attempt then
    // succeeds with zero retries). Deadline-bounded so a wedged
    // submitter still fails the test instead of hanging it.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (service->stats().retries == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    auto consumer = service->get_handle(1);
    K key;
    V value;
    EXPECT_TRUE(consumer.delete_min(key, value));
  });
  EXPECT_TRUE(producer.submit_with_retry(2, 2));
  drainer.join();
  EXPECT_GT(service->stats().retries, 0u);
}

// ------------------------------------------------------------- close()

TEST(ServiceResilience, CloseIsIdempotent) {
  auto service = make_lock_service(1, {});
  EXPECT_FALSE(service->closed());
  EXPECT_TRUE(service->close());   // this call transitioned it
  EXPECT_TRUE(service->closed());
  EXPECT_FALSE(service->close());  // already closed
  EXPECT_TRUE(service->closed());
}

TEST(ServiceResilience, ConcurrentClosersElectExactlyOneWinner) {
  for (unsigned round = 0; round < 20; ++round) {
    auto service = make_lock_service(4, {});
    std::atomic<unsigned> winners{0};
    std::vector<std::thread> team;
    for (unsigned t = 0; t < 4; ++t) {
      team.emplace_back([&] {
        if (service->close()) winners.fetch_add(1);
      });
    }
    for (auto& t : team) t.join();
    EXPECT_EQ(winners.load(), 1u);
  }
}

TEST(ServiceResilience, CloseRacingInsertsLosesNoAcceptedTask) {
  // Submitters hammer try_submit while another thread closes the service:
  // every accepted task must come back out of delete_min + drain, and
  // post-close submissions must be refused, not dropped. (The TSan CI job
  // runs this test; the plain run still catches count mismatches.)
  constexpr unsigned kSubmitters = 3;
  ServiceConfig cfg;
  auto service = make_lock_service(kSubmitters, cfg);
  std::atomic<std::uint64_t> accepted{0};
  std::vector<std::thread> team;
  for (unsigned t = 0; t < kSubmitters; ++t) {
    team.emplace_back([&, t] {
      auto handle = service->get_handle(t);
      for (std::uint64_t i = 0; i < 20'000; ++i) {
        if (handle.try_submit(i, (std::uint64_t{t} << 32) | i)) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(service->close());
  for (auto& t : team) t.join();
  std::uint64_t recovered = 0;
  recovered += service->drain([](K, V) {});
  EXPECT_EQ(recovered, accepted.load());
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.submitted, accepted.load());
}

// ------------------------------------------------------------ bench glue

TEST(ServiceBench, SojournHistogramIsPopulated) {
  ServiceBenchConfig cfg;
  cfg.producers = 1;
  cfg.consumers = 1;
  cfg.duration_s = 0.05;
  cfg.arrival_hz = 5000.0;
  cfg.pin_threads = false;
  cfg.watchdog_s = 0.0;
  auto result = run_open_loop_service(
      [](unsigned threads, std::uint64_t) {
        return std::make_unique<Lock>(threads);
      },
      cfg);
  EXPECT_GT(result.delivered, 0u);
  EXPECT_GT(result.sojourn_ns.count(), 0u);
  EXPECT_GT(result.sojourn_ns.quantile(0.99), 0.0);
}

TEST(ServiceBench, CheckedRunWithSheddingStaysConservation) {
  ServiceBenchConfig cfg;
  cfg.producers = 1;
  cfg.consumers = 1;
  cfg.duration_s = 0.05;
  cfg.arrival_hz = 20000.0;
  cfg.pin_threads = false;
  cfg.watchdog_s = 0.0;
  cfg.checked = true;
  cfg.service.ttl_us = 200;  // aggressive shedding under the offered load
  auto result = run_open_loop_service(
      [](unsigned threads, std::uint64_t) {
        return std::make_unique<Lock>(threads);
      },
      cfg);
  EXPECT_TRUE(result.conservation_ok) << result.conservation_report;
  EXPECT_EQ(result.shed, result.stats.shed_deadline);
}

// ----------------------------------------------------------- stall dumps

TEST(StallDump, PathsAreUniqueAndCarryThePid) {
  const std::string pid = std::to_string(validation::stall_dump_pid());
  std::set<std::string> paths;
  for (unsigned i = 0; i < 100; ++i) {
    const std::string path = validation::stall_dump_path("/tmp", "bench-1");
    EXPECT_NE(path.find("/tmp/stall_bench-1_" + pid + "_"), std::string::npos)
        << path;
    paths.insert(path);
  }
  EXPECT_EQ(paths.size(), 100u);
}

TEST(StallDump, ConcurrentCallersNeverCollide) {
  std::vector<std::vector<std::string>> per_thread(4);
  std::vector<std::thread> team;
  for (unsigned t = 0; t < 4; ++t) {
    team.emplace_back([&, t] {
      for (unsigned i = 0; i < 200; ++i) {
        per_thread[t].push_back(validation::stall_dump_path("/tmp", "x"));
      }
    });
  }
  for (auto& t : team) t.join();
  std::set<std::string> all;
  for (const auto& v : per_thread) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), 800u);
}

TEST(StallDump, LabelIsSanitizedForTheFilesystem) {
  const std::string path =
      validation::stall_dump_path("/tmp", "a/b c\t*?");
  EXPECT_NE(path.find("/tmp/stall_a_b_c__"), std::string::npos) << path;
  const std::string empty = validation::stall_dump_path("/tmp", "");
  EXPECT_NE(empty.find("/tmp/stall_unnamed_"), std::string::npos) << empty;
}

}  // namespace
}  // namespace cpq::service
