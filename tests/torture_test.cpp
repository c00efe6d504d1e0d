// Torture tests: every roster queue under fault injection, audited by the
// CheckedQueue conservation adaptor, plus self-tests proving the validation
// layer itself detects what it claims to detect.
//
// This binary is the only target compiled with CPQ_FAULT_INJECTION=1 (see
// tests/CMakeLists.txt). It deliberately links cpq_queues + gtest only — not
// cpq_bench_framework, whose registry.cpp instantiates the same queue
// templates without injection, which would be an ODR violation. The harness
// templates it needs (throughput_rep for the watchdog death test) are
// header-only.
//
// Injection rate: CPQ_INJECT_PPM if set, else 1000 firings per million hook
// crossings — high enough that a 24k-operation run injects hundreds of
// delays into claim/publish/epoch windows, low enough to finish in seconds.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "bench_framework/harness.hpp"
#include "platform/rng.hpp"
#include "platform/thread_util.hpp"
#include "queues/cbpq.hpp"
#include "queues/flat_combining.hpp"
#include "queues/globallock.hpp"
#include "queues/hunt_heap.hpp"
#include "queues/klsm/klsm.hpp"
#include "queues/klsm/standalone.hpp"
#include "queues/linden.hpp"
#include "queues/mound.hpp"
#include "queues/multiqueue.hpp"
#include "queues/shavit_lotan.hpp"
#include "queues/spraylist.hpp"
#include "queues/sundell_tsigas.hpp"
#include "seq/dary_heap.hpp"
#include "seq/pairing_heap.hpp"
#include "service/priority_service.hpp"
#include "validation/checked_queue.hpp"
#include "validation/fault_injection.hpp"
#include "validation/watchdog.hpp"

namespace cpq {
namespace {

using K = std::uint64_t;
using V = std::uint64_t;
using MqPairing = MultiQueue<K, V, seq::PairingHeap<K, V>>;
using MqDary = MultiQueue<K, V, seq::DaryHeap<K, V, 4>>;

// Engineered-variant configs mirroring the registry's mq-buf / mq-sticky /
// mq-eng entries (registry.cpp can't be linked here — ODR, see header).
MqEngConfig eng_config(unsigned stickiness, unsigned buffer) {
  MqEngConfig cfg;
  cfg.stickiness = stickiness;
  cfg.ins_buffer = buffer;
  cfg.del_buffer = buffer;
  return cfg;
}

// The combined mq-eng configuration: buffers and sticky rounds together
// cross every buffer seam (flush, refill, spill) in one typed run. A type
// of its own, so the typed roster can carry it beside MultiQueue<K, V>,
// the paper's configuration of the same class.
struct MqEng : MultiQueue<K, V> {
  explicit MqEng(unsigned threads) : MultiQueue(threads, eng_config(8, 16)) {}
};

std::uint32_t torture_ppm() {
  if (const char* env = std::getenv("CPQ_INJECT_PPM")) {
    return static_cast<std::uint32_t>(std::strtoul(env, nullptr, 10));
  }
  return 1000;
}

template <typename Q>
std::unique_ptr<Q> make_queue(unsigned threads);

template <>
std::unique_ptr<GlobalLockQueue<K, V>> make_queue(unsigned threads) {
  return std::make_unique<GlobalLockQueue<K, V>>(threads);
}
template <>
std::unique_ptr<LindenQueue<K, V>> make_queue(unsigned threads) {
  return std::make_unique<LindenQueue<K, V>>(threads);
}
template <>
std::unique_ptr<HuntHeap<K, V>> make_queue(unsigned threads) {
  return std::make_unique<HuntHeap<K, V>>(threads, 1u << 18);
}
template <>
std::unique_ptr<SprayList<K, V>> make_queue(unsigned threads) {
  return std::make_unique<SprayList<K, V>>(threads);
}
template <>
std::unique_ptr<MultiQueue<K, V>> make_queue(unsigned threads) {
  return std::make_unique<MultiQueue<K, V>>(threads, 4);
}
template <>
std::unique_ptr<MqPairing> make_queue(unsigned threads) {
  return std::make_unique<MqPairing>(threads, 4);
}
template <>
std::unique_ptr<MqDary> make_queue(unsigned threads) {
  return std::make_unique<MqDary>(threads, 4);
}
template <>
std::unique_ptr<MqEng> make_queue(unsigned threads) {
  return std::make_unique<MqEng>(threads);
}
template <>
std::unique_ptr<KLsmQueue<K, V>> make_queue(unsigned threads) {
  return std::make_unique<KLsmQueue<K, V>>(threads, 128);
}
template <>
std::unique_ptr<DlsmQueue<K, V>> make_queue(unsigned threads) {
  return std::make_unique<DlsmQueue<K, V>>(threads);
}
template <>
std::unique_ptr<SlsmQueue<K, V>> make_queue(unsigned threads) {
  return std::make_unique<SlsmQueue<K, V>>(threads, 128);
}
template <>
std::unique_ptr<ShavitLotanQueue<K, V>> make_queue(unsigned threads) {
  return std::make_unique<ShavitLotanQueue<K, V>>(threads);
}
template <>
std::unique_ptr<SundellTsigasQueue<K, V>> make_queue(unsigned threads) {
  return std::make_unique<SundellTsigasQueue<K, V>>(threads);
}
template <>
std::unique_ptr<Mound<K, V>> make_queue(unsigned threads) {
  return std::make_unique<Mound<K, V>>(threads);
}
template <>
std::unique_ptr<ChunkBasedQueue<K, V>> make_queue(unsigned threads) {
  return std::make_unique<ChunkBasedQueue<K, V>>(threads);
}
template <>
std::unique_ptr<FcPriorityQueue<K, V>> make_queue(unsigned threads) {
  return std::make_unique<FcPriorityQueue<K, V>>(threads);
}

using QueueTypes =
    ::testing::Types<GlobalLockQueue<K, V>, LindenQueue<K, V>, HuntHeap<K, V>,
                     SprayList<K, V>, MultiQueue<K, V>, MqPairing, MqDary,
                     MqEng, KLsmQueue<K, V>, DlsmQueue<K, V>, SlsmQueue<K, V>,
                     ShavitLotanQueue<K, V>, SundellTsigasQueue<K, V>,
                     Mound<K, V>, ChunkBasedQueue<K, V>,
                     FcPriorityQueue<K, V>>;

constexpr V value_of(unsigned tid, std::uint64_t i) {
  return (static_cast<V>(tid + 1) << 32) | i;
}

template <typename Q>
class TortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    validation::fault_injection_configure(torture_ppm(), 0x7041);
  }
  void TearDown() override { validation::fault_injection_configure(0, 42); }
};

TYPED_TEST_SUITE(TortureTest, QueueTypes);

// Contended 60/40 mix over a narrow key range, with every claim/publish/epoch
// seam stretched by injection. The checked adaptor audits exactly-once
// delivery; any lost, duplicated, or fabricated item fails the test with the
// full reconciliation report.
TYPED_TEST(TortureTest, ContendedMixedWorkloadConservesItems) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kOpsPerThread = 6000;
  validation::CheckedQueue<TypeParam> queue(kThreads,
                                            make_queue<TypeParam>(kThreads));

  run_team(kThreads, [&](unsigned tid) {
    auto handle = queue.get_handle(tid);
    Xoroshiro128 rng(thread_seed(0x7041, tid));
    std::uint64_t inserted = 0;
    for (std::uint64_t op = 0; op < kOpsPerThread; ++op) {
      if (rng.next_below(100) < 60) {
        handle.insert(rng.next_below(1u << 10), value_of(tid, inserted++));
      } else {
        K k;
        V v;
        handle.delete_min(k, v);
      }
    }
  });

  const validation::ReconcileReport report = queue.reconcile();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.inserted, 0u);
}

// Split roles maximize the insert-vs-delete races (publication vs claim):
// two producers flood, two consumers drain concurrently.
TYPED_TEST(TortureTest, SplitProducersConsumersConserveItems) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerProducer = 8000;
  validation::CheckedQueue<TypeParam> queue(kThreads,
                                            make_queue<TypeParam>(kThreads));

  std::atomic<std::uint64_t> consumed{0};
  run_team(kThreads, [&](unsigned tid) {
    auto handle = queue.get_handle(tid);
    if (tid < 2) {
      Xoroshiro128 rng(thread_seed(0x7042, tid));
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        handle.insert(rng.next_below(1u << 12), value_of(tid, i));
      }
    } else {
      unsigned misses = 0;
      while (consumed.load(std::memory_order_relaxed) < 2 * kPerProducer &&
             misses < 5000) {
        K k;
        V v;
        if (handle.delete_min(k, v)) {
          consumed.fetch_add(1, std::memory_order_relaxed);
          misses = 0;
        } else {
          ++misses;
        }
      }
    }
  });

  const validation::ReconcileReport report = queue.reconcile();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.inserted, 2 * kPerProducer);
}

// ---- engineered MultiQueue: every variant and buffer seam ----------------

// The typed suite above covers the combined mq-eng configuration; these
// cover the single-refinement variants (registry's mq-buf and mq-sticky)
// plus the conservation edges specific to thread-local buffering: items
// parked in an unflushed insertion buffer, a partially-served deletion
// batch at handle teardown, and the new flush/refill/spill seams stretched
// by injection.
class EngMqTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    validation::fault_injection_configure(torture_ppm(), 0x7045);
  }
  void TearDown() override { validation::fault_injection_configure(0, 42); }

  void contended_mix(const MqEngConfig& cfg, std::uint64_t seed) {
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kOpsPerThread = 6000;
    validation::CheckedQueue<MultiQueue<K, V>> queue(
        kThreads, std::make_unique<MultiQueue<K, V>>(kThreads, cfg));
    run_team(kThreads, [&](unsigned tid) {
      auto handle = queue.get_handle(tid);
      Xoroshiro128 rng(thread_seed(seed, tid));
      std::uint64_t inserted = 0;
      for (std::uint64_t op = 0; op < kOpsPerThread; ++op) {
        if (rng.next_below(100) < 60) {
          handle.insert(rng.next_below(1u << 10), value_of(tid, inserted++));
        } else {
          K k;
          V v;
          handle.delete_min(k, v);
        }
      }
    });
    const validation::ReconcileReport report = queue.reconcile();
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_GT(report.inserted, 0u);
  }
};

TEST_F(EngMqTortureTest, BufferedOnlyConservesItems) {
  contended_mix(eng_config(/*stickiness=*/1, /*buffer=*/16), 0x7046);
}

TEST_F(EngMqTortureTest, StickyOnlyConservesItems) {
  contended_mix(eng_config(/*stickiness=*/8, /*buffer=*/0), 0x7047);
}

TEST_F(EngMqTortureTest, TinyBuffersMaximizeFlushSeamCrossings) {
  // Buffer capacity 1 flushes/refills on every op — the worst case for the
  // new lock seams — with a single local queue per thread for contention.
  MqEngConfig cfg = eng_config(/*stickiness=*/2, /*buffer=*/1);
  cfg.c = 1;
  contended_mix(cfg, 0x7048);
}

// Close/drain with NON-EMPTY thread buffers: fewer insertions than the
// buffer capacity means nothing was ever flushed to the shared queues —
// every item must reach reconcile()'s drain via the handle-teardown spill.
TEST_F(EngMqTortureTest, UnflushedInsertionBuffersSpillAtTeardown) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 7;  // < ins_buffer = 16
  validation::CheckedQueue<MqEng> queue(kThreads,
                                        std::make_unique<MqEng>(kThreads));
  run_team(kThreads, [&](unsigned tid) {
    auto handle = queue.get_handle(tid);
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      handle.insert(1000 * tid + i, value_of(tid, i));
    }
  });
  // Handles are gone: every never-flushed item must now sit in the shared
  // queues, placed there by the teardown spill.
  EXPECT_EQ(queue.inner().unsafe_size(), kThreads * kPerThread);
  const validation::ReconcileReport report = queue.reconcile();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.inserted, kThreads * kPerThread);
  EXPECT_EQ(report.drained, kThreads * kPerThread);
}

// A deletion batch abandoned half-served: the handle pops one item of a
// 16-item refill and is destroyed; the other 15 must be spilled back, not
// lost with the handle.
TEST_F(EngMqTortureTest, PartialDeletionBatchSpillsAtTeardown) {
  constexpr std::uint64_t kItems = 64;
  validation::CheckedQueue<MqEng> queue(1, std::make_unique<MqEng>(1));
  {
    auto handle = queue.get_handle(0);
    for (std::uint64_t i = 0; i < kItems; ++i) {
      handle.insert(i, value_of(0, i));
    }
    K k;
    V v;
    ASSERT_TRUE(handle.delete_min(k, v));  // refills a batch, serves one
  }
  const validation::ReconcileReport report = queue.reconcile();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.inserted, kItems);
  EXPECT_EQ(report.deleted, 1u);
  EXPECT_EQ(report.drained, kItems - 1);
}

// The engineered seams themselves (buffer flush, batch refill, teardown
// spill) under targeted high-rate delay injection — the site filter focuses
// every firing on the mq_eng.* hooks; the unfiltered spinlock delays are
// already covered by the typed TortureTest runs above.
TEST_F(EngMqTortureTest, InjectedLockAndBufferSeamsStayConservative) {
  validation::fault_injection_configure(/*ppm=*/50'000, /*seed=*/0x7049,
                                        validation::FaultAction::kDelay,
                                        "mq_eng");
  const std::uint64_t before = validation::fault_injections_fired();
  contended_mix(eng_config(/*stickiness=*/4, /*buffer=*/4), 0x704A);
  EXPECT_GT(validation::fault_injections_fired(), before)
      << "mq_eng.* injection seams compiled in but never crossed";
}

// ---- skiplist search: the level-0 snip window ----------------------------

// search() snips a marked node out of a level by CASing its predecessor to
// the successor it loaded. At level 0 that successor is only final once
// the node is marked: an insert may link a node behind it between the
// load and the mark, and a snip that takes its successor from an earlier,
// unmarked load cuts the new node out with it. The skiplist.snip seam
// stretches the window between loading the successor and deciding to
// snip, so this interleaving happens on any core count. A narrow key
// range keeps inserts landing next to the nodes being claimed.
template <typename Q>
class SkiplistSnipTortureTest : public ::testing::Test {
 protected:
  void TearDown() override { validation::fault_injection_configure(0, 42); }
};

using SkiplistTypes =
    ::testing::Types<LindenQueue<K, V>, SprayList<K, V>,
                     ShavitLotanQueue<K, V>, SundellTsigasQueue<K, V>>;
TYPED_TEST_SUITE(SkiplistSnipTortureTest, SkiplistTypes);

TYPED_TEST(SkiplistSnipTortureTest, InjectedSnipWindowLosesNoItems) {
  validation::fault_injection_configure(/*ppm=*/50'000, /*seed=*/0x705A,
                                        validation::FaultAction::kDelay,
                                        "skiplist.snip");
  const std::uint64_t before = validation::fault_injections_fired();
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kOpsPerThread = 6000;
  validation::CheckedQueue<TypeParam> queue(kThreads,
                                            make_queue<TypeParam>(kThreads));
  run_team(kThreads, [&](unsigned tid) {
    auto handle = queue.get_handle(tid);
    Xoroshiro128 rng(thread_seed(0x705B, tid));
    std::uint64_t inserted = 0;
    for (std::uint64_t op = 0; op < kOpsPerThread; ++op) {
      if (rng.next_below(100) < 50) {
        handle.insert(rng.next_below(64), value_of(tid, inserted++));
      } else {
        K k;
        V v;
        handle.delete_min(k, v);
      }
    }
  });
  const validation::ReconcileReport report = queue.reconcile();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(validation::fault_injections_fired(), before)
      << "skiplist.snip seam compiled in but never crossed";
}

// ---- k-LSM merge path: drain-then-merge kernel and pooled blocks ---------

// The typed suite covers the k-LSM under uniform injection; this fixture
// focuses every firing on the merge path's own seams — block.claim /
// block.drain (the claim-move transfer the new kernel path drives),
// slsm.publish / dlsm.publish (array replacement while merges run), and
// arena.alloc (the pooled block storage) — at a 5% rate, the same targeted
// pattern EngMqTortureTest uses for the buffer seams.
class KLsmTortureTest : public ::testing::Test {
 protected:
  void TearDown() override { validation::fault_injection_configure(0, 42); }

  template <typename Q>
  void contended_mix(std::uint64_t seed, std::uint64_t relaxation) {
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kOpsPerThread = 6000;
    validation::CheckedQueue<Q> queue(
        kThreads, std::make_unique<Q>(kThreads, relaxation));
    run_team(kThreads, [&](unsigned tid) {
      auto handle = queue.get_handle(tid);
      Xoroshiro128 rng(thread_seed(seed, tid));
      std::uint64_t inserted = 0;
      for (std::uint64_t op = 0; op < kOpsPerThread; ++op) {
        if (rng.next_below(100) < 60) {
          handle.insert(rng.next_below(1u << 10), value_of(tid, inserted++));
        } else {
          K k;
          V v;
          handle.delete_min(k, v);
        }
      }
    });
    const validation::ReconcileReport report = queue.reconcile();
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_GT(report.inserted, 0u);
  }
};

TEST_F(KLsmTortureTest, InjectedClaimAndDrainSeamsStayConservative) {
  validation::fault_injection_configure(/*ppm=*/50'000, /*seed=*/0x7050,
                                        validation::FaultAction::kDelay,
                                        "block.");
  const std::uint64_t before = validation::fault_injections_fired();
  // Small k maximizes merge-cascade crossings per op.
  contended_mix<KLsmQueue<K, V>>(0x7051, /*relaxation=*/16);
  EXPECT_GT(validation::fault_injections_fired(), before)
      << "block.claim/block.drain seams compiled in but never crossed";
}

TEST_F(KLsmTortureTest, InjectedPublishSeamsStayConservative) {
  validation::fault_injection_configure(/*ppm=*/50'000, /*seed=*/0x7052,
                                        validation::FaultAction::kDelay,
                                        "lsm.publish");  // slsm + dlsm
  const std::uint64_t before = validation::fault_injections_fired();
  contended_mix<KLsmQueue<K, V>>(0x7053, /*relaxation=*/64);
  EXPECT_GT(validation::fault_injections_fired(), before)
      << "slsm.publish/dlsm.publish seams compiled in but never crossed";
}

TEST_F(KLsmTortureTest, InjectedArenaSeamStaysConservative) {
  validation::fault_injection_configure(/*ppm=*/50'000, /*seed=*/0x7054,
                                        validation::FaultAction::kDelay,
                                        "arena.");
  const std::uint64_t before = validation::fault_injections_fired();
  contended_mix<KLsmQueue<K, V>>(0x7055, /*relaxation=*/128);
  EXPECT_GT(validation::fault_injections_fired(), before)
      << "arena.alloc seam compiled in but never crossed";
}

TEST_F(KLsmTortureTest, StandaloneComponentsUnderMergeSeamInjection) {
  validation::fault_injection_configure(/*ppm=*/50'000, /*seed=*/0x7056,
                                        validation::FaultAction::kDelay,
                                        "block.");
  contended_mix<SlsmQueue<K, V>>(0x7057, /*relaxation=*/16);
}

// ---- flat-combining queue: combiner handoff seams ------------------------

// The typed suite runs the fc queue under uniform injection; this focuses
// on the publication-record handshake (fc.publish between payload write and
// the pending store, fc.combine stretching the combining session).
class FcTortureTest : public ::testing::Test {
 protected:
  void TearDown() override { validation::fault_injection_configure(0, 42); }
};

TEST_F(FcTortureTest, CombinerHandoffSeamsStayConservative) {
  validation::fault_injection_configure(/*ppm=*/50'000, /*seed=*/0x7058,
                                        validation::FaultAction::kDelay,
                                        "fc.");
  const std::uint64_t before = validation::fault_injections_fired();
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kOpsPerThread = 6000;
  validation::CheckedQueue<FcPriorityQueue<K, V>> queue(
      kThreads, std::make_unique<FcPriorityQueue<K, V>>(kThreads));
  run_team(kThreads, [&](unsigned tid) {
    auto handle = queue.get_handle(tid);
    Xoroshiro128 rng(thread_seed(0x7059, tid));
    std::uint64_t inserted = 0;
    for (std::uint64_t op = 0; op < kOpsPerThread; ++op) {
      if (rng.next_below(100) < 60) {
        handle.insert(rng.next_below(1u << 10), value_of(tid, inserted++));
      } else {
        K k;
        V v;
        handle.delete_min(k, v);
      }
    }
  });
  const validation::ReconcileReport report = queue.reconcile();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(validation::fault_injections_fired(), before)
      << "fc.publish/fc.combine seams compiled in but never crossed";
}

// ---- the PriorityService layer over every roster queue -------------------

// The dispatch layer (admission control, deadline envelopes) must preserve
// exactly-once delivery on top of *any* roster queue, with every
// queue-internal seam stretched by injection. The CheckedQueue audit wraps
// the whole service, so a task lost or double-delivered anywhere between
// submit and pop fails with the full report.
template <typename Q>
std::unique_ptr<service::PriorityService<Q>> make_service(
    unsigned threads, const service::ServiceConfig& cfg) {
  return std::make_unique<service::PriorityService<Q>>(
      threads, cfg, [&](unsigned) { return make_queue<Q>(threads); });
}

template <typename Q>
class ServiceTortureTest : public TortureTest<Q> {};

TYPED_TEST_SUITE(ServiceTortureTest, QueueTypes);

TYPED_TEST(ServiceTortureTest, DispatchConservesTasksUnderInjection) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kOpsPerThread = 4000;
  service::ServiceConfig scfg;
  using Service = service::PriorityService<TypeParam>;
  validation::CheckedQueue<Service> queue(
      kThreads, make_service<TypeParam>(kThreads, scfg));

  run_team(kThreads, [&](unsigned tid) {
    auto handle = queue.get_handle(tid);
    Xoroshiro128 rng(thread_seed(0x7043, tid));
    std::uint64_t inserted = 0;
    for (std::uint64_t op = 0; op < kOpsPerThread; ++op) {
      if (rng.next_below(100) < 60) {
        handle.insert(rng.next_below(1u << 10), value_of(tid, inserted++));
      } else {
        K k;
        V v;
        handle.delete_min(k, v);
      }
    }
  });

  const validation::ReconcileReport report = queue.reconcile();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.inserted, 0u);
}

// Shutdown under backpressure: a small in-flight bound keeps producers
// blocked (the kBlock policy), consumers stop while work is still queued,
// and the reconcile drain must still account for every accepted task.
TYPED_TEST(ServiceTortureTest, BackpressureShutdownConservesTasks) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerProducer = 4000;
  service::ServiceConfig scfg;
  scfg.max_in_flight = 64;
  scfg.policy = service::AdmissionPolicy::kBlock;
  using Service = service::PriorityService<TypeParam>;
  validation::CheckedQueue<Service> queue(
      kThreads, make_service<TypeParam>(kThreads, scfg));

  std::atomic<unsigned> producers_done{0};
  run_team(kThreads, [&](unsigned tid) {
    auto handle = queue.get_handle(tid);
    if (tid < 2) {
      Xoroshiro128 rng(thread_seed(0x7044, tid));
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        handle.insert(rng.next_below(1u << 12), value_of(tid, i));
      }
      producers_done.fetch_add(1, std::memory_order_release);
    } else {
      K k;
      V v;
      unsigned misses = 0;
      while (misses < 64) {
        if (handle.delete_min(k, v)) {
          misses = 0;
        } else if (producers_done.load(std::memory_order_acquire) == 2) {
          ++misses;
        }
      }
    }
  });

  const validation::ReconcileReport report = queue.reconcile();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.inserted, 2 * kPerProducer);
}

// ---- the validation layer must catch a queue that is actually broken -----

// Wraps GlobalLockQueue and silently swallows the Nth insert: the classic
// "lost item" bug (e.g. a publish race dropping a block).
class DroppingQueue {
 public:
  using key_type = K;
  using value_type = V;
  using Inner = GlobalLockQueue<K, V>;

  DroppingQueue(unsigned threads, std::uint64_t drop_index)
      : inner_(threads), drop_index_(drop_index) {}

  class Handle {
   public:
    void insert(K key, V value) {
      if (owner_->next_insert_.fetch_add(1, std::memory_order_relaxed) ==
          owner_->drop_index_) {
        return;  // the bug: item vanishes without a trace
      }
      inner_.insert(key, value);
    }
    bool delete_min(K& key_out, V& value_out) {
      return inner_.delete_min(key_out, value_out);
    }

   private:
    friend class DroppingQueue;
    Handle(Inner::Handle inner, DroppingQueue* owner)
        : inner_(std::move(inner)), owner_(owner) {}
    Inner::Handle inner_;
    DroppingQueue* owner_;
  };

  Handle get_handle(unsigned tid) {
    return Handle(inner_.get_handle(tid), this);
  }

 private:
  Inner inner_;
  const std::uint64_t drop_index_;
  std::atomic<std::uint64_t> next_insert_{0};
};

TEST(CheckedQueueDetectsBugs, LostInsertIsReported) {
  constexpr unsigned kThreads = 2;
  validation::CheckedQueue<DroppingQueue> queue(
      kThreads, std::make_unique<DroppingQueue>(kThreads, /*drop_index=*/137));

  run_team(kThreads, [&](unsigned tid) {
    auto handle = queue.get_handle(tid);
    Xoroshiro128 rng(tid + 11);
    for (std::uint64_t i = 0; i < 400; ++i) {
      handle.insert(rng.next_below(1u << 10), value_of(tid, i));
      if (i % 3 == 0) {
        K k;
        V v;
        handle.delete_min(k, v);
      }
    }
  });

  const validation::ReconcileReport report = queue.reconcile();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.lost, 1u) << report.to_string();
  EXPECT_EQ(report.duplicated, 0u) << report.to_string();
  EXPECT_EQ(report.fabricated, 0u) << report.to_string();
}

// Replays the first delivered item once more after the queue runs empty: a
// double-delivery bug (e.g. a claim flag lost on a merge path).
class DuplicatingQueue {
 public:
  using key_type = K;
  using value_type = V;
  using Inner = GlobalLockQueue<K, V>;

  explicit DuplicatingQueue(unsigned threads) : inner_(threads) {}

  class Handle {
   public:
    void insert(K key, V value) { inner_.insert(key, value); }
    bool delete_min(K& key_out, V& value_out) {
      if (inner_.delete_min(key_out, value_out)) {
        if (!owner_->stash_) owner_->stash_ = {key_out, value_out};
        return true;
      }
      if (owner_->stash_ && !owner_->replayed_) {
        owner_->replayed_ = true;  // the bug: one item delivered twice
        key_out = owner_->stash_->first;
        value_out = owner_->stash_->second;
        return true;
      }
      return false;
    }

   private:
    friend class DuplicatingQueue;
    Handle(Inner::Handle inner, DuplicatingQueue* owner)
        : inner_(std::move(inner)), owner_(owner) {}
    Inner::Handle inner_;
    DuplicatingQueue* owner_;
  };

  Handle get_handle(unsigned tid) {
    return Handle(inner_.get_handle(tid), this);
  }

 private:
  Inner inner_;
  std::optional<std::pair<K, V>> stash_;  // single-threaded test only
  bool replayed_ = false;
};

TEST(CheckedQueueDetectsBugs, DuplicateDeliveryIsReported) {
  validation::CheckedQueue<DuplicatingQueue> queue(
      1, std::make_unique<DuplicatingQueue>(1));
  {
    auto handle = queue.get_handle(0);
    for (std::uint64_t i = 0; i < 100; ++i) {
      handle.insert(i, value_of(0, i));
    }
  }
  const validation::ReconcileReport report = queue.reconcile();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.duplicated, 1u) << report.to_string();
  EXPECT_EQ(report.lost, 0u) << report.to_string();
}

// Invents an item that was never inserted (e.g. reading a reclaimed node).
class FabricatingQueue {
 public:
  using key_type = K;
  using value_type = V;
  using Inner = GlobalLockQueue<K, V>;

  explicit FabricatingQueue(unsigned threads) : inner_(threads) {}

  class Handle {
   public:
    void insert(K key, V value) { inner_.insert(key, value); }
    bool delete_min(K& key_out, V& value_out) {
      if (inner_.delete_min(key_out, value_out)) return true;
      if (!owner_->fabricated_) {
        owner_->fabricated_ = true;  // the bug: item from nowhere
        key_out = 42;
        value_out = 0xF00DF00DULL;
        return true;
      }
      return false;
    }

   private:
    friend class FabricatingQueue;
    Handle(Inner::Handle inner, FabricatingQueue* owner)
        : inner_(std::move(inner)), owner_(owner) {}
    Inner::Handle inner_;
    FabricatingQueue* owner_;
  };

  Handle get_handle(unsigned tid) {
    return Handle(inner_.get_handle(tid), this);
  }

 private:
  Inner inner_;
  bool fabricated_ = false;  // single-threaded test only
};

TEST(CheckedQueueDetectsBugs, FabricatedItemIsReported) {
  validation::CheckedQueue<FabricatingQueue> queue(
      1, std::make_unique<FabricatingQueue>(1));
  {
    auto handle = queue.get_handle(0);
    for (std::uint64_t i = 0; i < 50; ++i) {
      handle.insert(i, value_of(0, i));
    }
  }
  const validation::ReconcileReport report = queue.reconcile();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.fabricated, 1u) << report.to_string();
  EXPECT_EQ(report.lost, 0u) << report.to_string();
  EXPECT_EQ(report.duplicated, 0u) << report.to_string();
}

// ---- the injection hooks must actually fire ------------------------------

TEST(FaultInjectionTest, HooksFireUnderLoad) {
  validation::fault_injection_configure(/*ppm=*/200'000, /*seed=*/99);
  const std::uint64_t before = validation::fault_injections_fired();
  {
    auto queue = make_queue<KLsmQueue<K, V>>(2);
    run_team(2, [&](unsigned tid) {
      auto handle = queue->get_handle(tid);
      Xoroshiro128 rng(tid + 1);
      for (std::uint64_t i = 0; i < 500; ++i) {
        handle.insert(rng.next_below(1u << 8), value_of(tid, i));
        K k;
        V v;
        handle.delete_min(k, v);
      }
    });
  }
  validation::fault_injection_configure(0, 42);
  EXPECT_GT(validation::fault_injections_fired(), before)
      << "CPQ_INJECT hooks compiled in but never fired";
}

// ---- watchdog behaviour ---------------------------------------------------

TEST(WatchdogTest, NoAbortWhileProgressing) {
  std::vector<validation::WorkerProgress> progress(1);
  validation::Watchdog watchdog("progressing", progress.data(), 1,
                                /*deadline_s=*/0.2);
  // Tick well inside the deadline for a few deadline-lengths; if the
  // watchdog misfires it kills the whole test binary, which is the failure.
  for (int i = 1; i <= 10; ++i) {
    progress[0].tick(static_cast<std::uint64_t>(i),
                     validation::LastOp::kInsert);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  watchdog.stop();
  SUCCEED();
}

// A queue whose delete_min eventually spins forever: the livelock the
// watchdog exists for. Workers stop ticking, the heartbeat sum freezes, and
// throughput_rep's supervisor must dump diagnostics and _Exit(86).
class StallingQueue {
 public:
  using key_type = K;
  using value_type = V;

  explicit StallingQueue(unsigned) {}

  class Handle {
   public:
    void insert(K, V) {}
    bool delete_min(K&, V&) {
      if (++calls_ > 100) {
        for (;;) std::this_thread::yield();  // livelock
      }
      return false;
    }

   private:
    std::uint64_t calls_ = 0;
  };

  Handle get_handle(unsigned) { return Handle(); }
};

TEST(WatchdogDeathTest, StallingQueueTriggersAbortWithDiagnostics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  bench::BenchConfig cfg;
  cfg.threads = 2;
  cfg.duration_s = 30.0;  // far beyond the watchdog deadline
  cfg.watchdog_s = 0.25;
  cfg.prefill = 0;
  cfg.label = "stalling-queue";
  EXPECT_EXIT(
      {
        StallingQueue queue(cfg.threads);
        bench::throughput_rep(queue, cfg, /*seed=*/7);
      },
      ::testing::ExitedWithCode(validation::kWatchdogExitCode),
      "cpq-watchdog.*stalling-queue");
}

}  // namespace
}  // namespace cpq
