// Edge cases and failure-injection style tests that do not fit the
// per-module suites: boundary parameters, extreme inputs, and output-format
// checks.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>
#include <set>

#include "bench_framework/table.hpp"
#include "mm/epoch.hpp"
#include "platform/rng.hpp"
#include "queues/cbpq.hpp"
#include "queues/klsm/klsm.hpp"
#include "queues/linden.hpp"
#include "queues/mound.hpp"
#include "queues/multiqueue.hpp"
#include "workloads/keyspace.hpp"
#include "workloads/shape.hpp"

namespace cpq {
namespace {

using K = std::uint64_t;
using V = std::uint64_t;

// ---- key generator boundaries ---------------------------------------------

TEST(EdgeKeyGen, SixtyFourBitMaskCoversFullRange) {
  workloads::KeyGenerator gen(workloads::KeyConfig::uniform(64), 1, 0);
  bool high_bit_seen = false;
  for (int i = 0; i < 1000; ++i) {
    high_bit_seen |= (gen.next() >> 63) != 0;
  }
  EXPECT_TRUE(high_bit_seen);
}

TEST(EdgeKeyGen, OneBitRange) {
  workloads::KeyGenerator gen(workloads::KeyConfig::uniform(1), 1, 0);
  for (int i = 0; i < 100; ++i) EXPECT_LE(gen.next(), 1u);
}

TEST(EdgeWorkload, SplitWithOneThreadInserts) {
  workloads::OpChooser chooser(workloads::Workload::kSplit, 0, 1, 1);
  EXPECT_TRUE(chooser.next_is_insert());
}

TEST(EdgeWorkload, ExtremeInsertFractions) {
  workloads::OpChooser all_ins(workloads::Workload::kUniform, 0, 1, 1, 1.0);
  workloads::OpChooser all_del(workloads::Workload::kUniform, 0, 1, 1, 0.0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(all_ins.next_is_insert());
    EXPECT_FALSE(all_del.next_is_insert());
  }
}

// ---- table CSV emission ----------------------------------------------------

TEST(EdgeTable, CsvEmissionWhenEnvSet) {
  setenv("CPQ_CSV", "1", 1);
  bench::Table table("csv demo", "threads", {"q1"});
  table.add_row("1", {"2.5"});
  ::testing::internal::CaptureStdout();
  table.print();
  const std::string out = ::testing::internal::GetCapturedStdout();
  unsetenv("CPQ_CSV");
  EXPECT_NE(out.find("csv,title,csv demo"), std::string::npos);
  EXPECT_NE(out.find("csv,1,2.5"), std::string::npos);
}

// ---- EBR boundaries ---------------------------------------------------------

TEST(EdgeEbr, ExactRetireIntervalBoundary) {
  mm::EbrDomain domain;
  int freed = 0;
  static int* freed_ptr;
  freed_ptr = &freed;
  auto deleter = [](void* p) {
    ++*freed_ptr;
    delete static_cast<int*>(p);
  };
  {
    mm::EbrDomain::Guard guard(domain);
    for (unsigned i = 0; i < mm::EbrDomain::kRetireInterval - 1; ++i) {
      domain.retire(new int(0), deleter);
    }
    EXPECT_EQ(freed, 0);  // below the interval: no advance attempted
  }
  domain.drain();
  EXPECT_EQ(freed, static_cast<int>(mm::EbrDomain::kRetireInterval) - 1);
}

TEST(EdgeEbr, ManySequentialDomains) {
  // Address reuse across domain lifetimes must not confuse the per-thread
  // participant cache (instance-id check).
  for (int round = 0; round < 50; ++round) {
    mm::EbrDomain domain;
    mm::EbrDomain::Guard guard(domain);
    domain.retire(new int(round), [](void* p) { delete static_cast<int*>(p); });
  }
}

// ---- queue extremes ---------------------------------------------------------

TEST(EdgeLinden, ManyItemsBuildTallTowers) {
  LindenQueue<K, V> queue(1);
  auto handle = queue.get_handle(0);
  const K n = 200000;  // tall towers likely (height ~ log2 n)
  for (K i = 0; i < n; ++i) handle.insert(i ^ 0x5555, i);
  EXPECT_EQ(queue.unsafe_size(), n);
  K k, v, prev = 0;
  for (K i = 0; i < n; ++i) {
    ASSERT_TRUE(handle.delete_min(k, v));
    ASSERT_GE(k, prev);
    prev = k;
  }
}

TEST(EdgeCbpq, ExactChunkCapacityBoundaries) {
  using Queue = ChunkBasedQueue<K, V>;
  for (const std::size_t n :
       {std::size_t{Queue::kChunkCapacity - 1},
        std::size_t{Queue::kChunkCapacity},
        std::size_t{Queue::kChunkCapacity + 1},
        std::size_t{2 * Queue::kChunkCapacity},
        std::size_t{2 * Queue::kChunkCapacity + 1}}) {
    Queue queue(1);
    auto handle = queue.get_handle(0);
    for (std::size_t i = 0; i < n; ++i) handle.insert(i, i);
    K k;
    V v;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(handle.delete_min(k, v)) << "n=" << n << " i=" << i;
      ASSERT_EQ(k, i);
    }
    ASSERT_FALSE(handle.delete_min(k, v));
  }
}

TEST(EdgeCbpq, RefillAfterFullDrainRepeatedly) {
  ChunkBasedQueue<K, V> queue(1);
  auto handle = queue.get_handle(0);
  for (int round = 0; round < 20; ++round) {
    for (K i = 0; i < 1000; ++i) handle.insert(i, i);
    K k;
    V v;
    for (K i = 0; i < 1000; ++i) {
      ASSERT_TRUE(handle.delete_min(k, v));
      ASSERT_EQ(k, i);
    }
    ASSERT_FALSE(handle.delete_min(k, v));
  }
}

TEST(EdgeMound, AllEqualKeysNeverGrowPastNeed) {
  Mound<K, V> mound(1, 1, /*initial_depth=*/2);
  auto handle = mound.get_handle(0);
  // Equal keys always satisfy val(parent) <= key, so they pile onto high
  // nodes; the tree must not grow unboundedly.
  for (int i = 0; i < 5000; ++i) handle.insert(42, i);
  EXPECT_EQ(mound.unsafe_size(), 5000u);
  K k;
  V v;
  std::set<V> values;
  while (handle.delete_min(k, v)) values.insert(v);
  EXPECT_EQ(values.size(), 5000u);
}

TEST(EdgeMultiQueue, SentinelMaxKeyRoundTrips) {
  // An item whose key equals the empty-mirror sentinel must not be lost.
  // (The MultiQueue is relaxed — two-choice sampling may legally return the
  // max-key item before a smaller one — so only exactly-once delivery is
  // asserted, not order.)
  MultiQueue<K, V> queue(2, 4);
  auto handle = queue.get_handle(0);
  handle.insert(std::numeric_limits<K>::max(), 1);
  handle.insert(0, 2);
  std::set<std::pair<K, V>> got;
  K k;
  V v;
  while (handle.delete_min(k, v)) got.insert({k, v});
  EXPECT_EQ(got.size(), 2u);
  EXPECT_TRUE(got.count({std::numeric_limits<K>::max(), 1}));
  EXPECT_TRUE(got.count({0, 2}));
}

TEST(EdgeKlsm, RelaxationZeroBehavesStrictlySingleThread) {
  KLsmQueue<K, V> queue(1, /*relaxation_k=*/0);
  auto handle = queue.get_handle(0);
  Xoroshiro128 rng(5);
  std::multiset<K> model;
  for (int op = 0; op < 4000; ++op) {
    if (model.empty() || rng.next_below(2) == 0) {
      const K key = rng.next_below(1000);
      handle.insert(key, op);
      model.insert(key);
    } else {
      K k;
      V v;
      ASSERT_TRUE(handle.delete_min(k, v));
      ASSERT_EQ(k, *model.begin());
      model.erase(model.begin());
    }
  }
}

TEST(EdgeKlsm, HugeRelaxationStaysLocal) {
  // k far above the item count: the SLSM never engages; deletes are exact
  // local minima (single thread), i.e. strict.
  KLsmQueue<K, V> queue(1, 1u << 20);
  auto handle = queue.get_handle(0);
  for (K i = 1000; i-- > 0;) handle.insert(i, i);
  K k;
  V v;
  for (K i = 0; i < 1000; ++i) {
    ASSERT_TRUE(handle.delete_min(k, v));
    ASSERT_EQ(k, i);
  }
}

}  // namespace
}  // namespace cpq
