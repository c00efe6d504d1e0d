// Tests for the online rank-error estimator (src/obs/rank_estimator.hpp):
// sketch scoring, sampling-period scaling, hard/soft bound violation
// accounting, window recycling, the metrics-trace feed, and the dump format.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/metrics.hpp"
#include "obs/rank_estimator.hpp"
#include "queues/multiqueue.hpp"

namespace cpq::obs {
namespace {

std::string dump_to_string(const RankEstimator& estimator) {
  char* buffer = nullptr;
  std::size_t size = 0;
  std::FILE* stream = open_memstream(&buffer, &size);
  EXPECT_NE(stream, nullptr);
  estimator.dump(stream);
  std::fclose(stream);
  std::string text(buffer, size);
  std::free(buffer);
  return text;
}

TEST(RankEstimatorTest, InOrderDeletionsScoreZero) {
  auto& est = RankEstimator::global();
  est.enable(/*bound=*/0.0, /*hard_bound=*/false, /*sample_period=*/1);
  for (std::uint64_t k = 1; k <= 32; ++k) est.observe_insert(k);
  for (std::uint64_t k = 1; k <= 32; ++k) est.observe_delete(k);
  const auto snap = est.snapshot();
  EXPECT_EQ(snap.samples, 32u);
  EXPECT_EQ(snap.p50, 0.0);
  EXPECT_EQ(snap.max, 0u);
  EXPECT_EQ(snap.violations, 0u);
  est.disable();
}

TEST(RankEstimatorTest, OutOfOrderDeletionScoresSmallerCount) {
  auto& est = RankEstimator::global();
  est.enable(0.0, false, 1);
  for (std::uint64_t k = 1; k <= 10; ++k) est.observe_insert(k);
  // Deleting key 7 while 1..6 are still live: rank estimate 6.
  est.observe_delete(7);
  EXPECT_EQ(est.snapshot().max, 6u);
  // The exact entry was evicted; deleting 7 again scores against {1..6,8..10}.
  est.observe_delete(7);
  EXPECT_EQ(est.snapshot().samples, 2u);
  EXPECT_EQ(est.snapshot().max, 6u);
  est.disable();
}

TEST(RankEstimatorTest, EstimatesScaleWithSamplePeriod) {
  auto& est = RankEstimator::global();
  est.enable(0.0, false, /*sample_period=*/64);
  for (std::uint64_t k = 1; k <= 5; ++k) est.observe_insert(k);
  est.observe_delete(4);  // 3 smaller sketch keys -> estimate 3 * 64
  EXPECT_EQ(est.snapshot().max, 192u);
  est.disable();
}

TEST(RankEstimatorTest, HardBoundViolationsCountedWithSlack) {
  auto& est = RankEstimator::global();
  est.enable(/*bound=*/10.0, /*hard_bound=*/true, /*sample_period=*/1);
  for (std::uint64_t k = 1; k <= 64; ++k) est.observe_insert(k);
  est.observe_delete(5);  // estimate 4: within bound
  EXPECT_EQ(est.snapshot().violations, 0u);
  est.observe_delete(12);  // estimate 10 (5 evicted): at bound, within slack
  EXPECT_EQ(est.snapshot().violations, 0u);
  est.observe_delete(64);  // estimate ~61: far past bound + 2*period
  EXPECT_EQ(est.snapshot().violations, 1u);
  est.disable();
}

TEST(RankEstimatorTest, SoftBoundNeverCountsViolations) {
  auto& est = RankEstimator::global();
  est.enable(/*bound=*/10.0, /*hard_bound=*/false, /*sample_period=*/1);
  for (std::uint64_t k = 1; k <= 64; ++k) est.observe_insert(k);
  est.observe_delete(64);  // estimate 63, way past the (soft) bound
  const auto snap = est.snapshot();
  EXPECT_EQ(snap.max, 63u);
  EXPECT_EQ(snap.violations, 0u);
  EXPECT_FALSE(snap.hard_bound);
  est.disable();
}

TEST(RankEstimatorTest, EngineeredMultiQueueBoundWidensAndArmsSoft) {
  // The engineered MultiQueue self-reports a soft bound that grows with its
  // stickiness and buffer capacities (queue_traits.hpp
  // RelaxationSelfReporting); armed the way metrics_cell_begin does, it must
  // (a) be strictly wider than the classic c*P bound, and (b) never count a
  // violation even for estimates past the widened bound — it is soft.
  constexpr unsigned kThreads = 4;
  MqEngConfig cfg;  // defaults: c=4, stickiness=8, buffers=16+16
  const MultiQueue<std::uint64_t, std::uint64_t> classic(1, cfg.c);
  const double widened =
      MultiQueue<std::uint64_t, std::uint64_t>::soft_rank_bound(cfg,
                                                                kThreads);
  EXPECT_EQ(widened, (4.0 * 8 + 16 + 16) * kThreads);
  EXPECT_GT(widened, classic.soft_rank_bound(kThreads));

  // Sample period 2 keeps every key inside the sketch window
  // (kWindowCapacity = 256 = the widened bound at these defaults) while the
  // scaled estimates still reach past the widened bound.
  auto& est = RankEstimator::global();
  est.enable(widened, /*hard_bound=*/false, /*sample_period=*/2);
  constexpr std::uint64_t kKeys = 200;
  static_assert(kKeys <= RankEstimator::kWindowCapacity);
  for (std::uint64_t k = 1; k <= kKeys; ++k) est.observe_insert(k);
  // An estimate inside the widened window (but past the classic bound)...
  est.observe_delete(64);  // estimate 63 * 2 = 126
  // ...and one far past even the widened bound + slack.
  est.observe_delete(kKeys);  // estimate (kKeys - 2) * 2 = 396
  const auto snap = est.snapshot();
  EXPECT_EQ(snap.bound, widened);
  EXPECT_FALSE(snap.hard_bound);
  EXPECT_GE(snap.max, static_cast<std::uint64_t>(widened));
  EXPECT_EQ(snap.violations, 0u) << "soft bounds must never count violations";
  est.disable();
}

TEST(RankEstimatorTest, WindowRecyclesWhenFull) {
  auto& est = RankEstimator::global();
  est.enable(0.0, false, 1);
  // Overfill the window: no crash, and scoring still works afterwards.
  for (std::uint64_t k = 0; k < 4 * RankEstimator::kWindowCapacity; ++k) {
    est.observe_insert(k);
  }
  est.observe_delete(0);  // smallest possible key: estimate must be 0
  const auto snap = est.snapshot();
  EXPECT_EQ(snap.samples, 1u);
  EXPECT_EQ(snap.p50, 0.0);
  est.disable();
}

TEST(RankEstimatorTest, EnableResetsPreviousCellState) {
  auto& est = RankEstimator::global();
  est.enable(0.0, false, 1);
  est.observe_insert(1);
  est.observe_insert(2);
  est.observe_delete(2);
  EXPECT_EQ(est.snapshot().samples, 1u);
  est.enable(5.0, true, 64);  // new cell: counts start over
  const auto snap = est.snapshot();
  EXPECT_EQ(snap.samples, 0u);
  EXPECT_EQ(snap.violations, 0u);
  EXPECT_EQ(snap.bound, 5.0);
  EXPECT_TRUE(snap.hard_bound);
  EXPECT_EQ(snap.sample_period, 64u);
  est.disable();
}

TEST(RankEstimatorTest, TraceFeedsEstimatorOnlyWhenEnabled) {
  // The metrics-trace seam (obs::trace) forwards sampled inserts and
  // delete-hits into the estimator; empty deletes and disabled periods are
  // ignored.
  auto& est = RankEstimator::global();
  MetricsRegistry::global().reset();
  est.disable();
  trace(TraceOp::kInsert, 11);
  trace(TraceOp::kDeleteHit, 11);
  est.enable(0.0, false, 64);
  EXPECT_EQ(est.snapshot().samples, 0u);  // pre-enable traffic not scored
  trace(TraceOp::kInsert, 21);
  trace(TraceOp::kInsert, 22);
  trace(TraceOp::kDeleteEmpty, 0);  // not a scored deletion
  trace(TraceOp::kDeleteHit, 22);
  const auto snap = est.snapshot();
  EXPECT_EQ(snap.samples, 1u);
  EXPECT_EQ(snap.max, 64u);  // one smaller sketch key x period 64
  est.disable();
  MetricsRegistry::global().reset();
}

TEST(RankEstimatorTest, DumpFormatAndSilence) {
  auto& est = RankEstimator::global();
  est.disable();
  EXPECT_EQ(dump_to_string(est), "");  // silent when disabled
  est.enable(100.0, true, 64);
  EXPECT_EQ(dump_to_string(est), "");  // silent with zero samples
  for (std::uint64_t k = 1; k <= 8; ++k) est.observe_insert(k);
  est.observe_delete(3);
  const std::string text = dump_to_string(est);
  EXPECT_NE(text.find("[cpq-rank-est]"), std::string::npos) << text;
  EXPECT_NE(text.find("sampled deletions=1"), std::string::npos) << text;
  EXPECT_NE(text.find("bound=100 (hard)"), std::string::npos) << text;
  EXPECT_NE(text.find("violations="), std::string::npos) << text;
  EXPECT_NE(text.find("(x64 sampling)"), std::string::npos) << text;
  est.disable();
}

}  // namespace
}  // namespace cpq::obs
