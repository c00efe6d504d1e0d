// Log-linear ("HDR-style") histogram for latency recording.
//
// The latency harness used to push every per-operation sample into an
// unbounded std::vector<double>: at 10^7 ops/thread that is 80 MB per thread
// per repetition, and the allocations themselves perturb the tail being
// measured. This histogram records a 64-bit value in O(1) with no
// allocation: the value range is split into octaves (powers of two) and each
// octave into 2^kSubBucketBits linear sub-buckets, bounding the relative
// quantization error by 2^-kSubBucketBits (~3% at 5 bits) while covering
// the full uint64 range in a fixed ~15 KB table.
//
// Quantiles use nearest-rank over the cumulative bucket counts, matching
// percentiles_of() in bench_framework/latency.hpp; the exact minimum and
// maximum are tracked separately so max (and the q -> 1 limit) are not
// quantized. Histograms merge bucket-wise (merge) or with a multiplicative
// rescale (add_scaled) so per-thread tick-domain recordings can be folded
// into one nanosecond-domain histogram with the TscClock's ns per tick.
//
// Single-writer: one histogram per recording thread, merged after joining.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>

namespace cpq::obs {

class LogHistogram {
 public:
  static constexpr unsigned kSubBucketBits = 5;
  static constexpr unsigned kSubBuckets = 1u << kSubBucketBits;
  // One linear block for [0, kSubBuckets) plus one block per remaining
  // octave: values up to 2^64 - 1 always map into the table.
  static constexpr unsigned kBuckets = (64 - kSubBucketBits + 1) * kSubBuckets;

  static constexpr unsigned bucket_index(std::uint64_t value) noexcept {
    if (value < kSubBuckets) return static_cast<unsigned>(value);
    const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(value));
    const unsigned shift = msb - kSubBucketBits;
    const unsigned sub =
        static_cast<unsigned>(value >> shift) - kSubBuckets;
    return (shift + 1) * kSubBuckets + sub;
  }

  // Inclusive lower bound of bucket `index`; buckets partition [0, 2^64).
  static constexpr std::uint64_t bucket_low(unsigned index) noexcept {
    if (index < kSubBuckets) return index;
    const unsigned shift = index / kSubBuckets - 1;
    const unsigned sub = index % kSubBuckets;
    return (static_cast<std::uint64_t>(kSubBuckets) + sub) << shift;
  }

  // Inclusive upper bound of bucket `index`.
  static constexpr std::uint64_t bucket_high(unsigned index) noexcept {
    if (index + 1 >= kBuckets) return ~std::uint64_t{0};
    return bucket_low(index + 1) - 1;
  }

  // Midpoint, used as the representative value for quantiles.
  static constexpr std::uint64_t representative(unsigned index) noexcept {
    const std::uint64_t low = bucket_low(index);
    return low + (bucket_high(index) - low) / 2;
  }

  void record(std::uint64_t value) noexcept { record_n(value, 1); }

  void record_n(std::uint64_t value, std::uint64_t n) noexcept {
    if (n == 0) return;
    add_to_bucket(value, n);
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t min_value() const noexcept { return count_ ? min_ : 0; }
  std::uint64_t max_value() const noexcept { return count_ ? max_ : 0; }
  double mean() const noexcept {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }

  // Nearest-rank quantile (q in [0, 1]): the representative value of the
  // bucket holding the ceil(q * count)-th smallest sample, clamped to the
  // exact observed [min, max]. q = 1 returns the exact maximum.
  std::uint64_t quantile(double q) const noexcept {
    if (count_ == 0) return 0;
    const double raw = std::ceil(q * static_cast<double>(count_));
    std::uint64_t rank = raw <= 1.0 ? 1 : static_cast<std::uint64_t>(raw);
    rank = std::min(rank, count_);
    if (rank == count_) return max_;
    std::uint64_t cumulative = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
      cumulative += buckets_[i];
      if (cumulative >= rank) {
        return std::clamp(representative(i), min_, max_);
      }
    }
    return max_;
  }

  // Bucket-wise merge (same unit domain on both sides).
  void merge(const LogHistogram& other) noexcept {
    if (other.count_ == 0) return;
    for (unsigned i = 0; i < kBuckets; ++i) {
      if (other.buckets_[i]) {
        count_ += other.buckets_[i];
        buckets_[i] += other.buckets_[i];
      }
    }
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  // Merge `other` with every value multiplied by `scale` (> 0): folds a
  // tick-domain recording into a nanosecond-domain accumulator. Bucket
  // counts move to the bucket of their scaled representative (one extra
  // quantization step); min/max are rescaled exactly.
  void add_scaled(const LogHistogram& other, double scale) noexcept {
    if (other.count_ == 0 || scale <= 0.0) return;
    for (unsigned i = 0; i < kBuckets; ++i) {
      if (other.buckets_[i]) {
        const double scaled =
            static_cast<double>(representative(i)) * scale;
        add_to_bucket(static_cast<std::uint64_t>(scaled + 0.5),
                      other.buckets_[i]);
      }
    }
    min_ = std::min(
        min_, static_cast<std::uint64_t>(
                  static_cast<double>(other.min_) * scale + 0.5));
    max_ = std::max(
        max_, static_cast<std::uint64_t>(
                  static_cast<double>(other.max_) * scale + 0.5));
  }

  void clear() noexcept { *this = LogHistogram{}; }

  // Human-readable dump: summary line plus the populated buckets.
  void print(std::FILE* out, const char* label) const {
    std::fprintf(out,
                 "%s: n=%llu mean=%.0f p50=%llu p90=%llu p99=%llu "
                 "p999=%llu max=%llu\n",
                 label, static_cast<unsigned long long>(count_), mean(),
                 static_cast<unsigned long long>(quantile(0.50)),
                 static_cast<unsigned long long>(quantile(0.90)),
                 static_cast<unsigned long long>(quantile(0.99)),
                 static_cast<unsigned long long>(quantile(0.999)),
                 static_cast<unsigned long long>(max_value()));
    if (count_ == 0) return;
    for (unsigned i = 0; i < kBuckets; ++i) {
      if (buckets_[i] == 0) continue;
      std::fprintf(out, "  [%llu, %llu]  %llu\n",
                   static_cast<unsigned long long>(bucket_low(i)),
                   static_cast<unsigned long long>(bucket_high(i)),
                   static_cast<unsigned long long>(buckets_[i]));
    }
  }

 private:
  void add_to_bucket(std::uint64_t value, std::uint64_t n) noexcept {
    buckets_[bucket_index(value)] += n;
    count_ += n;
    sum_ += static_cast<double>(value) * static_cast<double>(n);
  }

  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

// Multi-writer variant for live sampling: identical bucket geometry, but
// every bucket is a relaxed atomic so worker threads can record while the
// telemetry sampler reads concurrently — race-free under TSan by
// construction. Costs one lock-prefixed add per record (vs LogHistogram's
// plain add), so it is only fed when telemetry is actually on.
//
// No min/max/sum tracking: the sampler derives windowed quantiles purely
// from bucket deltas (window_stats below), and exact extremes would need
// CAS loops on the hot path for a value the quantized max already
// approximates to ~3%.
class AtomicLogHistogram {
 public:
  static constexpr unsigned kBuckets = LogHistogram::kBuckets;

  void record(std::uint64_t value) noexcept {
    buckets_[LogHistogram::bucket_index(value)].fetch_add(
        1, std::memory_order_relaxed);
  }

  // Copy the current bucket counts into `out[kBuckets]`.
  void load_buckets(std::uint64_t* out) const noexcept {
    for (unsigned i = 0; i < kBuckets; ++i) {
      out[i] = buckets_[i].load(std::memory_order_relaxed);
    }
  }

  std::uint64_t count() const noexcept {
    std::uint64_t n = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
      n += buckets_[i].load(std::memory_order_relaxed);
    }
    return n;
  }

  void reset() noexcept {
    for (unsigned i = 0; i < kBuckets; ++i) {
      buckets_[i].store(0, std::memory_order_relaxed);
    }
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

// Compact quantile summary of one sampling window, computed from the
// difference of two cumulative bucket snapshots (cur - prev, element-wise).
// Bucket counts are monotone per bucket (recorders only add), so the delta
// is a valid histogram of exactly the values recorded in the window. Values
// are bucket representatives: quantized to <= ~3% like LogHistogram, and
// `max` is the representative of the highest populated bucket.
struct HistogramWindow {
  std::uint64_t count = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t max = 0;

  static HistogramWindow from_delta(const std::uint64_t* cur,
                                    const std::uint64_t* prev) noexcept {
    HistogramWindow w;
    unsigned highest = 0;
    for (unsigned i = 0; i < LogHistogram::kBuckets; ++i) {
      const std::uint64_t d = cur[i] - prev[i];
      if (d != 0) {
        w.count += d;
        highest = i;
      }
    }
    if (w.count == 0) return w;
    w.max = LogHistogram::representative(highest);
    const auto rank_value = [&](double q) {
      const double raw = std::ceil(q * static_cast<double>(w.count));
      std::uint64_t rank = raw <= 1.0 ? 1 : static_cast<std::uint64_t>(raw);
      rank = std::min(rank, w.count);
      std::uint64_t cumulative = 0;
      for (unsigned i = 0; i < LogHistogram::kBuckets; ++i) {
        cumulative += cur[i] - prev[i];
        if (cumulative >= rank) return LogHistogram::representative(i);
      }
      return w.max;
    };
    w.p50 = rank_value(0.50);
    w.p99 = rank_value(0.99);
    return w;
  }
};

static_assert(LogHistogram::bucket_index(0) == 0);
static_assert(LogHistogram::bucket_index(31) == 31);
static_assert(LogHistogram::bucket_index(32) == 32);
static_assert(LogHistogram::bucket_low(LogHistogram::bucket_index(1000)) <=
              1000);
static_assert(LogHistogram::bucket_high(LogHistogram::bucket_index(1000)) >=
              1000);
static_assert(LogHistogram::bucket_index(~std::uint64_t{0}) <
              LogHistogram::kBuckets);

}  // namespace cpq::obs
