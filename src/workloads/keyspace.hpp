// Key generators for the configurable benchmark (paper §2/§F plus the
// adversarial extensions of arXiv:2305.10872).
//
// Key distributions:
//   * uniform  — keys uniformly at random from a 32-, 16-, or 8-bit range;
//   * ascending / descending — a uniformly chosen base key from a small
//     range, shifted up (down) by the thread's operation number, modelling
//     monotone workloads such as event times in a simulation;
//   * hold — the next key is the last *deleted* key plus a random increment
//     (the classic hold model of Jones 1986, the paper's §F "key dependency
//     switch"); used by the DES example and the extended benchmark.
//   * zipf — key popularity follows rank^-theta over the keyspace, sampled
//     by rejection inversion; rank 1 maps to key 0 so the popular mass
//     contends at the delete_min end.
//   * hotspot — hot_ops of draws land in the bottom hot_keys fraction of
//     the keyspace, the rest spread uniformly over the remainder.
//   * dijkstra — pop key k, push k + U[a, b]: the shortest-path /
//     discrete-event dependence structure where insertions trail the
//     current minimum by a bounded band.
//
// Each thread owns one generator instance seeded from (base seed,
// thread id), so runs are reproducible and streams are independent.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "platform/rng.hpp"
#include "workloads/distributions.hpp"
#include "workloads/fatal.hpp"

namespace cpq::workloads {

enum class KeyDistribution : std::uint8_t {
  kUniform,
  kAscending,
  kDescending,
  kHold,
  kZipf,
  kHotspot,
  kDijkstra,
};

struct KeyConfig {
  KeyDistribution distribution = KeyDistribution::kUniform;
  // Width of the uniform range (32, 16 or 8 in the paper) or of the random
  // base component for ascending/descending/hold. For zipf/hotspot this is
  // the keyspace width and must stay below 64 so the span fits a uint64.
  unsigned bits = 32;

  // zipf
  double zipf_theta = 1.1;
  // hotspot
  double hot_ops = 0.9;   // fraction of operations hitting the hot range
  double hot_keys = 0.1;  // fraction of the keyspace that is hot
  // dijkstra: increment drawn uniformly from [dijkstra_min, dijkstra_max]
  std::uint64_t dijkstra_min = 1;
  std::uint64_t dijkstra_max = 100;

  static KeyConfig uniform(unsigned bits = 32) {
    return {KeyDistribution::kUniform, bits};
  }
  static KeyConfig ascending(unsigned base_bits = 10) {
    return {KeyDistribution::kAscending, base_bits};
  }
  static KeyConfig descending(unsigned base_bits = 10) {
    return {KeyDistribution::kDescending, base_bits};
  }
  static KeyConfig hold(unsigned base_bits = 10) {
    return {KeyDistribution::kHold, base_bits};
  }
  static KeyConfig zipf(double theta, unsigned bits = 32) {
    KeyConfig cfg{KeyDistribution::kZipf, bits};
    cfg.zipf_theta = theta;
    return cfg;
  }
  static KeyConfig hotspot(double hot_ops, double hot_keys,
                           unsigned bits = 32) {
    KeyConfig cfg{KeyDistribution::kHotspot, bits};
    cfg.hot_ops = hot_ops;
    cfg.hot_keys = hot_keys;
    return cfg;
  }
  static KeyConfig dijkstra(std::uint64_t min_inc = 1,
                            std::uint64_t max_inc = 100) {
    KeyConfig cfg{KeyDistribution::kDijkstra, 32};
    cfg.dijkstra_min = min_inc;
    cfg.dijkstra_max = max_inc;
    return cfg;
  }

  std::string name() const {
    char buf[96];
    switch (distribution) {
      case KeyDistribution::kUniform:
        return "uniform" + std::to_string(bits);
      case KeyDistribution::kAscending:
        return "ascending";
      case KeyDistribution::kDescending:
        return "descending";
      case KeyDistribution::kHold:
        return "hold";
      case KeyDistribution::kZipf:
        std::snprintf(buf, sizeof(buf), "zipf%g", zipf_theta);
        return buf;
      case KeyDistribution::kHotspot:
        std::snprintf(buf, sizeof(buf), "hotspot%g/%g", hot_ops, hot_keys);
        return buf;
      case KeyDistribution::kDijkstra:
        std::snprintf(buf, sizeof(buf), "dijkstra%llu-%llu",
                      static_cast<unsigned long long>(dijkstra_min),
                      static_cast<unsigned long long>(dijkstra_max));
        return buf;
    }
    fatal_unknown_enum("KeyDistribution", static_cast<int>(distribution));
  }
};

class KeyGenerator {
 public:
  // Descending keys start from this offset and move downward; large enough
  // that realistic run lengths never underflow.
  static constexpr std::uint64_t kDescendingStart = std::uint64_t{1} << 42;

  KeyGenerator(const KeyConfig& config, std::uint64_t base_seed,
               unsigned thread_id)
      : config_(config),
        rng_(thread_seed(base_seed, thread_id)),
        mask_(config.bits >= 64 ? ~std::uint64_t{0}
                                : (std::uint64_t{1} << config.bits) - 1) {
    switch (config.distribution) {
      case KeyDistribution::kZipf:
        // span = mask_+1 must not wrap: zipf/hotspot require bits <= 63,
        // which the spec parser enforces at the CLI boundary.
        zipf_ = ZipfSampler(mask_ + 1, config.zipf_theta);
        break;
      case KeyDistribution::kHotspot:
        hotspot_ = HotspotSampler(mask_ + 1, config.hot_ops, config.hot_keys);
        break;
      default:
        break;
    }
  }

  std::uint64_t next() {
    switch (config_.distribution) {
      case KeyDistribution::kUniform:
        return rng_.next() & mask_;
      case KeyDistribution::kAscending:
        return (rng_.next() & mask_) + op_counter_++;
      case KeyDistribution::kDescending: {
        const std::uint64_t shift = op_counter_++;
        const std::uint64_t down =
            shift < kDescendingStart ? kDescendingStart - shift : 0;
        return down + (rng_.next() & mask_);
      }
      case KeyDistribution::kHold:
        return last_deleted_ + (rng_.next() & mask_);
      case KeyDistribution::kZipf:
        return zipf_.next(rng_) - 1;  // rank 1 -> key 0: hot == minimum
      case KeyDistribution::kHotspot:
        return hotspot_.next(rng_);
      case KeyDistribution::kDijkstra:
        return last_deleted_ +
               rng_.next_in(config_.dijkstra_min, config_.dijkstra_max);
    }
    fatal_unknown_enum("KeyDistribution",
                       static_cast<int>(config_.distribution));
  }

  // Feedback for the hold/dijkstra models; harmless to call for other
  // distributions.
  void observe_deleted(std::uint64_t key) { last_deleted_ = key; }

  // Advance the per-thread operation counter without drawing from the RNG,
  // as if `ops` keys had already been generated. Lets tests exercise the
  // descending distribution's underflow clamp at kDescendingStart without
  // iterating 2^42 times.
  void skip(std::uint64_t ops) { op_counter_ += ops; }

  Xoroshiro128& rng() { return rng_; }

 private:
  KeyConfig config_;
  Xoroshiro128 rng_;
  std::uint64_t mask_;
  std::uint64_t op_counter_ = 0;
  std::uint64_t last_deleted_ = 0;
  // Set up by the constructor for their distribution; the default-built
  // samplers of the others are valid and never drawn from.
  ZipfSampler zipf_;
  HotspotSampler hotspot_;
};

}  // namespace cpq::workloads
