// Overload-resilience building blocks for the priority service:
//
//   * DeadlinePool — a fixed-capacity slot pool that attaches an absolute
//     expiry timestamp to a queued value without widening the queue's value
//     type. The service stores the pool index (tagged) as the queue value and
//     resolves it back at pop time, shedding tasks whose deadline passed.
//   * TierMap / tier_admitted — priority-aware admission: instead of the
//     binary block/reject choice, the key space is split into tiers and
//     lower-priority tiers are refused first as the in-flight window fills.
//
// Everything here is header-only and queue-agnostic; PriorityService wires
// the pieces together (see priority_service.hpp).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "platform/clock.hpp"

namespace cpq::service {

// Steady-clock microseconds on the canonical monotonic timeline
// (platform/clock.hpp). Deadlines are compared within one process run, so
// the epoch never matters; sharing monotonic_us() with the telemetry/trace
// exporters makes service-layer timestamps directly comparable to
// TelemetryRecord::t_ns and Chrome trace event times.
inline std::uint64_t steady_now_us() noexcept { return monotonic_us(); }

// Fixed-capacity pool of (value, deadline) slots with a Treiber-stack free
// list. acquire() pops a free slot and fills it; take() reads a slot back and
// returns it to the free list. Slot indices travel through the inner queue,
// so the queue's insert/delete_min synchronization orders the plain-field
// writes in acquire() before the reads in take(). The free-list head packs a
// 32-bit ABA tag above the 32-bit slot index; the tag increments on every
// pop, so a stale head value never CASes successfully.
template <typename V>
class DeadlinePool {
 public:
  static constexpr std::uint32_t kNilSlot =
      std::numeric_limits<std::uint32_t>::max();

  struct Entry {
    V value{};
    std::uint64_t deadline_us = 0;
  };

  explicit DeadlinePool(std::size_t capacity)
      : slots_(capacity == 0 ? 1 : capacity) {
    // Thread the free list through every slot: head -> 0 -> 1 -> ... -> nil.
    for (std::size_t i = 0; i + 1 < slots_.size(); ++i) {
      slots_[i].next.store(static_cast<std::uint32_t>(i + 1),
                           std::memory_order_relaxed);
    }
    slots_.back().next.store(kNilSlot, std::memory_order_relaxed);
    head_.store(pack(0, 0), std::memory_order_relaxed);
  }

  DeadlinePool(const DeadlinePool&) = delete;
  DeadlinePool& operator=(const DeadlinePool&) = delete;

  std::size_t capacity() const noexcept { return slots_.size(); }

  // Number of acquire() calls refused because the pool was empty. The caller
  // falls back to enqueueing the value without a deadline, so exhaustion
  // degrades shedding fidelity but never loses tasks.
  std::uint64_t exhausted() const noexcept {
    return exhausted_.load(std::memory_order_relaxed);
  }

  // Pop a free slot, store (value, deadline_us) into it, and return its index
  // through `slot`. Returns false (and counts the exhaustion) when no slot is
  // free.
  bool acquire(const V& value, std::uint64_t deadline_us,
               std::uint32_t& slot) noexcept {
    std::uint64_t head = head_.load(std::memory_order_acquire);
    for (;;) {
      const std::uint32_t index = unpack_index(head);
      if (index == kNilSlot) {
        exhausted_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      const std::uint32_t next =
          slots_[index].next.load(std::memory_order_relaxed);
      if (head_.compare_exchange_weak(
              head, pack(unpack_tag(head) + 1, next),
              std::memory_order_acq_rel, std::memory_order_acquire)) {
        slots_[index].value = value;
        slots_[index].deadline_us = deadline_us;
        slot = index;
        return true;
      }
    }
  }

  // Read slot `slot` back and return it to the free list. The caller must own
  // the slot (obtained from acquire() and routed through the queue exactly
  // once).
  Entry take(std::uint32_t slot) noexcept {
    Entry entry{slots_[slot].value, slots_[slot].deadline_us};
    std::uint64_t head = head_.load(std::memory_order_relaxed);
    for (;;) {
      slots_[slot].next.store(unpack_index(head), std::memory_order_relaxed);
      if (head_.compare_exchange_weak(
              head, pack(unpack_tag(head) + 1, slot),
              std::memory_order_acq_rel, std::memory_order_relaxed)) {
        return entry;
      }
    }
  }

 private:
  struct Slot {
    V value{};
    std::uint64_t deadline_us = 0;
    std::atomic<std::uint32_t> next{kNilSlot};
  };

  static std::uint64_t pack(std::uint64_t tag, std::uint32_t index) noexcept {
    return (tag << 32) | index;
  }
  static std::uint32_t unpack_index(std::uint64_t head) noexcept {
    return static_cast<std::uint32_t>(head);
  }
  static std::uint64_t unpack_tag(std::uint64_t head) noexcept {
    return head >> 32;
  }

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> exhausted_{0};
};

// Key-space tiers for priority-aware admission. Tier 0 holds the smallest
// (highest-priority) keys; boundaries are ascending upper bounds, so a key is
// in the first tier whose boundary exceeds it and in the last tier otherwise.
struct TierMap {
  std::vector<std::uint64_t> boundaries;

  unsigned tiers() const noexcept {
    return static_cast<unsigned>(boundaries.size()) + 1;
  }

  unsigned tier_of(std::uint64_t key) const noexcept {
    unsigned t = 0;
    for (const std::uint64_t bound : boundaries) {
      if (key < bound) return t;
      ++t;
    }
    return t;
  }

  // Split [0, key_space) into `tiers` equal-width tiers.
  static TierMap uniform(unsigned tiers, std::uint64_t key_space) {
    TierMap map;
    if (tiers < 2) return map;
    const std::uint64_t width = key_space / tiers;
    for (unsigned t = 1; t < tiers; ++t) {
      map.boundaries.push_back(width * t);
    }
    return map;
  }
};

// Graduated admission: tier t (0 = highest priority) is admitted while the
// in-flight occupancy is below capacity * (tiers - t) / tiers. Tier 0 may use
// the whole window; the lowest tier is refused once the window is 1/tiers
// full. With tiers <= 1 this degenerates to the plain capacity check.
inline bool tier_admitted(std::size_t occupancy, std::size_t capacity,
                          unsigned tier, unsigned tiers) noexcept {
  if (occupancy >= capacity) return false;
  if (tiers <= 1) return true;
  if (tier >= tiers) tier = tiers - 1;
  return occupancy < capacity / tiers * (tiers - tier) +
                         capacity % tiers * (tiers - tier) / tiers;
}

}  // namespace cpq::service
