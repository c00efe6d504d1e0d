// Compile-time-zero-cost fault injection for widening race windows.
//
// Lock-free bugs hide in windows a few instructions wide: between claiming a
// slot and reading its payload, between building a block array and publishing
// it, between observing an epoch and re-checking it. A buggy queue can pass
// every stress test simply because the scheduler never preempts inside those
// windows. The CPQ_INJECT(site) hooks below sit exactly there and, when
// enabled, stretch the window by a few microseconds with configurable
// probability — turning astronomically rare interleavings into ones a
// thousand-operation test hits reliably.
//
// Cost model:
//   * CPQ_FAULT_INJECTION undefined (the default for every library, bench,
//     and example target): CPQ_INJECT(site) expands to `((void)0)`. No load,
//     no branch, no code at the hook site — release binaries are unchanged.
//   * CPQ_FAULT_INJECTION defined (always for tests/torture_test.cpp via
//     target_compile_definitions; globally via -DCPQ_FAULT_INJECTION=ON at
//     CMake configure time, which also activates the EBR hooks compiled into
//     cpq_mm): each crossing draws from a per-thread xoroshiro stream and,
//     with probability CPQ_INJECT_PPM per million, yields, sleeps 50 us, or
//     burns a spin burst.
//
// Determinism: streams derive from CPQ_INJECT_SEED and a per-thread index
// assigned in first-crossing order, so a run with a fixed seed and a stable
// thread-creation order replays the same delay schedule.
//
// Configuration: CPQ_INJECT_PPM (default 0 = never fire even when compiled
// in) and CPQ_INJECT_SEED (default 42) are read from the environment once;
// fault_injection_configure() overrides both at runtime (tests).
#pragma once

#include <cstdint>

#if defined(CPQ_FAULT_INJECTION)

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "platform/backoff.hpp"
#include "platform/rng.hpp"

namespace cpq::validation {

// What a firing hook does. kDelay (the default) stretches the race window;
// kThrow raises InjectedFault instead, simulating a hard failure (bad_alloc
// standing in for any queue-reported error) so the harnesses' per-repetition
// failure paths can be regression-tested deterministically. kThrow is a
// test-only mode: it must only be enabled around code that is exception-safe
// at the injected sites (e.g. single-threaded prefill through a throwing
// test queue), never under noexcept worker loops.
enum class FaultAction : std::uint8_t { kDelay = 0, kThrow = 1 };

struct InjectedFault : std::runtime_error {
  explicit InjectedFault(const char* site)
      : std::runtime_error(std::string("injected fault at ") + site) {}
};

struct InjectionState {
  std::atomic<std::uint32_t> ppm{0};
  std::atomic<std::uint64_t> seed{42};
  std::atomic<std::uint8_t> action{0};  // FaultAction
  // Substring a site name must contain for the hook to fire; nullptr = all
  // sites. Points into retain_site_filter()'s list, so a replaced filter
  // stays readable by racing crossings.
  std::atomic<const char*> site_filter{nullptr};
  // Bumped by configure(); threads reseed their stream on the next crossing.
  std::atomic<std::uint64_t> generation{1};
  std::atomic<std::uint64_t> fired{0};
};

// A stable copy of `filter` (nullptr for none or ""). Every filter ever
// configured is kept for the life of the process — a racing crossing may
// still hold the pointer it loaded before a reconfiguration, so none is ever
// freed — in a list that is never destroyed, so it stays reachable (no
// LeakSanitizer report) and outlives static destruction. Equal filters
// share one copy, so the list is bounded by the distinct filters used.
inline const char* retain_site_filter(const char* filter) {
  if (filter == nullptr || filter[0] == '\0') return nullptr;
  static std::mutex mutex;
  static auto* const kept = new std::deque<std::string>();
  const std::lock_guard<std::mutex> lock(mutex);
  for (const std::string& s : *kept) {
    if (s == filter) return s.c_str();
  }
  return kept->emplace_back(filter).c_str();
}

inline InjectionState& injection_state() {
  static InjectionState state;
  static const bool env_loaded = [] {
    if (const char* ppm = std::getenv("CPQ_INJECT_PPM")) {
      state.ppm.store(
          static_cast<std::uint32_t>(std::strtoul(ppm, nullptr, 10)),
          std::memory_order_relaxed);
    }
    if (const char* seed = std::getenv("CPQ_INJECT_SEED")) {
      state.seed.store(std::strtoull(seed, nullptr, 10),
                       std::memory_order_relaxed);
    }
    if (const char* sites = std::getenv("CPQ_INJECT_SITES")) {
      state.site_filter.store(retain_site_filter(sites),
                              std::memory_order_release);
    }
    return true;
  }();
  (void)env_loaded;
  return state;
}

// Override the environment configuration (tests, chaos campaigns). ppm =
// firings per million hook crossings; 0 disables. site_filter restricts
// firing to sites whose name contains the given substring (e.g. "ebr" or
// "service/submit"); nullptr or "" fires at every site. Each call replaces
// the previous filter; see retain_site_filter() for why none is freed.
inline void fault_injection_configure(std::uint32_t ppm, std::uint64_t seed,
                                      FaultAction action = FaultAction::kDelay,
                                      const char* site_filter = nullptr) {
  InjectionState& state = injection_state();
  state.seed.store(seed, std::memory_order_relaxed);
  state.action.store(static_cast<std::uint8_t>(action),
                     std::memory_order_relaxed);
  state.site_filter.store(retain_site_filter(site_filter),
                          std::memory_order_release);
  state.ppm.store(ppm, std::memory_order_relaxed);
  state.generation.fetch_add(1, std::memory_order_acq_rel);
}

// Total delays injected process-wide (tests assert the hooks actually ran).
inline std::uint64_t fault_injections_fired() {
  return injection_state().fired.load(std::memory_order_relaxed);
}

namespace detail {

// Last site crossed per thread (by first-crossing index, capped): a cheap
// flight recorder. When a torture run livelocks, the per-thread sites show
// which seams the spinning threads keep crossing.
inline constexpr unsigned kMaxTrackedThreads = 64;

inline std::atomic<const char*>* last_sites() {
  static std::atomic<const char*> sites[kMaxTrackedThreads] = {};
  return sites;
}

}  // namespace detail

// Diagnostic: the most recent CPQ_INJECT site crossed by the thread with
// first-crossing index `thread_index` (nullptr if it never crossed one).
inline const char* fault_injection_last_site(unsigned thread_index) {
  if (thread_index >= detail::kMaxTrackedThreads) return nullptr;
  return detail::last_sites()[thread_index].load(std::memory_order_relaxed);
}

namespace detail {

// Per-thread stream index in first-crossing order (see determinism note).
inline std::uint64_t injection_thread_index() {
  static std::atomic<std::uint64_t> next{0};
  thread_local const std::uint64_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

inline void inject_point(const char* site) {
  InjectionState& state = injection_state();
  const std::uint32_t ppm = state.ppm.load(std::memory_order_relaxed);
  if (ppm == 0) return;
  if (const char* filter =
          state.site_filter.load(std::memory_order_acquire)) {
    if (std::strstr(site, filter) == nullptr) return;
  }
  const std::uint64_t tindex = injection_thread_index();
  if (tindex < kMaxTrackedThreads) {
    last_sites()[tindex].store(site, std::memory_order_relaxed);
  }
  struct Stream {
    Xoroshiro128 rng{0};
    std::uint64_t generation = 0;
  };
  thread_local Stream stream;
  const std::uint64_t generation =
      state.generation.load(std::memory_order_acquire);
  if (stream.generation != generation) {
    stream.generation = generation;
    stream.rng = Xoroshiro128(
        thread_seed(state.seed.load(std::memory_order_relaxed),
                    static_cast<unsigned>(injection_thread_index())));
  }
  if (stream.rng.next_below(1'000'000) >= ppm) return;
  state.fired.fetch_add(1, std::memory_order_relaxed);
  if (state.action.load(std::memory_order_relaxed) ==
      static_cast<std::uint8_t>(FaultAction::kThrow)) {
    throw InjectedFault(site);
  }
  switch (stream.rng.next_below(3)) {
    case 0:
      std::this_thread::yield();
      break;
    case 1:
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      break;
    default:
      for (int i = 0; i < 512; ++i) cpu_relax();
      break;
  }
}

}  // namespace detail

}  // namespace cpq::validation

#define CPQ_INJECT(site) ::cpq::validation::detail::inject_point(site)

#else  // !CPQ_FAULT_INJECTION

#define CPQ_INJECT(site) ((void)0)

#endif  // CPQ_FAULT_INJECTION
