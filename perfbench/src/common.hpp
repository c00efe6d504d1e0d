// Shared plumbing of the repository benchmark: options, the metric report,
// the span tracer, order-independent item fingerprints, and small helpers.
//
// The benchmark drives every layer from outside through its public headers
// (queue handles, seq::BinaryHeap, PriorityService handles, the k-LSM merge
// kernels, obs::MetricsRegistry, mm::BlockPool::stats()); nothing here
// reaches into a layer's internals.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <time.h>

#include "mm/arena.hpp"
#include "obs/metrics.hpp"
#include "platform/clock.hpp"
#include "platform/thread_util.hpp"
#include "platform/timing.hpp"

namespace pb {

using Key = std::uint64_t;
using Value = std::uint64_t;

inline constexpr const char* kWorkloads[] = {"uniform", "sssp", "service"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 1;      // T = min(4, nproc)
  std::string trace_out;     // Chrome trace path (trace runs only)
  // Measuring-time multiplier of one cell: the named workload's cells get
  // twice the window (or twice the solves) of the other two.
  double scale(const char* cell_workload) const {
    return (workload == cell_workload ? 2.0 : 1.0) * seconds / 10.0;
  }
};

// ---- statistics ----------------------------------------------------------

// Linear-interpolated quantile of an unsorted sample (copied).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || v[hi] == v[lo]) return v[lo];  // also infinite values
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// ---- the report ------------------------------------------------------------

// One named metric: its unit, its value and the number of samples behind it.
struct Metric {
  std::string unit;
  double value = 0.0;
  std::uint64_t samples = 0;
};

class Report {
 public:
  void set(const std::string& name, const std::string& unit, double value,
           std::uint64_t samples) {
    metrics_[name] = Metric{unit, value, samples};
  }
  // Median of per-repetition values.
  void set_median(const std::string& name, const std::string& unit,
                  const std::vector<double>& reps) {
    set(name, unit, median(reps), reps.size());
  }

  // Checked operations: every operation whose output the benchmark verified,
  // and the ones found wrong (lost, duplicated, wrong distance).
  void attempt(std::uint64_t n) { attempted_ += n; }
  void fail(std::uint64_t n, const std::string& what) {
    if (n == 0) return;
    failed_ += n;
    std::fprintf(stderr, "perfbench: FAILED %llu operation(s): %s\n",
                 static_cast<unsigned long long>(n), what.c_str());
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- fingerprints ---------------------------------------------------------

// Order-independent multiset fingerprint of item ids: equal exactly when the
// same ids were added the same number of times (up to 2^-64 collisions).
inline std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Fingerprint {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  void add(std::uint64_t id) {
    ++count;
    sum += mix(id);
  }
  void merge(const Fingerprint& o) {
    count += o.count;
    sum += o.sum;
  }
};

// Items missing or surplus between what went in and what came out; a pure
// swap (one lost, one duplicated) still counts as two.
inline std::uint64_t fingerprint_failures(const Fingerprint& in,
                                          const Fingerprint& out) {
  const std::uint64_t diff =
      in.count > out.count ? in.count - out.count : out.count - in.count;
  if (diff != 0) return diff;
  return in.sum == out.sum ? 0 : 2;
}

// ---- layer counters -------------------------------------------------------

// Snapshot of the process-wide counters a cell boundary diffs: the metrics
// registry's contention/reclamation counters and the block pool's
// allocation counters (exact once every worker of the cell has joined).
struct Counters {
  std::array<std::uint64_t, cpq::obs::kNumCounters> registry{};
  cpq::mm::BlockPool::Stats pool;

  static Counters now() {
    Counters c;
    c.registry = cpq::obs::MetricsRegistry::global().totals();
    c.pool = cpq::mm::BlockPool::global().stats();
    return c;
  }
  std::uint64_t delta(const Counters& before, cpq::obs::Counter k) const {
    const auto i = static_cast<unsigned>(k);
    return registry[i] - before.registry[i];
  }
};

// ---- tracing ----------------------------------------------------------------

// Spans recorded by the benchmark around its calls into each layer, kept in
// preallocated per-lane buffers and written once at exit as Chrome
// trace-event JSON. Lane 0 is the main thread (workload and cell spans);
// lane 1 + tid is worker tid (sampled operation spans). A full lane drops
// further spans and counts them.
class Tracer {
 public:
  static constexpr std::size_t kLaneCapacity = std::size_t{1} << 17;
  // One operation in kSample gets a span; service tasks are sampled denser
  // because the open loop runs at a fixed, much lower rate.
  static constexpr std::uint64_t kSample = 1024;
  static constexpr std::uint64_t kServiceSample = 64;

  struct Span {
    std::uint64_t start;  // fast_timestamp ticks
    std::uint64_t end;
    std::uint64_t id;     // task id (service), else 0
    std::uint32_t name;   // interned
    std::uint32_t parent; // index of the enclosing cell span on lane 0
  };

  void enable(unsigned workers) {
    enabled_ = true;
    lanes_.resize(workers + 1);
    for (auto& lane : lanes_) lane.reserve(kLaneCapacity);
  }

  // Names are interned on the main thread only, before workers start.
  std::uint32_t intern(const std::string& name) {
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  void record(unsigned lane, std::uint32_t name, std::uint32_t parent,
              std::uint64_t start, std::uint64_t end, std::uint64_t id = 0) {
    auto& spans = lanes_[lane];
    if (spans.size() == kLaneCapacity) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    spans.push_back(Span{start, end, id, name, parent});
  }

  // Opens a span on lane 0; returns its index, the parent of nested spans.
  std::uint32_t open(const std::string& name, std::uint32_t parent) {
    if (!enabled_) return 0;
    lanes_[0].push_back(Span{cpq::fast_timestamp(), 0, 0, intern(name),
                             parent});
    return static_cast<std::uint32_t>(lanes_[0].size() - 1);
  }
  void close(std::uint32_t index) {
    if (enabled_) lanes_[0][index].end = cpq::fast_timestamp();
  }

  // Counter deltas at a cell boundary, exported as Chrome counter events.
  void counter(const std::string& name, double value) {
    if (enabled_) counters_.push_back({cpq::fast_timestamp(), name, value});
  }
  void counters_since(const Counters& before) {
    using C = cpq::obs::Counter;
    const Counters after = Counters::now();
    const auto delta = [&](C k) {
      return static_cast<double>(after.delta(before, k));
    };
    counter("lock_retry", delta(C::kLockRetry));
    counter("cas_retry", delta(C::kCasRetry));
    counter("ebr_retire", delta(C::kEbrRetire));
    counter("pool_fresh",
            static_cast<double>(after.pool.fresh - before.pool.fresh));
  }

  const std::vector<Span>& lane(unsigned i) const { return lanes_[i]; }
  unsigned lanes() const { return static_cast<unsigned>(lanes_.size()); }
  std::uint64_t dropped() const { return dropped_.load(); }

  bool write_chrome(const std::string& path,
                    const std::string& provenance_json) const;

 private:
  struct CounterEvent {
    std::uint64_t tick;
    std::string name;
    double value;
  };
  bool enabled_ = false;
  std::vector<std::vector<Span>> lanes_;
  std::vector<std::string> names_;
  std::vector<CounterEvent> counters_;
  std::atomic<std::uint64_t> dropped_{0};
};

// Scoped lane-0 span; a no-op when tracing is off.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, std::uint32_t parent)
      : tracer_(tracer), index_(tracer.open(name, parent)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint32_t index() const { return index_; }

 private:
  Tracer& tracer_;
  std::uint32_t index_;
};

// CPU time of the whole machine from /proc/stat, in jiffies: all of it and
// the part stolen (a runnable vCPU waiting for its hypervisor).
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;

  static CpuTimes now();
  double steal_pct_since(const CpuTimes& before) const {
    const std::uint64_t t = total - before.total;
    return t == 0 ? 0.0 : 100.0 * static_cast<double>(steal - before.steal) / t;
  }
};

// Time the workers of measured regions were runnable but not running
// (preempted inside the machine or stolen by its hypervisor), and all of
// their time, in ns, summed over every WorkerClock so far. /proc/stat
// steal misses most of it: on a shared 4-vCPU Xeon VM a 4-thread spin of
// 1 s lost 165 ms of thread CPU time while 3 steal jiffies (30 ms) were
// counted.
inline std::atomic<std::uint64_t> g_worker_lost_ns{0};
inline std::atomic<std::uint64_t> g_worker_wall_ns{0};

inline std::uint64_t thread_cpu_ns() {
  timespec t;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<std::uint64_t>(t.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(t.tv_nsec);
}

// Scoped to a worker's measured region: adds the wall time the thread did
// not run to g_worker_lost_ns. Every worker of a measured region spins, so
// any such time was taken from it.
class WorkerClock {
 public:
  WorkerClock() : cpu_(thread_cpu_ns()) {}
  ~WorkerClock() {
    const std::uint64_t wall = watch_.elapsed_ns();
    const std::uint64_t cpu = thread_cpu_ns() - cpu_;
    g_worker_lost_ns.fetch_add(wall > cpu ? wall - cpu : 0,
                               std::memory_order_relaxed);
    g_worker_wall_ns.fetch_add(wall, std::memory_order_relaxed);
  }
  WorkerClock(const WorkerClock&) = delete;
  WorkerClock& operator=(const WorkerClock&) = delete;

 private:
  cpq::Stopwatch watch_;
  std::uint64_t cpu_;
};

// Time taken from the workers spoils the cell it falls in, whatever the
// program did, so every bounded measurement (a window, a solve, a quality
// pass) is retried: up to kCellTries attempts while its workers lost more
// than kMaxCellLostPct of their time (WorkerClock).
inline constexpr unsigned kCellTries = 3;
inline constexpr double kMaxCellLostPct = 1.5;
// A quality pass is one sample per run and cheap to repeat (only the kept
// attempt is replayed), so it is held to a stricter limit with more tries.
inline constexpr unsigned kQualityTries = 5;
inline constexpr double kMaxQualityLostPct = 0.5;
// Retries start only while the run has taken less than this many times
// --seconds (the rounds of an unretried run take about 2.3x), so a heavily
// stolen host cannot stretch a run much.
inline constexpr double kRetrySecondsPerSecond = 3.0;

// Everything one run shares: options, report, tracer, set-up clock.
struct Run {
  Options opt;
  cpq::Stopwatch clock;  // since the run started
  bool may_retry() const {
    return clock.elapsed_seconds() < kRetrySecondsPerSecond * opt.seconds;
  }
  Report report;
  Tracer tracer;
  // Seconds of untimed preparation per round (prefill, graph build plus
  // reference solve, service construction); setup_s is their median.
  std::vector<double> setup;
  double setup_this_round = 0.0;
  // Checksums of the generated inputs (key streams, arrival schedules,
  // graph): identical for one seed, different across seeds.
  std::map<std::string, std::uint64_t> input_checksums;

  // A traced run traces its odd rounds; the even rounds, untraced, are the
  // baseline of the tracing overhead.
  bool traced(unsigned round) const { return opt.trace && round % 2 == 1; }
};

// Cost of tracing, percent: how much worse the median of the traced
// samples is than the median of the untraced ones.
inline double overhead_pct(const std::vector<double>& plain,
                           const std::vector<double>& traced,
                           bool higher_is_better) {
  const double p = median(plain);
  const double t = median(traced);
  if (p <= 0.0) return 0.0;
  return 100.0 * (higher_is_better ? p - t : t - p) / p;
}

// Runs attempt() as above and returns the result of the least-stolen
// attempt. Every attempt must check its own outputs: the discarded ones
// are real operations too. A quality pass (`quality`) has its own limits
// and retries even after Run::may_retry().
template <typename F>
auto least_stolen(const Run& run, F&& attempt, bool quality = false) {
  const unsigned tries = quality ? kQualityTries : kCellTries;
  const double max_lost = quality ? kMaxQualityLostPct : kMaxCellLostPct;
  decltype(attempt()) best{};
  double best_lost = 0.0;
  for (unsigned i = 0; i < tries; ++i) {
    const std::uint64_t lost0 = g_worker_lost_ns.load();
    const std::uint64_t wall0 = g_worker_wall_ns.load();
    auto result = attempt();
    const std::uint64_t wall = g_worker_wall_ns.load() - wall0;
    const double lost =
        100.0 * static_cast<double>(g_worker_lost_ns.load() - lost0) /
        static_cast<double>(std::max<std::uint64_t>(wall, 1));
    if (i == 0 || lost < best_lost) {
      best = std::move(result);
      best_lost = lost;
    }
    if (lost <= max_lost || (!quality && !run.may_retry())) break;
    std::printf("# cell measured again: %.1f%% of its time lost\n", lost);
  }
  return best;
}

// Adds the seconds spent in its scope to the round's set-up time.
class SetupTimer {
 public:
  explicit SetupTimer(Run& run) : run_(run) {}
  ~SetupTimer() { run_.setup_this_round += watch_.elapsed_seconds(); }
  SetupTimer(const SetupTimer&) = delete;
  SetupTimer& operator=(const SetupTimer&) = delete;

 private:
  Run& run_;
  cpq::Stopwatch watch_;
};

// Every worker spins this long before a window opens, so no core is still
// waking from idle when the measurement starts.
inline constexpr double kWarmupNs = 20e6;

// Runs body(tid, stop) on `threads` pinned workers released together after
// the warm-up; the main thread raises `stop` after `seconds`. Returns the
// measured seconds.
template <typename Body>
double timed_team(unsigned threads, double seconds, Body&& body) {
  cpq::SpinBarrier barrier(threads + 1);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> start{0};
  std::vector<std::thread> team;
  team.reserve(threads);
  for (unsigned tid = 0; tid < threads; ++tid) {
    team.emplace_back([&, tid] {
      cpq::pin_to_core(tid);
      barrier.arrive_and_wait();
      const std::uint64_t go = start.load(std::memory_order_acquire);
      while (cpq::fast_timestamp() < go) cpq::cpu_relax();
      const WorkerClock clock;
      body(tid, stop);
    });
  }
  const double ns_per_tick = cpq::tsc_clock().ns_per_tick();
  start.store(cpq::fast_timestamp() +
                  static_cast<std::uint64_t>(kWarmupNs / ns_per_tick),
              std::memory_order_release);
  barrier.arrive_and_wait();
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(static_cast<std::uint64_t>(kWarmupNs)));
  cpq::Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_release);
  const double elapsed = watch.elapsed_seconds();
  for (auto& t : team) t.join();
  return elapsed;
}

// Seed of one round's generated inputs.
inline std::uint64_t round_seed(std::uint64_t seed, unsigned round) {
  return mix(seed * 0x100000001b3ULL + round + 1);
}

inline double ticks_to_ns(std::uint64_t ticks) {
  return static_cast<double>(ticks) * cpq::tsc_clock().ns_per_tick();
}

// Sampled operation latencies of one cell (ns), gathered from worker spans.
inline std::vector<double> span_ns(const Tracer& tracer, std::uint32_t name,
                                   std::uint32_t parent) {
  std::vector<double> out;
  for (unsigned lane = 1; lane < tracer.lanes(); ++lane) {
    for (const auto& s : tracer.lane(lane)) {
      if (s.name == name && s.parent == parent) {
        out.push_back(ticks_to_ns(s.end - s.start));
      }
    }
  }
  return out;
}

// Workload entry points (one translation unit each).
void run_uniform_round(Run& run, unsigned round);
void finish_uniform(Run& run);
void run_sssp_round(Run& run, unsigned round);
void finish_sssp(Run& run);
void run_service_round(Run& run, unsigned round);
void finish_service(Run& run);
void run_layer_cells(Run& run);

// Fault-injection checks of the benchmark's own verifiers; returns the
// number of checks that did not behave as expected.
int self_test(const Options& opt);

}  // namespace pb
