// Open-loop client simulator for the PriorityService layer.
//
// The paper's harness is closed-loop: every worker issues its next operation
// the moment the previous one returns, so the offered load adapts to the
// queue under test. A service front-end faces the opposite regime — tasks
// arrive when clients send them, not when the queue is ready — so this
// harness drives *open-loop* traffic: producer threads submit tasks on a
// Poisson arrival schedule (exponential inter-arrival times, independent of
// completion), consumer threads pop continuously. Measured per run:
//
//   * offered and delivered task rates (tasks/s),
//   * completion-rank error, reusing the quality replay engine: every
//     submission and delivery is timestamped and replayed through the
//     order-statistic tree, so the service's extra relaxation (buffering,
//     sharding) is quantified with the same metric as the raw queues,
//   * the service's per-shard counters (batch fill, steals, flushes).
//
// The same loop runs against raw queue handles and against the service (and,
// for validation, against CheckedQueue-wrapped engines), so
// bench/bench_service.cpp can print service-vs-raw columns from one code
// path. The progress watchdog supervises every worker; for service runs the
// service's per-shard counter dump is installed as the watchdog diagnostics
// callback.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_framework/harness.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "platform/backoff.hpp"
#include "platform/cache.hpp"
#include "platform/clock.hpp"
#include "platform/rng.hpp"
#include "platform/thread_util.hpp"
#include "platform/timing.hpp"
#include "service/priority_service.hpp"
#include "validation/checked_queue.hpp"
#include "validation/watchdog.hpp"
#include "workloads/arrivals.hpp"
#include "workloads/keyspace.hpp"

namespace cpq::service {

struct ServiceBenchConfig {
  unsigned producers = 2;
  unsigned consumers = 2;
  double duration_s = 0.1;
  // Per-producer Poisson arrival rate in tasks/s; 0 = submit continuously
  // (a closed-loop firehose, the saturation upper bound). Superseded by
  // `arrivals` below when that is enabled.
  double arrival_hz = 0.0;
  // Generalized arrival process (workloads/arrivals.hpp): poisson:HZ is the
  // legacy arrival_hz model, mmpp adds on/off burstiness. When enabled this
  // takes precedence over arrival_hz.
  workloads::ArrivalConfig arrivals;
  std::size_t prefill = 0;
  workloads::KeyConfig keys = workloads::KeyConfig::uniform(32);
  ServiceConfig service;
  // Wrap the engine in validation::CheckedQueue and reconcile at the end
  // (combine with a CPQ_FAULT_INJECTION build for torture coverage).
  bool checked = false;
  bool measure_quality = true;
  // Record per-delivery delete_min latency into a log-linear histogram
  // (two RDTSCP reads per successful pop on the consumer side).
  bool measure_latency = true;
  std::uint64_t seed = 42;
  bool pin_threads = true;
  double watchdog_s = -1.0;
  std::string label;
};

struct ServiceBenchResult {
  double offered_per_s = 0.0;    // producer submissions / elapsed
  double delivered_per_s = 0.0;  // consumer deliveries / elapsed
  std::uint64_t submitted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t drained = 0;  // tasks recovered after shutdown
  double median_rank_error = 0.0;
  std::uint64_t max_rank_error = 0;
  std::uint64_t deletions = 0;  // deliveries scored by the replay
  // Consumer-side delete_min latency over successful pops, nanoseconds
  // (empty polls are excluded: at low arrival rates they would drown the
  // delivery latencies the table reports). Filled when cfg.measure_latency.
  obs::LogHistogram delete_ns;
  // Submit-to-delivery sojourn per task, nanoseconds, matched through the
  // quality logs' unique item ids. Filled when cfg.measure_quality. This is
  // the latency that overload actually inflates: under arrival > service
  // rate it grows without bound unless deadline shedding caps it.
  obs::LogHistogram sojourn_ns;
  std::uint64_t shed = 0;  // tasks dropped past their deadline (service)
  // Measured ON-time fraction across producers (burst_* family); 1.0 for
  // plain Poisson arrivals, 0 when pacing is disabled.
  double burst_on_fraction = 0.0;
  std::uint64_t bursts = 0;  // total OFF->ON transitions across producers
  ServiceStats stats;           // zeroed for raw-queue runs
  bool conservation_ok = true;  // meaningful when cfg.checked
  std::string conservation_report;
};

namespace detail {

// Drive the open-loop producer/consumer team over any engine satisfying the
// queue handle concept. Fills `logs` (producers+consumers+1 slots, prefill
// last) when cfg.measure_quality, and the submitted/delivered totals.
template <typename Engine>
void open_loop_run(Engine& engine, const ServiceBenchConfig& cfg,
                   validation::Watchdog::Diagnostics diagnostics,
                   std::vector<std::vector<bench::OpLogEntry>>& logs,
                   ServiceBenchResult& result) {
  const unsigned threads = cfg.producers + cfg.consumers;
  logs.assign(threads + 1, {});

  {  // Prefill through a scoped handle (service handles flush on exit).
    auto handle = engine.get_handle(0);
    workloads::KeyGenerator gen(cfg.keys, cfg.seed ^ 0x9e3779b9ULL,
                                bench::detail::kPrefillThread);
    for (std::size_t i = 0; i < cfg.prefill; ++i) {
      const std::uint64_t key = gen.next();
      const std::uint64_t id =
          bench::detail::item_id(bench::detail::kPrefillThread, i);
      handle.insert(key, id);
      if (cfg.measure_quality) {
        logs[threads].push_back({fast_timestamp(), key, id, true});
      }
    }
  }

  std::vector<validation::WorkerProgress> progress(threads);
  // Chain the engine-specific diagnostics (shard stats for service runs)
  // with the metrics-registry and rank-estimator dumps so a stall report
  // carries all three.
  validation::Watchdog watchdog(
      cfg.label.empty() ? "service-bench" : cfg.label, progress.data(),
      threads, validation::watchdog_deadline(cfg.watchdog_s),
      validation::Watchdog::chain_diagnostics(
          std::move(diagnostics), [](std::FILE* out) {
            obs::MetricsRegistry::global().dump(out);
            obs::RankEstimator::global().dump(out);
          }));

  // fast_timestamp ticks -> ns via the process-wide TscClock calibration
  // (shared with the telemetry sampler and the Chrome trace exporter, so
  // every artifact sits on the same timeline).
  const double ns_per_tick = tsc_clock().ns_per_tick();
  std::vector<obs::LogHistogram> delete_ticks(threads);

  // Single-writer per-thread totals, atomic so the telemetry sampler may
  // read them live (each worker mirrors its plain local counter with a
  // relaxed store; nobody else writes the slot).
  std::vector<CacheAligned<std::atomic<std::uint64_t>>> submitted(threads);
  std::vector<CacheAligned<std::atomic<std::uint64_t>>> delivered(threads);
  // While the plane samples, expose the live worker totals as gauges; the
  // sampler derives submitted_per_s / delivered_per_s from their deltas.
  // Registered after the vectors so it unregisters (and quiesces against
  // the sampler's lock) before they are destroyed.
  obs::ScopedTelemetryProvider worker_gauges([&](obs::GaugeSet& g) {
    std::uint64_t sub = 0;
    std::uint64_t del = 0;
    for (unsigned tid = 0; tid < threads; ++tid) {
      sub += submitted[tid].value.load(std::memory_order_relaxed);
      del += delivered[tid].value.load(std::memory_order_relaxed);
    }
    g.set("submitted", static_cast<double>(sub));
    g.set("delivered", static_cast<double>(del));
  });
  // Effective arrival model: the structured config wins; the legacy scalar
  // arrival_hz maps onto plain Poisson.
  workloads::ArrivalConfig arrival_cfg = cfg.arrivals;
  if (!arrival_cfg.enabled() && cfg.arrival_hz > 0.0) {
    arrival_cfg = workloads::ArrivalConfig::poisson(cfg.arrival_hz);
  }
  std::vector<CacheAligned<double>> on_fraction(threads);
  std::vector<CacheAligned<std::uint64_t>> bursts(threads);
  SpinBarrier barrier(threads + 1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> team;
  team.reserve(threads);
  for (unsigned tid = 0; tid < threads; ++tid) {
    team.emplace_back([&, tid] {
      if (cfg.pin_threads) pin_to_core(tid);
      auto handle = engine.get_handle(tid);
      auto& log = logs[tid];
      // Hoisted: the plane starts before and stops after the run, so one
      // acquire load decides the whole loop. plane_on == false is the
      // default path and must stay free of telemetry work.
      obs::TelemetryPlane& plane = obs::TelemetryPlane::global();
      const bool plane_on = plane.active();
      if (tid < cfg.producers) {
        workloads::KeyGenerator gen(cfg.keys, cfg.seed, tid);
        std::optional<workloads::ArrivalProcess> arrival;
        if (arrival_cfg.enabled()) {
          arrival.emplace(arrival_cfg, cfg.seed ^ 0xa441a1, tid);
        }
        std::uint64_t counter = 0;
        std::uint64_t my_submitted = 0;
        barrier.arrive_and_wait();
        Stopwatch watch;
        bool stopped = false;
        while (!stop.load(std::memory_order_relaxed)) {
          if (arrival) {
            // Open-loop schedule: wait for the wall clock, never for the
            // service. A producer that falls behind issues the backlog at
            // full speed.
            const double due_ns = arrival->next_arrival_ns();
            while (static_cast<double>(watch.elapsed_ns()) < due_ns) {
              if (stop.load(std::memory_order_relaxed)) {
                stopped = true;
                break;
              }
              cpu_relax();
            }
            if (stopped) break;
          }
          const std::uint64_t key = gen.next();
          const std::uint64_t id = bench::detail::item_id(tid, counter++);
          // Acceptance-aware submission: a service handle reports whether
          // the task was admitted (a close() racing the final insert of the
          // run rejects it); rejected tasks must not be logged or counted
          // as submitted or they surface as phantom losses downstream.
          bool accepted = true;
          if constexpr (requires {
                          { handle.insert(key, id) }
                              -> std::convertible_to<bool>;
                        }) {
            accepted = handle.insert(key, id);
          } else {
            handle.insert(key, id);
          }
          if (accepted) {
            if (cfg.measure_quality) {
              log.push_back({fast_timestamp(), key, id, true});
            }
            submitted[tid].value.store(++my_submitted,
                                       std::memory_order_relaxed);
            if (plane_on) plane.note_submit(id, fast_timestamp());
          }
          progress[tid].tick(my_submitted, validation::LastOp::kInsert);
          CPQ_TRACE_OP(my_submitted, ::cpq::obs::TraceOp::kInsert, key);
        }
        if (arrival) {
          on_fraction[tid].value = arrival->on_time_fraction();
          bursts[tid].value = arrival->bursts();
        }
      } else {
        auto& my_ticks = delete_ticks[tid];
        std::uint64_t ops = 0;
        std::uint64_t my_delivered = 0;
        barrier.arrive_and_wait();
        while (!stop.load(std::memory_order_relaxed)) {
          std::uint64_t key = 0;
          std::uint64_t id;
          bool hit;
          if (cfg.measure_latency) {
            const std::uint64_t start = fast_timestamp();
            hit = handle.delete_min(key, id);
            if (hit) {
              const std::uint64_t end = fast_timestamp();
              my_ticks.record(end - start);
              if (plane_on) plane.record_latency_ticks(end - start);
            }
          } else {
            hit = handle.delete_min(key, id);
          }
          if (hit) {
            if (cfg.measure_quality) {
              log.push_back({fast_timestamp(), key, id, false});
            }
            delivered[tid].value.store(++my_delivered,
                                       std::memory_order_relaxed);
            if (plane_on) plane.note_delivery(id, fast_timestamp());
          } else {
            cpu_relax();
          }
          progress[tid].tick(++ops, hit ? validation::LastOp::kDeleteHit
                                        : validation::LastOp::kDeleteEmpty);
          CPQ_TRACE_OP(ops,
                       hit ? ::cpq::obs::TraceOp::kDeleteHit
                           : ::cpq::obs::TraceOp::kDeleteEmpty,
                       key);
        }
      }
    });
  }

  barrier.arrive_and_wait();
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::duration<double>(cfg.duration_s));
  stop.store(true, std::memory_order_release);
  const double elapsed = watch.elapsed_seconds();
  // A producer can be parked inside a blocking insert() on a full in-flight
  // window at this point, with every consumer about to exit — nobody will
  // release a slot, so join() would deadlock. Closing a closable engine
  // wakes those submitters (their final insert reports rejection, which the
  // producer loop discounts above).
  if constexpr (requires { engine.close(); }) {
    engine.close();
  }
  for (auto& t : team) t.join();
  watchdog.stop();

  for (unsigned tid = 0; tid < threads; ++tid) {
    result.submitted += submitted[tid].value.load(std::memory_order_relaxed);
    result.delivered += delivered[tid].value.load(std::memory_order_relaxed);
  }
  if (arrival_cfg.enabled() && cfg.producers > 0) {
    double on_sum = 0.0;
    for (unsigned tid = 0; tid < cfg.producers; ++tid) {
      on_sum += on_fraction[tid].value;
      result.bursts += bursts[tid].value;
    }
    result.burst_on_fraction = on_sum / cfg.producers;
  }
  obs::MetricsRegistry::global().add_cell_ops(result.submitted +
                                              result.delivered);
  if (cfg.measure_latency) {
    for (unsigned tid = cfg.producers; tid < threads; ++tid) {
      result.delete_ns.add_scaled(delete_ticks[tid], ns_per_tick);
    }
  }
  if (cfg.measure_quality) {
    // Sojourn latency: match every delivery to its submission timestamp by
    // item id (ids are unique across threads and the prefill).
    std::unordered_map<std::uint64_t, std::uint64_t> submitted_at;
    submitted_at.reserve(result.submitted + cfg.prefill);
    for (const auto& log : logs) {
      for (const bench::OpLogEntry& entry : log) {
        if (entry.is_insert) submitted_at.emplace(entry.id, entry.timestamp);
      }
    }
    obs::LogHistogram sojourn_ticks;
    for (const auto& log : logs) {
      for (const bench::OpLogEntry& entry : log) {
        if (entry.is_insert) continue;
        const auto it = submitted_at.find(entry.id);
        if (it == submitted_at.end() || entry.timestamp <= it->second) {
          continue;
        }
        sojourn_ticks.record(entry.timestamp - it->second);
      }
    }
    result.sojourn_ns.add_scaled(sojourn_ticks, ns_per_tick);
  }
  result.offered_per_s = static_cast<double>(result.submitted) / elapsed;
  result.delivered_per_s = static_cast<double>(result.delivered) / elapsed;
}

inline void score_quality(std::vector<std::vector<bench::OpLogEntry>>& logs,
                          ServiceBenchResult& result) {
  std::vector<double> errors;
  std::uint64_t max_err = 0;
  bench::replay_rank_errors(logs, errors, max_err);
  result.deletions = errors.size();
  result.max_rank_error = max_err;
  if (!errors.empty()) {
    const std::size_t mid = errors.size() / 2;
    std::nth_element(errors.begin(), errors.begin() + mid, errors.end());
    result.median_rank_error = errors[mid];
  }
}

}  // namespace detail

// Open-loop run against raw queue handles (the baseline column).
// `make_queue(threads, seed)` constructs the queue under test.
template <typename Factory>
ServiceBenchResult run_open_loop_raw(Factory&& make_queue,
                                     const ServiceBenchConfig& cfg) {
  const unsigned threads = cfg.producers + cfg.consumers;
  ServiceBenchResult result;
  std::vector<std::vector<bench::OpLogEntry>> logs;
  if (cfg.checked) {
    using Q = typename std::decay_t<decltype(*make_queue(threads,
                                                         cfg.seed))>;
    validation::CheckedQueue<Q> checked(threads, make_queue(threads, cfg.seed));
    detail::open_loop_run(checked, cfg, {}, logs, result);
    const validation::ReconcileReport report = checked.reconcile();
    result.conservation_ok = report.ok();
    result.conservation_report = report.to_string();
    result.drained = report.drained;
  } else {
    auto queue = make_queue(threads, cfg.seed);
    detail::open_loop_run(*queue, cfg, {}, logs, result);
  }
  if (cfg.measure_quality) detail::score_quality(logs, result);
  return result;
}

// Open-loop run through PriorityService-wrapped shards. Each shard queue is
// built by `make_queue(threads, shard_seed)`.
template <typename Factory>
ServiceBenchResult run_open_loop_service(Factory&& make_queue,
                                         const ServiceBenchConfig& cfg) {
  const unsigned threads = cfg.producers + cfg.consumers;
  using Q = typename std::decay_t<decltype(*make_queue(threads, cfg.seed))>;
  using Service = PriorityService<Q>;
  ServiceConfig scfg = cfg.service;
  scfg.seed = cfg.seed;
  auto make_service = [&] {
    return std::make_unique<Service>(
        threads, scfg, [&](unsigned shard) {
          return make_queue(threads, thread_seed(cfg.seed, shard));
        });
  };

  ServiceBenchResult result;
  std::vector<std::vector<bench::OpLogEntry>> logs;
  if (cfg.checked) {
    validation::CheckedQueue<Service> checked(threads, make_service());
    Service& service = checked.inner();
    // Service-layer gauges (in_flight, shed, breaker state, shard sizes)
    // feed the telemetry sampler while the run is live; the scope unregisters
    // before the service is destroyed.
    obs::ScopedTelemetryProvider service_gauges(
        [&service](obs::GaugeSet& g) { service.fill_gauges(g); });
    detail::open_loop_run(
        checked, cfg, [&service](std::FILE* out) { service.dump_stats(out); },
        logs, result);
    // reconcile() drains through a service handle, which can still shed
    // expired tasks — harvest stats after it so `shed` covers the drain too.
    const validation::ReconcileReport report = checked.reconcile();
    result.stats = service.stats();
    result.shed = result.stats.shed_deadline;
    // Deadline-shed tasks were accepted and then deliberately dropped, so
    // they appear as `lost` in the diff; conservation holds exactly when
    // every lost item is accounted for by a shed.
    result.conservation_ok = report.duplicated == 0 &&
                             report.fabricated == 0 &&
                             report.lost == result.shed;
    result.conservation_report =
        report.to_string() + " shed=" + std::to_string(result.shed);
    result.drained = report.drained;
  } else {
    auto service = make_service();
    Service& ref = *service;
    obs::ScopedTelemetryProvider service_gauges(
        [&ref](obs::GaugeSet& g) { ref.fill_gauges(g); });
    detail::open_loop_run(
        *service, cfg, [&ref](std::FILE* out) { ref.dump_stats(out); }, logs,
        result);
    service->close();
    result.drained = service->drain([](std::uint64_t, std::uint64_t) {});
    result.stats = service->stats();
    result.shed = result.stats.shed_deadline;
  }
  if (cfg.measure_quality) detail::score_quality(logs, result);
  return result;
}

}  // namespace cpq::service
