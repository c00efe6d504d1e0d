// ChaosCampaign: execute a declarative fault schedule (chaos.hpp) against a
// live PriorityService and measure what the resilience layer promises.
//
// The runner drives an open-loop Poisson workload (producers submit through
// CheckedQueue so conservation is audited end-to-end; consumers record
// per-window sojourn-latency histograms) while a controller thread walks the
// schedule, applying and clearing faults at their offsets:
//
//   stall                 -> PriorityService::chaos_stall
//   inject / inject_throw -> fault_injection_configure over the
//                            CPQ_INJECT seams (site-filtered)
//
// After the run it asserts the three properties the overload work is about:
//
//   conservation  every accepted task was delivered, recovered by the final
//                 drain, or shed through the shed sink — lost must equal
//                 shed exactly, duplicated/fabricated must be zero.
//   rank error    RankEstimator violations against schedule.rank_bound are
//                 attributed per fault window (plus rank_grace_s of
//                 after-clear drain); violations OUTSIDE every window fail.
//   recovery      per scenario, the time from fault clear until the first
//                 clean window whose sojourn p99 returns within
//                 recovery_factor x the fault-free baseline p99 (or under
//                 recovery_floor_ms). A scenario that never recovers
//                 reports recovery_ms = -1 and fails the campaign.
//
// Overlapping scenarios of one kind do not compose (the stall and the
// injection configuration are global — the last clear wins), so keep such
// windows disjoint in schedules.
//
// The runner is deliberately bench-framework-free (histograms, watchdog,
// service, estimator only), so fault-injected test binaries can link it
// without pulling queue template instantiations in from registry.cpp and
// tripping the ODR constraint documented in tests/CMakeLists.txt.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/rank_estimator.hpp"
#include "obs/timeseries.hpp"
#include "platform/rng.hpp"
#include "platform/thread_util.hpp"
#include "service/priority_service.hpp"
#include "validation/chaos.hpp"
#include "validation/checked_queue.hpp"
#include "validation/fault_injection.hpp"
#include "validation/watchdog.hpp"
#include "workloads/distributions.hpp"

namespace cpq::validation {

struct ChaosScenarioOutcome {
  std::string name;
  std::string kind;
  double start_s = 0.0;
  double clear_s = 0.0;
  // Fault actually exercised. False only for inject* scenarios in a binary
  // built without CPQ_FAULT_INJECTION — reported, never silently dropped.
  bool applied = false;
  double recovery_ms = -1.0;  // -1 = p99 never came back within bounds
  double fault_p99_ms = 0.0;  // sojourn p99 over the fault window
  std::uint64_t rank_violations = 0;  // attributed to this fault's bracket
  // Independent recovery measurement from the telemetry plane: time from
  // fault clear to the first sampled snapshot with every SLO objective
  // clean (slo_breached mask == 0). -1 when the plane was not sampling
  // with an --slo spec, or when no clean snapshot followed the clear.
  // Informational — never part of ok().
  double slo_recovery_ms = -1.0;
};

struct ChaosCampaignResult {
  double baseline_p99_ms = 0.0;
  double recovery_threshold_ms = 0.0;
  std::vector<ChaosScenarioOutcome> outcomes;

  std::uint64_t submitted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t drained = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t submit_faults = 0;  // injected submit exceptions survived

  bool conservation_ok = false;
  std::string conservation;  // reconcile report + shed accounting

  double rank_bound = 0.0;
  std::uint64_t rank_samples = 0;
  std::uint64_t rank_violations_total = 0;
  std::uint64_t rank_violations_outside = 0;

  bool recovered() const noexcept {
    for (const ChaosScenarioOutcome& o : outcomes) {
      if (o.recovery_ms < 0.0) return false;
    }
    return true;
  }

  bool ok() const noexcept {
    return conservation_ok && rank_violations_outside == 0 && recovered();
  }
};

namespace detail {

// Harness item-id convention (bench_framework/harness.hpp): producer thread
// and per-thread counter packed into the value, unique across the run.
inline constexpr std::uint64_t chaos_item_id(unsigned tid,
                                             std::uint64_t counter) noexcept {
  return ((static_cast<std::uint64_t>(tid) + 1) << 40) | counter;
}

}  // namespace detail

// Run `schedule` against a service over the queue built by
// `make_queue(0u) -> std::unique_ptr<Q>`. The queue value type must satisfy
// the deadline-envelope constraint (unsigned 64-bit) because the runner
// packs item ids into values.
template <typename MakeQueue>
auto run_chaos_campaign(const ChaosSchedule& schedule, std::uint64_t seed,
                        MakeQueue&& make_queue, bool pin_threads = false)
    -> ChaosCampaignResult {
  using Q = typename decltype(make_queue(0u))::element_type;
  using Service = service::PriorityService<Q>;
  using Checked = CheckedQueue<Service>;

  ChaosCampaignResult result;
  const unsigned producers = schedule.producers;
  const unsigned consumers = schedule.consumers;
  const unsigned workers = producers + consumers;

  service::ServiceConfig scfg;
  scfg.max_in_flight = schedule.max_in_flight;
  scfg.policy = schedule.policy == "tiered"
                    ? service::AdmissionPolicy::kTiered
                    : service::AdmissionPolicy::kReject;
  scfg.tier_key_space = schedule.key_space;
  scfg.ttl_us = schedule.ttl_us;

  auto owned = std::make_unique<Service>(workers, scfg, make_queue);
  Service* svc = owned.get();
  Checked checked(workers, std::move(owned));

  std::atomic<std::uint64_t> shed_count{0};
  svc->set_shed_sink([&shed_count](std::uint64_t, std::uint64_t) {
    shed_count.fetch_add(1, std::memory_order_relaxed);
  });

  const bool rank_on = schedule.rank_bound > 0.0;
  constexpr unsigned kSamplePeriod = 64;
  if (rank_on) {
    obs::RankEstimator::global().enable(schedule.rank_bound,
                                        /*hard_bound=*/true, kSamplePeriod);
  }

  // Per-producer submit timestamps, indexed by the id's counter field;
  // written before the queue insert and read after the matching delete, so
  // the queue's own synchronization orders them.
  const std::uint64_t per_producer_cap = static_cast<std::uint64_t>(
      schedule.arrival_hz * schedule.duration_s * 2.0 + 4096.0);
  std::vector<std::vector<std::uint64_t>> stamps(producers);
  for (auto& v : stamps) v.resize(per_producer_cap, 0);

  // Per-consumer, per-window sojourn histograms (merged after the join).
  const double window_us = schedule.window_ms * 1000.0;
  const std::size_t n_windows =
      static_cast<std::size_t>(schedule.duration_s * 1000.0 /
                               schedule.window_ms) +
      2;
  std::vector<std::vector<obs::LogHistogram>> windows(consumers);
  for (auto& v : windows) v.resize(n_windows);

  std::vector<WorkerProgress> progress(workers);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> submit_faults{0};
  // Campaign zero on the shared monotonic-ns timeline (set by the
  // controller at barrier release) — anchors schedule offsets to telemetry
  // record timestamps for the SLO-recovery scan below.
  std::atomic<std::uint64_t> campaign_t0_ns{0};
  SpinBarrier barrier(workers + 1);
  const std::uint64_t duration_us =
      static_cast<std::uint64_t>(schedule.duration_s * 1e6);

  Watchdog watchdog("chaos-campaign", progress.data(), workers,
                    watchdog_deadline(-1.0),
                    [svc](std::FILE* out) { svc->dump_stats(out); });

  // Scenario brackets for rank-violation attribution: a fault owns the
  // violations scored from its start until rank_grace_s after its clear.
  struct Bracket {
    double t;
    std::size_t scenario;
    enum class Kind { kApply, kClear, kBracketEnd } kind;
  };
  std::vector<Bracket> timeline;
  for (std::size_t i = 0; i < schedule.scenarios.size(); ++i) {
    const ChaosScenario& sc = schedule.scenarios[i];
    timeline.push_back({sc.start_s, i, Bracket::Kind::kApply});
    timeline.push_back({sc.clear_s(), i, Bracket::Kind::kClear});
    timeline.push_back(
        {sc.clear_s() + schedule.rank_grace_s, i, Bracket::Kind::kBracketEnd});
  }
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const Bracket& a, const Bracket& b) { return a.t < b.t; });

  result.outcomes.resize(schedule.scenarios.size());
  for (std::size_t i = 0; i < schedule.scenarios.size(); ++i) {
    const ChaosScenario& sc = schedule.scenarios[i];
    result.outcomes[i].name = sc.name;
    result.outcomes[i].kind = chaos_fault_kind_name(sc.kind);
    result.outcomes[i].start_s = sc.start_s;
    result.outcomes[i].clear_s = sc.clear_s();
  }

  auto apply_fault = [&](const ChaosScenario& sc) -> bool {
    switch (sc.kind) {
      case ChaosFaultKind::kStall:
        svc->chaos_stall(sc.stall_us);
        return true;
      case ChaosFaultKind::kInject:
      case ChaosFaultKind::kInjectThrow:
#if defined(CPQ_FAULT_INJECTION)
        fault_injection_configure(
            sc.ppm, seed,
            sc.kind == ChaosFaultKind::kInjectThrow ? FaultAction::kThrow
                                                    : FaultAction::kDelay,
            sc.site.empty() ? nullptr : sc.site.c_str());
        return true;
#else
        std::fprintf(stderr,
                     "[chaos] scenario '%s': fault injection not compiled "
                     "in, fault is inert\n",
                     sc.name.c_str());
        return false;
#endif
    }
    return false;
  };
  auto clear_fault = [&](const ChaosScenario& sc) {
    switch (sc.kind) {
      case ChaosFaultKind::kStall:
        svc->chaos_stall(0);
        break;
      case ChaosFaultKind::kInject:
      case ChaosFaultKind::kInjectThrow:
#if defined(CPQ_FAULT_INJECTION)
        fault_injection_configure(0, seed);
#endif
        break;
    }
  };

  std::uint64_t violations_before_stop = 0;
  run_team(
      workers + 1,
      [&](unsigned tid) {
        if (tid == workers) {
          // ---- controller: walk the fault timeline ----
          barrier.arrive_and_wait();
          const auto t0 = std::chrono::steady_clock::now();
          campaign_t0_ns.store(
              static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      t0.time_since_epoch())
                      .count()),
              std::memory_order_relaxed);
          std::uint64_t last_violations = 0;
          unsigned open_brackets = 0;
          auto note_violations = [&](std::size_t owner) {
            if (!rank_on) return;
            const std::uint64_t v =
                obs::RankEstimator::global().snapshot().violations;
            if (open_brackets > 0 && owner != schedule.scenarios.size()) {
              result.outcomes[owner].rank_violations += v - last_violations;
            }
            last_violations = v;
          };
          for (const Bracket& event : timeline) {
            std::this_thread::sleep_until(
                t0 + std::chrono::duration<double>(event.t));
            const ChaosScenario& sc = schedule.scenarios[event.scenario];
            switch (event.kind) {
              case Bracket::Kind::kApply:
                // Violations scored before this fault belong to whichever
                // bracket (if any) was already open; credit them there by
                // reading the counter, then open ours.
                note_violations(event.scenario);
                ++open_brackets;
                result.outcomes[event.scenario].applied = apply_fault(sc);
                break;
              case Bracket::Kind::kClear:
                clear_fault(sc);
                break;
              case Bracket::Kind::kBracketEnd:
                note_violations(event.scenario);
                --open_brackets;
                break;
            }
          }
          std::this_thread::sleep_until(
              t0 + std::chrono::duration<double>(schedule.duration_s));
          if (rank_on) {
            violations_before_stop =
                obs::RankEstimator::global().snapshot().violations;
            // Anything scored after the last bracket closed and before the
            // stop is outside every fault window.
            (void)last_violations;
          }
          stop.store(true, std::memory_order_release);
          return;
        }
        if (pin_threads) pin_to_core(tid);
        auto handle = checked.get_handle(tid);
        Xoroshiro128 rng(thread_seed(seed ^ 0xc4a05, tid));
        std::uint64_t ops = 0;
        barrier.arrive_and_wait();
        const std::uint64_t start_us = service::steady_now_us();
        const std::uint64_t end_us = start_us + duration_us;
        if (tid < producers) {
          // ---- open-loop Poisson producer ----
          const double mean_gap_us = 1e6 / schedule.arrival_hz;
          double next_due = static_cast<double>(start_us);
          std::uint64_t counter = 0;
          std::uint64_t faults = 0;
          std::vector<std::uint64_t>& ts = stamps[tid];
          // Optional hotspot skew: faults then hammer a popular key range
          // at the delete_min end instead of a uniform keyspace.
          std::optional<workloads::HotspotSampler> hotspot;
          if (schedule.hot_keys > 0.0) {
            hotspot.emplace(schedule.key_space, schedule.hot_ops,
                            schedule.hot_keys);
          }
          for (;;) {
            const std::uint64_t now = service::steady_now_us();
            if (now >= end_us || counter >= per_producer_cap) break;
            if (static_cast<double>(now) < next_due) {
              const double wait = next_due - static_cast<double>(now);
              if (wait > 100.0) {
                std::this_thread::sleep_for(std::chrono::microseconds(
                    static_cast<std::uint64_t>(wait)));
              } else {
                cpu_relax();
              }
              continue;
            }
            const std::uint64_t key = hotspot
                                          ? hotspot->next(rng)
                                          : rng.next_below(schedule.key_space);
            const std::uint64_t id = detail::chaos_item_id(tid, counter);
            ts[counter] = now;
            bool accepted = false;
            try {
              accepted = handle.try_submit(key, id);
            } catch (const std::exception&) {
              ++faults;  // injected submit fault: task was never accepted
            }
            if (accepted) {
              if (rank_on && (counter % kSamplePeriod) == 0) {
                obs::RankEstimator::global().observe_insert(key);
              }
            }
            ++counter;
            next_due += -std::log(1.0 - rng.next_double()) * mean_gap_us;
            progress[tid].tick(++ops, LastOp::kInsert);
          }
          submit_faults.fetch_add(faults, std::memory_order_relaxed);
          return;
        }
        // ---- consumer ----
        std::vector<obs::LogHistogram>& wins = windows[tid - producers];
        std::uint64_t deliveries = 0;
        while (!stop.load(std::memory_order_acquire)) {
          std::uint64_t key = 0;
          std::uint64_t id = 0;
          bool hit = false;
          try {
            hit = handle.delete_min(key, id);
          } catch (const std::exception&) {
            hit = false;  // injected delete fault: nothing was popped
          }
          const std::uint64_t now = service::steady_now_us();
          if (hit) {
            const unsigned src = static_cast<unsigned>((id >> 40) - 1);
            const std::uint64_t counter = id & ((std::uint64_t{1} << 40) - 1);
            std::uint64_t sojourn = 1;
            if (src < producers && counter < per_producer_cap) {
              const std::uint64_t submitted_at = stamps[src][counter];
              sojourn = now > submitted_at ? now - submitted_at : 1;
            }
            std::size_t w = static_cast<std::size_t>(
                static_cast<double>(now - start_us) / window_us);
            if (w >= n_windows) w = n_windows - 1;
            wins[w].record(sojourn);
            ++deliveries;
            if (rank_on && (deliveries % kSamplePeriod) == 0) {
              obs::RankEstimator::global().observe_delete(key);
            }
            progress[tid].tick(++ops, LastOp::kDeleteHit);
          } else {
            std::this_thread::sleep_for(std::chrono::microseconds(20));
            progress[tid].tick(++ops, LastOp::kDeleteEmpty);
          }
        }
      },
      /*pin=*/false);
  watchdog.stop();

  // Defensive: no fault outlives the run, whatever the schedule said.
  svc->chaos_stall(0);
#if defined(CPQ_FAULT_INJECTION)
  fault_injection_configure(0, seed);
#endif

  svc->close();
  const ReconcileReport report = checked.reconcile();
  const std::uint64_t shed_total = shed_count.load(std::memory_order_relaxed);
  // Shed tasks were accepted but intentionally never delivered: the diff
  // reports them as lost, and every lost item must be accounted for by the
  // shed sink — no more, no fewer.
  result.conservation_ok = report.duplicated == 0 && report.fabricated == 0 &&
                           report.lost == shed_total;
  result.conservation =
      report.to_string() + " shed=" + std::to_string(shed_total);
  result.drained = report.drained;
  result.shed = shed_total;
  result.submit_faults = submit_faults.load(std::memory_order_relaxed);

  const service::ServiceStats stats = svc->stats();
  result.submitted = stats.submitted;
  result.delivered = stats.delivered;
  result.rejected = stats.rejected;

  if (rank_on) {
    const obs::RankEstimator::Snapshot snap =
        obs::RankEstimator::global().snapshot();
    obs::RankEstimator::global().disable();
    result.rank_bound = schedule.rank_bound;
    result.rank_samples = snap.samples;
    // The reconcile drain above is not traced, so the counter is frozen at
    // its value when the workers stopped.
    result.rank_violations_total = snap.violations;
    std::uint64_t inside = 0;
    for (const ChaosScenarioOutcome& o : result.outcomes) {
      inside += o.rank_violations;
    }
    result.rank_violations_outside =
        result.rank_violations_total >= inside
            ? result.rank_violations_total - inside
            : 0;
    (void)violations_before_stop;
  }

  // ---- merge windows and score recovery ----
  std::vector<obs::LogHistogram> merged(n_windows);
  for (const auto& per_consumer : windows) {
    for (std::size_t w = 0; w < n_windows; ++w) {
      merged[w].merge(per_consumer[w]);
    }
  }
  const double window_s = schedule.window_ms / 1000.0;
  obs::LogHistogram baseline;
  for (std::size_t w = 0; w < n_windows; ++w) {
    if (static_cast<double>(w + 1) * window_s <= schedule.baseline_s) {
      baseline.merge(merged[w]);
    }
  }
  result.baseline_p99_ms =
      static_cast<double>(baseline.quantile(0.99)) / 1000.0;
  result.recovery_threshold_ms =
      std::max(schedule.recovery_factor * result.baseline_p99_ms,
               schedule.recovery_floor_ms);

  auto in_any_fault_window = [&](double lo_s, double hi_s) {
    for (const ChaosScenario& sc : schedule.scenarios) {
      if (lo_s < sc.clear_s() && hi_s > sc.start_s) return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < schedule.scenarios.size(); ++i) {
    const ChaosScenario& sc = schedule.scenarios[i];
    ChaosScenarioOutcome& outcome = result.outcomes[i];
    obs::LogHistogram fault_hist;
    for (std::size_t w = 0; w < n_windows; ++w) {
      const double lo = static_cast<double>(w) * window_s;
      const double hi = lo + window_s;
      if (lo < sc.clear_s() && hi > sc.start_s) fault_hist.merge(merged[w]);
    }
    outcome.fault_p99_ms =
        static_cast<double>(fault_hist.quantile(0.99)) / 1000.0;
    for (std::size_t w = 0; w < n_windows; ++w) {
      const double lo = static_cast<double>(w) * window_s;
      const double hi = lo + window_s;
      if (lo < sc.clear_s()) continue;           // not past this fault yet
      if (hi > schedule.duration_s) break;       // truncated tail window
      if (in_any_fault_window(lo, hi)) continue; // some other fault active
      if (merged[w].count() == 0) continue;      // nothing delivered: opaque
      const double p99_ms =
          static_cast<double>(merged[w].quantile(0.99)) / 1000.0;
      if (p99_ms <= result.recovery_threshold_ms) {
        outcome.recovery_ms = (hi - sc.clear_s()) * 1000.0;
        break;
      }
    }
  }

  // ---- measured SLO recovery from the telemetry plane ----
  // When the run was sampled with an --slo spec, score each scenario a
  // second, independent recovery time: the gap from fault clear to the
  // first telemetry snapshot whose per-sample violation mask is clean.
  // Record timestamps and steady_now_us() share the monotonic timeline
  // (platform/clock.hpp); the TSC extrapolation error over a campaign is
  // well under one sampling interval.
  {
    obs::TelemetryPlane& plane = obs::TelemetryPlane::global();
    const std::uint64_t anchor =
        campaign_t0_ns.load(std::memory_order_relaxed);
    if (anchor != 0 && plane.slo_configured() && plane.sample_count() > 0) {
      for (std::size_t i = 0; i < schedule.scenarios.size(); ++i) {
        const std::uint64_t clear_ns =
            anchor + static_cast<std::uint64_t>(
                         schedule.scenarios[i].clear_s() * 1e9);
        double rec = -1.0;
        plane.visit_records([&](const obs::TelemetryRecord& r) {
          if (rec >= 0.0 || r.t_ns < clear_ns) return;
          if (r.slo_breached == 0) {
            rec = static_cast<double>(r.t_ns - clear_ns) / 1e6;
          }
        });
        result.outcomes[i].slo_recovery_ms = rec;
      }
    }
  }
  return result;
}

// One-line-per-scenario human-readable campaign report.
inline void print_chaos_result(std::FILE* out,
                               const ChaosCampaignResult& result) {
  std::fprintf(out,
               "# chaos: baseline_p99=%.3fms threshold=%.3fms submitted=%llu "
               "delivered=%llu drained=%llu shed=%llu rejected=%llu "
               "submit_faults=%llu\n",
               result.baseline_p99_ms, result.recovery_threshold_ms,
               static_cast<unsigned long long>(result.submitted),
               static_cast<unsigned long long>(result.delivered),
               static_cast<unsigned long long>(result.drained),
               static_cast<unsigned long long>(result.shed),
               static_cast<unsigned long long>(result.rejected),
               static_cast<unsigned long long>(result.submit_faults));
  std::fprintf(out, "# chaos: conservation %s (%s)\n",
               result.conservation_ok ? "OK" : "VIOLATED",
               result.conservation.c_str());
  if (result.rank_bound > 0.0) {
    std::fprintf(out,
                 "# chaos: rank bound=%.0f samples=%llu violations=%llu "
                 "(outside fault windows: %llu)\n",
                 result.rank_bound,
                 static_cast<unsigned long long>(result.rank_samples),
                 static_cast<unsigned long long>(result.rank_violations_total),
                 static_cast<unsigned long long>(
                     result.rank_violations_outside));
  }
  for (const ChaosScenarioOutcome& o : result.outcomes) {
    char slo_buf[48] = "";
    if (o.slo_recovery_ms >= 0.0) {
      std::snprintf(slo_buf, sizeof(slo_buf), " slo_recovery=%.0fms",
                    o.slo_recovery_ms);
    }
    std::fprintf(out,
                 "# chaos:   %-20s %-12s [%.2fs..%.2fs]%s fault_p99=%.3fms "
                 "recovery=%s%s\n",
                 o.name.c_str(), o.kind.c_str(), o.start_s, o.clear_s,
                 o.applied ? "" : " (inert)", o.fault_p99_ms,
                 o.recovery_ms >= 0.0
                     ? (std::to_string(o.recovery_ms) + "ms").c_str()
                     : "NEVER",
                 slo_buf);
  }
}

}  // namespace cpq::validation
