// Workload `service`: open-loop Poisson arrivals from P = max(1, T/2)
// producers into PriorityService<GlobalLockQueue> (default ServiceConfig,
// empty prefill), T - P consumers popping continuously. Per round: (1) the
// fixed offered rate of 600k tasks/s, (2) the same traffic against raw
// glock, the differential cell, and (3) in traced runs, a grid of offered
// rates for capacity. Sojourn runs from each task's due time.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "queues.hpp"
#include "queues/globallock.hpp"
#include "service.hpp"
#include "service/priority_service.hpp"

namespace pb {
namespace {

using Glock = cpq::GlobalLockQueue<Key, Value>;
using Service = cpq::service::PriorityService<Glock>;

constexpr double kFixedHz = 600'000.0;
// Seconds per fixed-rate window and per capacity step at --seconds 10,
// before the workload's x2.
constexpr double kFixedS = 0.4;
constexpr double kStepS = 0.15;
// Capacity limits: p99 sojourn, delivered share of offered, and how late
// the generator may run (p99) before an interval does not count as met.
constexpr double kP99LimitUs = 1000.0;
constexpr double kDeliveredShare = 0.99;
constexpr double kLagLimitUs = 100.0;

struct Cell {
  std::vector<double> p50;        // per window
  std::vector<double> p99;        // per interval
  std::vector<double> delivered;  // per window
  // The sojourns of the tasks due in the windows, the last interval (cut
  // off by the stop) left out.
  std::vector<double> settled;

};
Cell g_service, g_raw;
std::vector<double> g_lag_us;           // fixed-rate service windows
std::vector<double> g_submit_ns, g_pop_ns;
std::vector<double> g_p50_traced;  // sojourn p50 of traced windows
std::uint64_t g_tasks = 0, g_flushes = 0, g_refills = 0, g_steals = 0;
std::uint64_t g_polls = 0, g_pops = 0;
std::vector<double> g_insert_fill, g_delete_fill;

unsigned producers_of(unsigned threads) { return std::max(1u, threads / 2); }
// T - P, but at least one: with T = 1 the open loop still needs a consumer.
unsigned consumers_of(unsigned threads) {
  return std::max(1u, threads - producers_of(threads));
}

std::unique_ptr<Service> make_service(unsigned threads, std::uint64_t seed) {
  cpq::service::ServiceConfig cfg;
  cfg.seed = seed;
  return std::make_unique<Service>(threads, cfg, [threads](unsigned) {
    return std::make_unique<Glock>(threads);
  });
}

// One window through the service. With kTrace, submit/pop spans are
// sampled into `cell`.
template <bool kTrace>
OpenLoop service_window(Run& run, const std::vector<Arrivals>& schedule,
                        double seconds, std::uint64_t seed, std::uint32_t cell,
                        cpq::service::ServiceStats* stats = nullptr) {
  const unsigned T = run.opt.threads;
  std::unique_ptr<Service> svc;
  {
    SetupTimer setup(run);
    svc = make_service(T, seed);
  }
  Tracer& tr = run.tracer;
  OpenLoop r = open_loop<kTrace>(
      *svc, schedule, consumers_of(T), seconds,
      [&](auto&& sink) { svc->drain(sink); }, tr, cell, tr.intern("submit"),
      tr.intern("pop"));
  if (stats != nullptr) *stats = svc->stats();
  return r;
}

OpenLoop raw_window(Run& run, const std::vector<Arrivals>& schedule,
                    double seconds) {
  const unsigned T = run.opt.threads;
  Glock queue(T);
  Tracer& tr = run.tracer;
  return open_loop<false>(
      queue, schedule, consumers_of(T), seconds,
      [&](auto&& sink) { drain(queue, sink); }, tr, 0, 0, 0);
}

void audit(Run& run, const OpenLoop& r, const std::string& cell) {
  run.report.attempt(r.submitted);
  run.report.fail(r.failures, cell + ": lost or duplicated tasks");
}

void record(Cell& cell, const OpenLoop& r) {
  cell.p50.push_back(quantile(r.sojourn_us, 0.5));
  for (double p99 : r.sojourn_p99_by_interval) cell.p99.push_back(p99);
  cell.delivered.push_back(static_cast<double>(r.sojourn_us.size()));
  cell.settled.insert(cell.settled.end(), r.settled_sojourn_us.begin(),
                      r.settled_sojourn_us.end());
}

// Offered rates of the capacity grid, tasks/s.
constexpr double kGridHz[] = {600e3, 900e3, 1350e3, 2025e3, 3040e3, 4560e3};
constexpr std::size_t kGrid = std::size(kGridHz);

// Intervals run at each grid rate and how many met the limits, over all
// rounds, and the measured offered rates.
struct GridPoint {
  unsigned met = 0;
  unsigned intervals = 0;
  std::vector<double> offered;
};
GridPoint g_grid[kGrid];

// One pass over the grid: a window at each rate, counting the intervals
// whose p99 sojourn and p99 generator lag both meet their limits (a window
// that delivered too little of its offered load meets none). Stops after a
// rate with no interval met.
void capacity_round(Run& run, double step_s, std::uint64_t seed,
                    std::uint32_t parent) {
  const unsigned P = producers_of(run.opt.threads);
  for (std::size_t g = 0; g < kGrid; ++g) {
    Scope s(run.tracer, "grid_step", parent);
    std::vector<Arrivals> schedule;
    {
      SetupTimer setup(run);
      schedule = poisson_schedule(kGridHz[g], P, step_s, seed + g);
    }
    const OpenLoop r =
        service_window<false>(run, schedule, step_s, seed + g, 0);
    audit(run, r, "service/capacity");
    const bool delivered = r.delivered >= kDeliveredShare * r.submitted;
    unsigned met = 0;
    for (std::size_t k = 0; k < r.sojourn_p99_by_interval.size(); ++k) {
      met += delivered && r.sojourn_p99_by_interval[k] <= kP99LimitUs &&
             r.lag_p99_by_interval[k] <= kLagLimitUs;
    }
    GridPoint& point = g_grid[g];
    point.met += met;
    point.intervals += r.sojourn_p99_by_interval.size();
    point.offered.push_back(r.offered_per_s());
    if (met == 0) break;
  }
}

// Highest offered rate at which the typical interval meets the limits: the
// rate where the met share of intervals crosses one half, interpolated in
// log-rate between the grid's measured offered rates. Rates the ramp never
// reached count as met by no interval.
double capacity_hz() {
  std::printf("# capacity grid (offered ktasks/s: share of intervals met):");
  for (const GridPoint& point : g_grid) {
    if (point.offered.empty()) break;
    std::printf(" %.0f: %u/%u", median(point.offered) / 1e3, point.met,
                point.intervals);
  }
  std::printf("\n");
  double prev_rate = 0.0, prev_share = 1.0;
  for (std::size_t g = 0; g < kGrid; ++g) {
    const GridPoint& point = g_grid[g];
    const double rate =
        point.offered.empty() ? kGridHz[g] : median(point.offered);
    const double share =
        point.intervals == 0 ? 0.0
                             : static_cast<double>(point.met) / point.intervals;
    if (share < 0.5) {
      if (prev_rate == 0.0) return rate * share / 0.5;
      const double t = (prev_share - 0.5) / (prev_share - share);
      return std::exp(std::log(prev_rate) +
                      t * (std::log(rate) - std::log(prev_rate)));
    }
    prev_rate = rate;
    prev_share = share;
  }
  return prev_rate;  // every grid rate met: a lower bound
}

}  // namespace

void run_service_round(Run& run, unsigned round) {
  const unsigned T = run.opt.threads;
  const unsigned P = producers_of(T);
  const std::uint64_t seed = round_seed(run.opt.seed, round) ^ 0x5e41ceULL;
  const double scale = run.opt.scale("service");
  const double window = kFixedS * scale;
  Tracer& tr = run.tracer;
  Scope workload(tr, "service", 0);

  std::vector<Arrivals> fixed;
  {
    SetupTimer setup(run);
    fixed = poisson_schedule(kFixedHz, P, window, seed);
  }
  if (round == 0) {
    run.input_checksums["service.arrivals"] = schedule_checksum(fixed);
  }

  // Fixed rate through the service and against raw glock, in an order
  // alternating by round.
  const bool traced = run.traced(round);
  auto service_cell = [&] {
    Scope cell(tr, traced ? "service/fixed_traced" : "service/fixed",
               workload.index());
    cpq::service::ServiceStats stats;
    OpenLoop r;
    if (traced) {
      r = service_window<true>(run, fixed, window, seed, cell.index(), &stats);
      audit(run, r, "service/fixed");
    } else {
      std::tie(r, stats) = least_stolen(run, [&] {
        std::pair<OpenLoop, cpq::service::ServiceStats> out;
        out.first =
            service_window<false>(run, fixed, window, seed, 0, &out.second);
        audit(run, out.first, "service/fixed");
        return out;
      });
    }
    if (traced) {
      tr.counter("service_flushes", static_cast<double>(stats.flushes));
      tr.counter("service_refills", static_cast<double>(stats.refills));
      tr.counter("service_steals", static_cast<double>(stats.steals));
      g_p50_traced.push_back(quantile(r.sojourn_us, 0.5));
      for (double ns : span_ns(tr, tr.intern("submit"), cell.index())) {
        g_submit_ns.push_back(ns);
      }
      for (double ns : span_ns(tr, tr.intern("pop"), cell.index())) {
        g_pop_ns.push_back(ns);
      }
    } else {
      record(g_service, r);
    }
    g_lag_us.insert(g_lag_us.end(), r.lag_us.begin(), r.lag_us.end());
    g_tasks += stats.submitted;
    g_flushes += stats.flushes;
    g_refills += stats.refills;
    g_steals += stats.steals;
    g_insert_fill.push_back(stats.mean_insert_fill);
    g_delete_fill.push_back(stats.mean_delete_fill);
    g_polls += r.polls;
    g_pops += r.delivered;
  };
  auto raw_cell = [&] {
    Scope cell(tr, "service/raw_glock", workload.index());
    const OpenLoop r = least_stolen(run, [&] {
      OpenLoop out = raw_window(run, fixed, window);
      audit(run, out, "service/raw_glock");
      return out;
    });
    record(g_raw, r);
  };
  if (round % 2 == 0) {
    service_cell();
    raw_cell();
  } else {
    raw_cell();
    service_cell();
  }

  // Capacity is a per-layer metric: on a shared host, stalls fail the p99
  // limit in a third to a half of the intervals at every rate of the grid,
  // so the rate where half of them fail moves too much to bound.
  if (!run.opt.trace) return;
  Scope cell(tr, "service/capacity", workload.index());
  capacity_round(run, kStepS * scale, seed ^ 0xcafe, cell.index());
}

void finish_service(Run& run) {
  Report& r = run.report;
  const auto delivered = [&](const Cell& cell) {
    double n = 0.0;
    for (double d : cell.delivered) n += d;
    return static_cast<std::uint64_t>(n);
  };
  r.set("sojourn_p50_us", "us", median(g_service.p50),
        delivered(g_service));
  // A stall of the shared host spoils the 50 ms intervals it falls in, not
  // the whole window, so the median interval p99 is the typical tail; the
  // pooled p99 keeps every tail event. Both are per layer: hidden host
  // stalls move even the median interval p99 too much to bound it.
  r.set("sojourn_p99_us", "us", median(g_service.p99), g_service.p99.size());
  r.set("service.sojourn_p99_pooled_us", "us",
        quantile(g_service.settled, 0.99), g_service.settled.size());
  if (!run.opt.trace) return;
  unsigned intervals = 0;
  for (const GridPoint& point : g_grid) intervals += point.intervals;
  r.set("capacity_ktasks_s", "ktasks/s", capacity_hz() / 1e3, intervals);
  r.set("trace.overhead_pct.service", "%",
        overhead_pct(g_service.p50, g_p50_traced, false),
        g_p50_traced.size());
  r.set("workloads.arrival_lag_us.p50", "us", quantile(g_lag_us, 0.5),
        g_lag_us.size());
  r.set("workloads.arrival_lag_us.p99", "us", quantile(g_lag_us, 0.99),
        g_lag_us.size());
  r.set("service.raw_sojourn_p50_us", "us", median(g_raw.p50),
        delivered(g_raw));
  r.set("service.raw_sojourn_p99_us", "us", median(g_raw.p99),
        g_raw.p99.size());
  r.set("service.submit_ns.p50", "ns", quantile(g_submit_ns, 0.5),
        g_submit_ns.size());
  r.set("service.submit_ns.p99", "ns", quantile(g_submit_ns, 0.99),
        g_submit_ns.size());
  r.set("service.pop_ns.p50", "ns", quantile(g_pop_ns, 0.5), g_pop_ns.size());
  r.set("service.pop_ns.p99", "ns", quantile(g_pop_ns, 0.99), g_pop_ns.size());
  const double ktasks = static_cast<double>(g_tasks) / 1e3;
  r.set("service.flushes_per_ktask", "1/ktask", g_flushes / ktasks, g_tasks);
  r.set("service.refills_per_ktask", "1/ktask", g_refills / ktasks, g_tasks);
  r.set("service.steal_pct", "%",
        g_refills ? 100.0 * static_cast<double>(g_steals) / g_refills : 0.0,
        g_refills);
  r.set_median("service.insert_fill", "tasks", g_insert_fill);
  r.set_median("service.delete_fill", "tasks", g_delete_fill);
  r.set("service.empty_poll_pct", "%",
        g_polls ? 100.0 * static_cast<double>(g_polls - g_pops) / g_polls : 0.0,
        g_polls);
}

}  // namespace pb
