// --chaos=FILE driver shared by bench_service and cpq_bench_cli: load a
// declarative fault schedule (src/validation/chaos.hpp), run the chaos
// campaign against a PriorityService over a named roster queue, print the
// human-readable report, and emit the machine-readable records through the
// usual JSON sink (CPQ_JSON / --json).
//
// Exit codes (process-level contract, used by CI):
//   0  campaign ran and every assertion held
//   1  campaign ran but failed (conservation / rank bound / recovery)
//   2  usage error: unreadable schedule file, parse error, unknown queue
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "bench_framework/json_out.hpp"
#include "queues/globallock.hpp"
#include "queues/multiqueue.hpp"
#include "validation/chaos.hpp"
#include "validation/chaos_campaign.hpp"

namespace cpq::bench {

namespace detail {

inline std::string chaos_campaign_label(const std::string& path) {
  std::size_t slash = path.find_last_of("/\\");
  std::string stem =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = stem.find_last_of('.');
  if (dot != std::string::npos && dot > 0) stem.resize(dot);
  return "chaos_" + stem;
}

inline void emit_chaos_json(const std::string& label,
                            const std::string& queue_name, unsigned threads,
                            const validation::ChaosCampaignResult& result) {
  JsonSink& sink = JsonSink::instance();
  if (!sink.enabled()) return;
  auto emit = [&](const std::string& metric, double mean, bool ok) {
    JsonRecord record;
    record.experiment = label;
    record.queue = queue_name;
    record.metric = metric;
    record.threads = threads;
    record.mean = mean;
    record.reps = 1;
    record.status = ok ? "ok" : "failed";
    sink.record(record);
  };
  emit("chaos_baseline_p99_ms", result.baseline_p99_ms, true);
  emit("chaos_recovery_threshold_ms", result.recovery_threshold_ms, true);
  emit("chaos_shed_total", static_cast<double>(result.shed), true);
  emit("chaos_conservation_ok", result.conservation_ok ? 1.0 : 0.0,
       result.conservation_ok);
  emit("chaos_rank_violations_outside",
       static_cast<double>(result.rank_violations_outside),
       result.rank_violations_outside == 0);
  for (const validation::ChaosScenarioOutcome& outcome : result.outcomes) {
    // Per-scenario recovery time; a scenario that never recovered emits
    // status "failed" with mean -1 so trajectory tooling can spot it.
    emit("chaos_recovery_ms:" + outcome.name, outcome.recovery_ms,
         outcome.recovery_ms >= 0.0);
    // Informational second opinion from the telemetry plane (first clean
    // SLO snapshot after the clear); only present when the run was sampled
    // with an --slo spec. Prefixed slo_ so bench_compare treats it as
    // informational rather than a gating metric.
    if (outcome.slo_recovery_ms >= 0.0) {
      emit("slo_recovery_ms:" + outcome.name, outcome.slo_recovery_ms, true);
    }
  }
}

}  // namespace detail

// Run the chaos campaign in `schedule_path` over one `queue_name` queue
// ("glock", "mq", or the buffered "mq-eng"). Returns a process exit code
// (see header comment).
inline int run_chaos_from_file(const std::string& schedule_path,
                               const std::string& queue_name,
                               std::uint64_t seed) {
  std::ifstream in(schedule_path);
  if (!in) {
    std::fprintf(stderr, "[chaos] cannot read schedule file '%s'\n",
                 schedule_path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();

  validation::ChaosSchedule schedule;
  std::string error;
  if (!validation::parse_chaos_schedule(text.str(), schedule, error)) {
    std::fprintf(stderr, "[chaos] %s\n", error.c_str());
    return 2;
  }

  const unsigned threads = schedule.producers + schedule.consumers;
  std::printf("# chaos: campaign %s queue=%s scenarios=%zu duration=%.2fs\n",
              schedule_path.c_str(), queue_name.c_str(),
              schedule.scenarios.size(), schedule.duration_s);

  using Mq = MultiQueue<std::uint64_t, std::uint64_t>;
  validation::ChaosCampaignResult result;
  if (queue_name == "glock") {
    result = validation::run_chaos_campaign(
        schedule, seed, [threads](unsigned) {
          return std::make_unique<GlobalLockQueue<std::uint64_t,
                                                  std::uint64_t>>(threads);
        });
  } else if (queue_name == "mq") {
    result = validation::run_chaos_campaign(
        schedule, seed, [threads, seed](unsigned) {
          return std::make_unique<Mq>(threads, 4, seed);
        });
  } else if (queue_name == "mq-eng") {
    result = validation::run_chaos_campaign(
        schedule, seed, [threads, seed](unsigned) {
          return std::make_unique<Mq>(threads, MqEngConfig{}, seed);
        });
  } else {
    std::fprintf(stderr,
                 "[chaos] unknown queue '%s' (chaos roster: glock, mq, "
                 "mq-eng)\n",
                 queue_name.c_str());
    return 2;
  }

  validation::print_chaos_result(stdout, result);
  detail::emit_chaos_json(detail::chaos_campaign_label(schedule_path),
                          queue_name, threads, result);
  if (!result.ok()) {
    std::fprintf(stderr, "[chaos] campaign FAILED (%s%s%s)\n",
                 result.conservation_ok ? "" : "conservation ",
                 result.rank_violations_outside == 0 ? "" : "rank-bound ",
                 result.recovered() ? "" : "recovery");
    return 1;
  }
  std::printf("# chaos: campaign OK\n");
  return 0;
}

}  // namespace cpq::bench
