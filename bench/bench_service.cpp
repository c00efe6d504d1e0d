// bench_service — open-loop task-dispatch benchmark for the PriorityService
// layer (src/service/priority_service.hpp).
//
// A Poisson client simulator offers tasks to each queue twice: once through
// raw queue handles, once through a PriorityService over that queue. Each
// thread-ladder entry is split into producers (open-loop submitters whose
// arrival schedule is independent of completions) and consumers (dequeue
// loops). Reported per cell: delivered tasks/s, the median completion-rank
// error, delete_min latency, and the overload picture — sojourn p99 plus
// the shed count — raw -> service per queue.
//
// Env knobs on top of the usual CPQ_* set:
//   CPQ_ARRIVAL_HZ       offered load per producer (tasks/s, 0 = closed loop)
//   CPQ_CHECKED=1        wrap every queue in validation::CheckedQueue and
//                        fail (exit 1) on any conservation violation —
//                        combine with a -DCPQ_FAULT_INJECTION=ON build and
//                        CPQ_INJECT_PPM to torture the service end to end
//   CPQ_TTL_US           task time-to-live; expired tasks are shed at pop
//   CPQ_MAX_IN_FLIGHT    admission bound (0 = unbounded)
//   CPQ_POLICY           block | reject | tiered (admission under pressure)
//   CPQ_TIERS            priority tiers for the tiered policy (default 4)
//   CPQ_RETRY_LIMIT      submit_with_retry attempt cap
//
// Chaos mode:
//   bench_service --chaos=FILE [--queue=glock|mq|mq-eng]
// runs the declarative fault campaign in FILE (see src/validation/chaos.hpp
// for the format) instead of the sweep, and exits 0/1/2 per
// bench/chaos_driver.hpp.
//
// Telemetry flags (shared with cpq_bench_cli; see bench/telemetry_cli.hpp):
//   --telemetry-hz=HZ --timeseries-out=FILE --prom-out=FILE --slo=SPEC
// sample live service metrics on a background thread during the sweep or
// chaos campaign; the dependent flags exit 2 without --telemetry-hz > 0.
// Chaos campaigns sampled with --slo additionally report a measured
// slo_recovery_ms per scenario.

#include <cstdlib>
#include <cstring>

#include "bench_common.hpp"
#include "chaos_driver.hpp"
#include "telemetry_cli.hpp"

int main(int argc, char** argv) {
  using namespace cpq::bench;
  using namespace cpq::workloads;

  std::string chaos_file;
  std::string chaos_queue = "mq";
  TelemetryCliOptions telemetry;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const int telemetry_parse =
        parse_telemetry_flag(arg, "bench_service", telemetry);
    if (telemetry_parse == 2) return 2;
    if (telemetry_parse == 1) continue;
    if (std::strncmp(arg, "--chaos=", 8) == 0) {
      chaos_file = arg + 8;
    } else if (std::strncmp(arg, "--queue=", 8) == 0) {
      chaos_queue = arg + 8;
    } else {
      std::fprintf(stderr,
                   "usage: bench_service "
                   "[--chaos=FILE [--queue=glock|mq|mq-eng]]\n"
                   "                     [--telemetry-hz=HZ] "
                   "[--timeseries-out=FILE]\n"
                   "                     [--prom-out=FILE] [--slo=SPEC]\n");
      return 2;
    }
  }
  if (const int rc = validate_telemetry_options(telemetry, "bench_service")) {
    return rc;
  }

  const Options options = options_from_env();
  if (!chaos_file.empty()) {
    telemetry_begin(telemetry);
    const int chaos_rc =
        run_chaos_from_file(chaos_file, chaos_queue, options.seed);
    const int telemetry_rc =
        telemetry_finish(telemetry, "chaos", "bench_service");
    return chaos_rc != 0 ? chaos_rc : telemetry_rc;
  }

  print_bench_header("bench_service",
                     "open-loop Poisson dispatch, raw vs PriorityService",
                     options);

  cpq::service::ServiceBenchConfig cfg;
  cfg.duration_s = options.duration_s;
  cfg.prefill = options.prefill;
  cfg.keys = KeyConfig::uniform(32);
  cfg.seed = options.seed;
  if (const char* hz = std::getenv("CPQ_ARRIVAL_HZ")) {
    cfg.arrival_hz = std::atof(hz);
    if (cfg.arrival_hz < 0.0) cfg.arrival_hz = 0.0;
  }
  if (const char* checked = std::getenv("CPQ_CHECKED")) {
    cfg.checked = checked[0] != '\0' && checked[0] != '0';
  }
  if (const char* ttl = std::getenv("CPQ_TTL_US")) {
    cfg.service.ttl_us = std::strtoull(ttl, nullptr, 10);
  }
  if (const char* mif = std::getenv("CPQ_MAX_IN_FLIGHT")) {
    cfg.service.max_in_flight = std::strtoull(mif, nullptr, 10);
  }
  if (const char* policy = std::getenv("CPQ_POLICY")) {
    if (std::strcmp(policy, "block") == 0) {
      cfg.service.policy = cpq::service::AdmissionPolicy::kBlock;
    } else if (std::strcmp(policy, "reject") == 0) {
      cfg.service.policy = cpq::service::AdmissionPolicy::kReject;
    } else if (std::strcmp(policy, "tiered") == 0) {
      cfg.service.policy = cpq::service::AdmissionPolicy::kTiered;
    } else {
      std::fprintf(stderr,
                   "CPQ_POLICY must be block, reject, or tiered (got %s)\n",
                   policy);
      return 2;
    }
  }
  if (const char* tiers = std::getenv("CPQ_TIERS")) {
    cfg.service.tiers =
        static_cast<unsigned>(std::strtoul(tiers, nullptr, 10));
  }
  if (const char* retries = std::getenv("CPQ_RETRY_LIMIT")) {
    cfg.service.retry_limit =
        static_cast<unsigned>(std::strtoul(retries, nullptr, 10));
  }

  telemetry_begin(telemetry);
  int rc = service_table("service", cfg, options, roster_from_env()) ? 0 : 1;
  if (telemetry_finish(telemetry, "service", "bench_service") != 0 &&
      rc == 0) {
    rc = 1;
  }
  return rc;
}
