// cpq_bench_cli — the parameterizable benchmark driver (paper §F wish list,
// in the spirit of Gramoli's Synchrobench).
//
// Every orthogonal parameter the paper enumerates is a flag:
//
//   --queues=glock,linden,…   roster (default: the paper's seven)
//   --workload=uniform|split|alternating|batch|pcsplit
//   --batch=N                 operation batch size (implies --workload=batch)
//   --keys=uniform32|uniform16|uniform8|ascending|descending|hold
//             |zipf:THETA[,BITS]|hotspot:OPS,KEYS[,BITS]|dijkstra:MIN,MAX
//   --key-dist=SPEC           alias for --keys (workload-subsystem spelling)
//   --producer-fraction=F     fraction of threads that insert (pcsplit)
//   --arrivals=closed|poisson:HZ|mmpp:HZ_ON,HZ_OFF,ON_MS,OFF_MS
//                             open-loop arrival pacing per worker thread
//                             (throughput mode; default closed loop)
//   --interleave              run all queues in one process, one repetition
//                             at a time in shuffled order, and report the
//                             per-queue layout_* spread (throughput mode)
//   --perturb-layout          randomize heap layout between repetitions and
//                             shuffle prefill insertion order
//   --insert-fraction=0.5     operation distribution (uniform workload)
//   --prefill=100000
//   --threads=1,2,4,8         thread ladder
//   --ms=60                   throughput window  (throughput mode)
//   --ops=20000               ops per thread     (quality/latency modes)
//   --reps=3
//   --seed=42
//   --mode=throughput|quality|latency|sort|service
//   --mq-c=N                  engineered-MultiQueue queues per thread
//                             (mq-buf/mq-sticky/mq-eng; 1..64, default 4;
//                             the paper's mq stays pinned at c=4)
//   --mq-sticky=N             sticky round length (1..4096, default 8)
//   --mq-buf=N                insertion/deletion buffer capacity
//                             (0..1024, default 16)
//   --arrival-hz=N            offered load per producer (service mode;
//                             0 = closed loop)
//   --checked                 wrap service-mode queues in CheckedQueue
//   --json[=path]             append JSON-lines records (default stdout)
//   --metrics                 report metrics-registry counters, live
//                             rank-error estimates, and hardware perf
//                             counters per cell (latency mode also prints
//                             histograms)
//   --trace-out=FILE          write the sampled op-trace rings as Chrome
//                             trace-event JSON (chrome://tracing, Perfetto)
//                             at run end; with --telemetry-hz the telemetry
//                             snapshots ride along as ph:"C" counter tracks
//   --telemetry-hz=HZ         sample live metrics at HZ on a background
//                             thread (default 0 = off, zero overhead)
//   --timeseries-out=FILE     write the telemetry samples as JSON Lines
//                             (schema v4; needs --telemetry-hz)
//   --prom-out=FILE           Prometheus-style text dump of final totals
//                             (needs --telemetry-hz)
//   --slo=SPEC                per-sample objectives with burn-rate breach
//                             tracking, e.g. p99_sojourn_us<500,shed_pct<1
//                             (grammar: src/obs/slo.hpp; needs
//                             --telemetry-hz)
//   --dump-traces             dump the op-trace rings to stderr at normal
//                             run end (the watchdog already dumps on stall)
//   --force-stall             deliberately trip the progress watchdog and
//                             exit 86 (exercises the stall-dump path)
//   --chaos=FILE              run the declarative chaos campaign in FILE
//                             against a PriorityService (--queues picks its
//                             queue: glock, mq or mq-eng, default mq) and exit
//                             0 ok / 1 assertions failed / 2 usage — see
//                             src/validation/chaos.hpp for the file format
//   --list                    print queues and benchmark modes, then exit
//
// Defaults reproduce a quick Fig.-1-style run. CPQ_* environment variables
// seed the defaults, flags override. Unknown flags and malformed values
// exit with status 2 before any measurement starts. A benchmark cell whose
// repetitions all failed renders as "failed" and makes the process exit 1.

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bench_framework/latency.hpp"
#include "chaos_driver.hpp"
#include "obs/chrome_trace.hpp"
#include "telemetry_cli.hpp"
#include "workloads/spec.hpp"

namespace {

using namespace cpq::bench;

using namespace cpq::workloads;

bool parse_flag(const char* arg, const char* name, std::string& value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    value.assign(arg + len + 1);
    return true;
  }
  return false;
}

// Strict numeric parsing: the whole value must be consumed, so typos like
// "--reps=3x" or "--prefill=" fail loudly instead of silently becoming 3/0.
bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const std::uint64_t value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  if (text[0] == '-') return false;  // strtoull silently wraps negatives
  out = value;
  return true;
}

bool parse_double(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  out = value;
  return true;
}

int bad_value(const char* flag, const std::string& value, const char* want) {
  std::fprintf(stderr, "cpq_bench_cli: invalid value for %s: '%s' (%s)\n",
               flag, value.c_str(), want);
  return 2;
}

KeyConfig parse_keys(const std::string& text, bool& ok) {
  // One grammar for --keys and --key-dist, shared with bench_skew and the
  // tests: src/workloads/spec.hpp is the single source of truth for which
  // specs (and which parameter ranges) the harness accepts.
  const auto parsed = cpq::workloads::parse_key_spec(text);
  ok = parsed.has_value();
  return parsed.value_or(KeyConfig::uniform(32));
}

Workload parse_workload(const std::string& text, bool& ok) {
  ok = true;
  if (text == "uniform") return Workload::kUniform;
  if (text == "split") return Workload::kSplit;
  if (text == "alternating") return Workload::kAlternating;
  if (text == "batch") return Workload::kBatch;
  if (text == "pcsplit") return Workload::kPcSplit;
  ok = false;
  return Workload::kUniform;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--queues=a,b] [--workload=W] [--keys=K]\n"
               "          [--key-dist=K] [--producer-fraction=F]\n"
               "          [--arrivals=closed|poisson:HZ|mmpp:...] "
               "[--interleave] [--perturb-layout]\n"
               "          [--insert-fraction=F] [--prefill=N] "
               "[--threads=1,2,4]\n"
               "          [--ms=N] [--ops=N] [--reps=N] [--seed=N]\n"
               "          [--mode=throughput|quality|latency|sort|service]\n"
               "          [--mq-c=N] [--mq-sticky=N] [--mq-buf=N]\n"
               "          [--arrival-hz=N] [--checked] [--json[=path]] "
               "[--metrics]\n"
               "          [--trace-out=FILE] [--dump-traces] "
               "[--force-stall] [--chaos=FILE] [--list]\n"
               "          [--telemetry-hz=HZ] [--timeseries-out=FILE]\n"
               "          [--prom-out=FILE] [--slo=SPEC]\n",
               argv0);
  return 2;
}

int list_registry() {
  std::printf("queues:\n");
  for (const QueueSpec& spec : queue_registry()) {
    std::printf("  %-12s %s%s\n", spec.name.c_str(), spec.description.c_str(),
                spec.in_paper ? "  [paper roster]" : "");
  }
  std::printf("benchmarks (--mode=...):\n");
  for (const BenchModeSpec& mode : bench_mode_registry()) {
    std::printf("  %-12s %s\n", mode.name.c_str(), mode.description.c_str());
  }
  const MqTuning& tuning = mq_tuning();
  std::printf("engineered MultiQueue knobs (mq-buf/mq-sticky/mq-eng):\n");
  std::printf("  %-14s queues per thread (1..64, default %u)\n", "--mq-c=N",
              tuning.c);
  std::printf("  %-14s sticky round length (1..4096, default %u)\n",
              "--mq-sticky=N", tuning.stickiness);
  std::printf(
      "  %-14s insertion/deletion buffer capacity (0..1024, default %u)\n",
      "--mq-buf=N", tuning.buffer);
  return 0;
}

// --force-stall: deliberately trip the progress watchdog so the whole
// stall-dump path (progress snapshot + metrics counters + per-thread trace
// rings) is exercised end to end against the real binary. Two fake workers
// tick a handful of operations and record trace events, then freeze; the
// watchdog fires after CPQ_WATCHDOG_S (default 0.5 s here) and _Exit()s
// with the watchdog exit code (86). Calls the obs:: functions directly —
// not the CPQ_COUNT/CPQ_TRACE_OP macros — so the dump has content even in
// builds with the hot-path hooks compiled out (-DCPQ_METRICS=OFF).
int force_stall() {
  cpq::obs::MetricsRegistry::global().reset();
  std::vector<cpq::validation::WorkerProgress> workers(2);
  cpq::obs::count(cpq::obs::Counter::kCasRetry, 3);
  cpq::obs::count(cpq::obs::Counter::kBackoffPause, 7);
  for (unsigned tid = 0; tid < 2; ++tid) {
    for (std::uint64_t op = 1; op <= 40; ++op) {
      cpq::obs::trace(cpq::obs::TraceOp::kInsert, 1000 * (tid + 1) + op);
      workers[tid].tick(op, cpq::validation::LastOp::kInsert);
    }
  }
  const double deadline = cpq::validation::watchdog_deadline(-1.0, 0.5);
  if (deadline <= 0.0) {
    std::fprintf(stderr,
                 "cpq_bench_cli: --force-stall needs CPQ_WATCHDOG_S > 0\n");
    return 2;
  }
  cpq::validation::Watchdog dog("force-stall", workers.data(), workers.size(),
                                deadline, metrics_diagnostics());
  // Never tick again; the watchdog thread dumps and exits the process.
  std::this_thread::sleep_for(
      std::chrono::duration<double>(deadline * 20.0 + 10.0));
  std::fprintf(stderr,
               "cpq_bench_cli: --force-stall: watchdog never fired\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options = options_from_env();
  std::string mode = "throughput";
  std::string queues;
  std::string workload_text = "uniform";
  std::string keys_text = "uniform32";
  double insert_fraction = 0.5;
  std::uint64_t batch_size = 1;
  double producer_fraction = 0.5;
  double arrival_hz = 0.0;
  cpq::workloads::ArrivalConfig arrivals;
  bool interleave = false;
  bool perturb_layout = false;
  bool checked = false;
  bool dump_traces = false;
  std::string trace_out;
  std::string chaos_file;
  TelemetryCliOptions telemetry;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    const int telemetry_parse =
        parse_telemetry_flag(argv[i], "cpq_bench_cli", telemetry);
    if (telemetry_parse == 2) return 2;
    if (telemetry_parse == 1) continue;
    if (std::strcmp(argv[i], "--list") == 0) {
      return list_registry();
    }
    if (std::strcmp(argv[i], "--checked") == 0) {
      checked = true;
      continue;
    }
    if (std::strcmp(argv[i], "--interleave") == 0) {
      interleave = true;
      continue;
    }
    if (std::strcmp(argv[i], "--perturb-layout") == 0) {
      perturb_layout = true;
      continue;
    }
    if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics_report_enabled() = true;
      continue;
    }
    if (std::strcmp(argv[i], "--dump-traces") == 0) {
      dump_traces = true;
      continue;
    }
    if (std::strcmp(argv[i], "--force-stall") == 0) {
      return force_stall();
    }
    if (std::strcmp(argv[i], "--json") == 0) {
      JsonSink::instance().set_path("-");
      continue;
    }
    if (parse_flag(argv[i], "--json", value)) {
      if (value.empty()) {
        return bad_value("--json", value, "want a path or '-'");
      }
      JsonSink::instance().set_path(value);
    } else if (parse_flag(argv[i], "--trace-out", value)) {
      if (value.empty()) {
        return bad_value("--trace-out", value, "want a file path");
      }
      trace_out = value;
    } else if (parse_flag(argv[i], "--chaos", value)) {
      if (value.empty()) {
        return bad_value("--chaos", value, "want a schedule file path");
      }
      chaos_file = value;
    } else if (parse_flag(argv[i], "--arrival-hz", value)) {
      if (!parse_double(value, arrival_hz) || arrival_hz < 0.0) {
        return bad_value("--arrival-hz", value, "want a rate >= 0");
      }
    } else if (parse_flag(argv[i], "--queues", value)) {
      queues = value;
    } else if (parse_flag(argv[i], "--workload", value)) {
      workload_text = value;
    } else if (parse_flag(argv[i], "--keys", value) ||
               parse_flag(argv[i], "--key-dist", value)) {
      keys_text = value;
    } else if (parse_flag(argv[i], "--arrivals", value)) {
      const auto parsed = cpq::workloads::parse_arrival_spec(value);
      if (!parsed) {
        return bad_value("--arrivals", value,
                         "want closed, poisson:HZ or "
                         "mmpp:HZ_ON,HZ_OFF,ON_MS,OFF_MS");
      }
      arrivals = *parsed;
    } else if (parse_flag(argv[i], "--producer-fraction", value)) {
      if (!parse_double(value, producer_fraction) ||
          producer_fraction <= 0.0 || producer_fraction > 1.0) {
        return bad_value("--producer-fraction", value, "want 0.0 < F <= 1.0");
      }
    } else if (parse_flag(argv[i], "--insert-fraction", value)) {
      if (!parse_double(value, insert_fraction) || insert_fraction < 0.0 ||
          insert_fraction > 1.0) {
        return bad_value("--insert-fraction", value, "want 0.0 .. 1.0");
      }
    } else if (parse_flag(argv[i], "--batch", value)) {
      if (!parse_u64(value, batch_size) || batch_size < 1) {
        return bad_value("--batch", value, "want an integer >= 1");
      }
      workload_text = "batch";
    } else if (parse_flag(argv[i], "--prefill", value)) {
      std::uint64_t prefill = 0;
      if (!parse_u64(value, prefill)) {
        return bad_value("--prefill", value, "want an integer >= 0");
      }
      options.prefill = static_cast<std::size_t>(prefill);
    } else if (parse_flag(argv[i], "--threads", value)) {
      // Parse the ladder directly: going through CPQ_THREADS +
      // options_from_env() here used to rebuild *all* options from the
      // environment, silently discarding any --prefill/--ms/--reps/--seed
      // given earlier on the command line.
      const std::vector<unsigned> ladder = parse_thread_ladder(value.c_str());
      if (ladder.empty()) {
        return bad_value("--threads", value,
                         "want a comma-separated list of counts >= 1");
      }
      options.thread_ladder = ladder;
    } else if (parse_flag(argv[i], "--ms", value)) {
      double ms = 0.0;
      if (!parse_double(value, ms) || ms <= 0.0) {
        return bad_value("--ms", value, "want a duration > 0");
      }
      options.duration_s = ms / 1000.0;
    } else if (parse_flag(argv[i], "--ops", value)) {
      if (!parse_u64(value, options.quality_ops) || options.quality_ops < 1) {
        return bad_value("--ops", value, "want an integer >= 1");
      }
    } else if (parse_flag(argv[i], "--reps", value)) {
      std::uint64_t reps = 0;
      if (!parse_u64(value, reps) || reps < 1 || reps > 1'000'000) {
        return bad_value("--reps", value, "want an integer >= 1");
      }
      options.repetitions = static_cast<unsigned>(reps);
    } else if (parse_flag(argv[i], "--seed", value)) {
      if (!parse_u64(value, options.seed)) {
        return bad_value("--seed", value, "want an unsigned integer");
      }
    } else if (parse_flag(argv[i], "--mq-c", value)) {
      std::uint64_t c = 0;
      if (!parse_u64(value, c) || c < 1 || c > 64) {
        return bad_value("--mq-c", value, "want an integer 1 .. 64");
      }
      mq_tuning().c = static_cast<unsigned>(c);
    } else if (parse_flag(argv[i], "--mq-sticky", value)) {
      std::uint64_t stickiness = 0;
      if (!parse_u64(value, stickiness) || stickiness < 1 ||
          stickiness > 4096) {
        return bad_value("--mq-sticky", value, "want an integer 1 .. 4096");
      }
      mq_tuning().stickiness = static_cast<unsigned>(stickiness);
    } else if (parse_flag(argv[i], "--mq-buf", value)) {
      std::uint64_t buffer = 0;
      if (!parse_u64(value, buffer) || buffer > 1024) {
        return bad_value("--mq-buf", value, "want an integer 0 .. 1024");
      }
      mq_tuning().buffer = static_cast<unsigned>(buffer);
    } else if (parse_flag(argv[i], "--mode", value)) {
      if (find_bench_mode(value) == nullptr) {
        return bad_value("--mode", value, "see --list for benchmark modes");
      }
      mode = value;
    } else {
      return usage(argv[0]);
    }
  }

  if (const int rc = validate_telemetry_options(telemetry, "cpq_bench_cli")) {
    return rc;
  }

  bool ok = true;
  BenchConfig cfg = base_config(options);
  cfg.workload = parse_workload(workload_text, ok);
  if (!ok) return usage(argv[0]);
  cfg.keys = parse_keys(keys_text, ok);
  if (!ok) {
    return bad_value("--keys/--key-dist", keys_text,
                     "want uniform32|16|8, ascending, descending, hold, "
                     "zipf:THETA[,BITS], hotspot:OPS,KEYS[,BITS] or "
                     "dijkstra:MIN,MAX");
  }
  cfg.insert_fraction = insert_fraction;
  cfg.batch_size = batch_size;
  cfg.producer_fraction = producer_fraction;
  cfg.arrivals = arrivals;
  cfg.perturb_layout = perturb_layout;
  cfg.shuffle_prefill = perturb_layout;

  const auto roster = resolve_roster(queues);
  if (roster.empty()) {
    std::fprintf(stderr, "no known queue in --queues=%s (try --list)\n",
                 queues.c_str());
    return 2;
  }

  if (!chaos_file.empty()) {
    // Chaos mode replaces the sweep entirely. The service's queue comes from
    // --queues when it names a chaos-capable engine; mq otherwise. The
    // telemetry plane brackets the campaign so scenarios gain the measured
    // slo_recovery_ms second opinion.
    std::string chaos_queue = "mq";
    if (!roster.empty() &&
        (roster.front()->name == "glock" || roster.front()->name == "mq" ||
         roster.front()->name == "mq-eng")) {
      chaos_queue = roster.front()->name;
    }
    telemetry_begin(telemetry);
    const int chaos_rc =
        run_chaos_from_file(chaos_file, chaos_queue, options.seed);
    const int telemetry_rc =
        telemetry_finish(telemetry, "chaos", "cpq_bench_cli");
    return chaos_rc != 0 ? chaos_rc : telemetry_rc;
  }

  print_bench_header("cpq_bench_cli", "parameterizable benchmark (§F)",
                     options);
  telemetry_begin(telemetry);

  // Failed cells set rc but do not return early: the trace export below
  // still runs, so a failing sweep leaves its diagnostics behind.
  int rc = 0;
  if (interleave && mode != "throughput") {
    std::fprintf(stderr,
                 "cpq_bench_cli: --interleave only applies to "
                 "--mode=throughput\n");
    return 2;
  }
  if (mode == "throughput") {
    if (interleave) {
      if (!interleaved_throughput_table("custom", cfg, options, roster)) {
        rc = 1;
      }
    } else if (!throughput_table("custom", cfg, options, roster)) {
      rc = 1;
    }
  } else if (mode == "quality") {
    if (!quality_table("custom", cfg, options, roster)) rc = 1;
  } else if (mode == "latency") {
    std::vector<std::string> columns;
    for (const auto* spec : roster) columns.push_back(spec->name);
    Table table("custom — delete_min latency [ns] p50 / p99", "threads",
                columns);
    bool all_ok = true;
    for (unsigned threads : options.thread_ladder) {
      cfg.threads = threads;
      std::vector<std::string> cells;
      unsigned ok_cells = 0;
      for (const auto* spec : roster) {
        metrics_cell_begin(spec, threads);
        const LatencyResult result = spec->latency(cfg);
        const bool failed = result.failed();
        if (failed) {
          all_ok = false;
          cells.emplace_back(kFailedCell);
        } else {
          ++ok_cells;
          char buf[64];
          std::snprintf(buf, sizeof(buf), "%.0f / %.0f",
                        result.delete_min.p50_ns, result.delete_min.p99_ns);
          cells.emplace_back(buf);
        }
        const char* status = failed ? "failed" : "ok";
        JsonSink::instance().record({"latency", spec->name,
                                     "latency_delete_p50_ns", threads,
                                     result.delete_min.p50_ns, 0.0,
                                     result.completed_reps, status});
        JsonSink::instance().record({"latency", spec->name,
                                     "latency_delete_p99_ns", threads,
                                     result.delete_min.p99_ns, 0.0,
                                     result.completed_reps, status});
        JsonSink::instance().record({"latency", spec->name,
                                     "latency_insert_p99_ns", threads,
                                     result.insert.p99_ns, 0.0,
                                     result.completed_reps, status});
        metrics_cell_report("latency", spec->name, threads);
        if (metrics_report_enabled() && !failed) {
          result.insert_ns.print(
              stdout, (spec->name + " insert latency [ns]").c_str());
          result.delete_ns.print(
              stdout, (spec->name + " delete_min latency [ns]").c_str());
        }
      }
      if (ok_cells == 0) {
        std::fprintf(
            stderr,
            "[cpq] latency: dropping thread row %u (every cell failed)\n",
            threads);
        continue;
      }
      table.add_row(std::to_string(threads), std::move(cells));
    }
    table.print();
    if (!all_ok) rc = 1;
  } else if (mode == "sort") {
    std::vector<std::string> columns;
    for (const auto* spec : roster) columns.push_back(spec->name);
    Table table("custom — sort phases insert/delete [MOps/s]", "threads",
                columns);
    for (unsigned threads : options.thread_ladder) {
      cfg.threads = threads;
      std::vector<std::string> cells;
      for (const auto* spec : roster) {
        const auto [ins, del] = spec->sort_phases(cfg);
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.2f / %.2f", ins, del);
        cells.emplace_back(buf);
      }
      table.add_row(std::to_string(threads), std::move(cells));
    }
    table.print();
  } else if (mode == "service") {
    cpq::service::ServiceBenchConfig scfg;
    scfg.duration_s = options.duration_s;
    scfg.arrival_hz = arrival_hz;
    scfg.arrivals = arrivals;
    scfg.prefill = options.prefill;
    scfg.keys = cfg.keys;
    scfg.seed = options.seed;
    scfg.checked = checked;
    if (!service_table("service", scfg, options, roster)) rc = 1;
  } else {
    return usage(argv[0]);
  }

  // End-of-run observability: stop the sampler and flush its artifacts
  // first, then export the trace — the retained telemetry ring feeds the
  // Perfetto counter tracks alongside the op events.
  if (telemetry_finish(telemetry, mode, "cpq_bench_cli") != 0 && rc == 0) {
    rc = 1;
  }
  if (dump_traces) {
    cpq::obs::MetricsRegistry::global().dump(stderr);
  }
  if (!trace_out.empty()) {
    if (std::FILE* f = std::fopen(trace_out.c_str(), "w")) {
      const cpq::obs::TelemetryPlane* plane =
          telemetry.enabled() ? &cpq::obs::TelemetryPlane::global() : nullptr;
      const std::size_t events = cpq::obs::write_chrome_trace(
          f, cpq::obs::MetricsRegistry::global(), plane);
      std::fclose(f);
      std::printf("# trace: wrote %zu sampled op events to %s\n", events,
                  trace_out.c_str());
    } else {
      std::fprintf(stderr, "cpq_bench_cli: cannot write --trace-out=%s\n",
                   trace_out.c_str());
      if (rc == 0) rc = 1;
    }
  }
  return rc;
}
