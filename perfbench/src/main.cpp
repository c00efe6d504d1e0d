// perfbench: the repository benchmark. One process runs the three
// workloads (uniform, sssp, service) in rounds, checks every output, and
// prints every metric by name with its unit and sample count, then one
// JSON result line. See perfbench/README.md.
//
// Usage: perfbench --workload W --seed N --seconds S --trace 0|1
//                  [--trace-out FILE] [--source ID]
//        perfbench --self-test [--seed N]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// Sanitizer the compiler instrumented this build with, as it reports it.
#if defined(__SANITIZE_ADDRESS__)
#define PERFBENCH_SANITIZE "address"
#elif defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZE "thread"
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PERFBENCH_SANITIZE "address"
#elif __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZE "thread"
#endif
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE "OFF"
#endif

namespace pb {
namespace {

// Rounds per run: every round sets up and measures each cell afresh (a
// round takes about 0.75 * --seconds).
constexpr unsigned kRounds = 3;

// The end-to-end metrics; every other metric is per layer.
const std::set<std::string> kEndToEnd = {
    "mops.mq",           "mops.mq-eng",      "mops.klsm4096",
    "rank_error.mq",     "rank_error.mq-eng", "rank_error.klsm4096",
    "sssp_s.mq",         "sssp_s.mq-eng",    "sssp_s.klsm4096",
    "sojourn_p50_us",    "setup_s"};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload uniform|sssp|"
               "service --seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--source ID]\n       perfbench --self-test [--seed N]\n",
               why);
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool has_pmu() {
  std::ifstream cpu("/sys/bus/event_source/devices/cpu/type");
  return cpu.good();
}

std::string provenance(const Options& opt, const std::string& source) {
  std::ostringstream o;
  o << "{\"source\": \"" << json_escape(source) << "\""
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu\": \"" << json_escape(cpu_model()) << "\""
    << ", \"compiler\": \"" << json_escape(__VERSION__) << "\""
    << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
#if defined(CPQ_METRICS_ENABLED)
    << ", \"CPQ_METRICS\": \"ON\""
#else
    << ", \"CPQ_METRICS\": \"OFF\""
#endif
#if defined(CPQ_FAULT_INJECTION)
    << ", \"CPQ_FAULT_INJECTION\": \"ON\""
#else
    << ", \"CPQ_FAULT_INJECTION\": \"OFF\""
#endif
    << ", \"CPQ_SANITIZE\": \"" << PERFBENCH_SANITIZE << "\""
    << ", \"pmu\": " << (has_pmu() ? "true" : "false")
    << ", \"workload\": \"" << json_escape(opt.workload) << "\""
    << ", \"seed\": " << opt.seed << ", \"threads\": " << opt.threads
    << ", \"seconds\": " << opt.seconds << "}";
  return o.str();
}

// A sanitizer or fault-injection build is a different program: its numbers
// would not describe this one.
void refuse_instrumented_build() {
  bool instrumented = std::strcmp(PERFBENCH_SANITIZE, "OFF") != 0;
#if defined(CPQ_FAULT_INJECTION)
  instrumented = true;
#endif
  if (instrumented) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a sanitizer or "
                 "fault-injection build\n");
    std::exit(3);
  }
}

}  // namespace

CpuTimes CpuTimes::now() {
  CpuTimes t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // the aggregate "cpu" line comes first
  for (int field = 0; field < 8; ++field) {
    std::uint64_t jiffies = 0;
    if (!(stat >> jiffies)) break;
    t.total += jiffies;
    if (field == 7) t.steal = jiffies;
  }
  return t;
}

bool Tracer::write_chrome(const std::string& path,
                          const std::string& provenance_json) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const cpq::TscClock& clock = cpq::tsc_clock();
  const std::uint64_t origin = clock.to_ns(lanes_[0].empty()
                                               ? cpq::fast_timestamp()
                                               : lanes_[0].front().start);
  auto us = [&](std::uint64_t tick) {
    const std::uint64_t ns = clock.to_ns(tick);
    return ns > origin ? static_cast<double>(ns - origin) / 1e3 : 0.0;
  };
  std::fprintf(out, "{\"displayTimeUnit\": \"ns\", \"otherData\": %s,\n",
               provenance_json.c_str());
  std::fprintf(out, "\"traceEvents\": [\n");
  bool first = true;
  auto sep = [&] {
    std::fputs(first ? "" : ",\n", out);
    first = false;
  };
  for (unsigned lane = 0; lane < lanes_.size(); ++lane) {
    const std::string label = lane == 0 ? "main: workloads and cells"
                                        : "worker " + std::to_string(lane - 1);
    sep();
    std::fprintf(out,
                 "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %u, \"args\": {\"name\": \"%s\"}}",
                 lane, label.c_str());
  }
  for (unsigned lane = 0; lane < lanes_.size(); ++lane) {
    for (std::size_t i = 0; i < lanes_[lane].size(); ++i) {
      const Span& s = lanes_[lane][i];
      if (s.end < s.start) continue;  // never closed
      sep();
      std::fprintf(out,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                   "\"parent\": %u, \"id\": %llu}}",
                   json_escape(names_[s.name]).c_str(), lane, us(s.start),
                   us(s.end) - us(s.start), lane == 0 ? i : 0, s.parent,
                   static_cast<unsigned long long>(s.id));
    }
  }
  for (const CounterEvent& c : counters_) {
    sep();
    std::fprintf(out,
                 "{\"name\": \"%s\", \"ph\": \"C\", \"pid\": 1, \"tid\": 0, "
                 "\"ts\": %.3f, \"args\": {\"value\": %.17g}}",
                 json_escape(c.name).c_str(), us(c.tick), c.value);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  Options opt;
  std::string source = "unknown";
  bool self = false;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("--seed takes an integer");
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 60.0) {
        usage("--seconds takes a number in (0, 60]");
      }
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
      have_trace = true;
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else if (arg == "--source") {
      source = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  refuse_instrumented_build();
  opt.threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  cpq::tsc_clock();  // calibrate once, outside every measured region

  if (self) {
    const int bad = self_test(opt);
    std::printf("self-test: %s\n", bad == 0 ? "all checks ok" : "FAILED");
    return bad == 0 ? 0 : 1;
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  bool known = false;
  for (const char* w : kWorkloads) known |= opt.workload == w;
  if (!known) usage(("unknown workload " + opt.workload).c_str());

  Run run;
  run.opt = opt;
  if (opt.trace) run.tracer.enable(opt.threads);
  const std::string prov = provenance(opt, source);
  std::printf("# provenance %s\n", prov.c_str());
  std::fflush(stdout);

  // The named workload runs first in each round and with twice the
  // measuring time; the result line carries every metric regardless.
  std::vector<std::string> order = {opt.workload};
  for (const char* w : kWorkloads) {
    if (opt.workload != w) order.push_back(w);
  }
  for (unsigned round = 0; round < kRounds; ++round) {
    run.setup_this_round = 0.0;
    const CpuTimes before = CpuTimes::now();
    for (const std::string& w : order) {
      cpq::Stopwatch watch;
      if (w == "uniform") run_uniform_round(run, round);
      if (w == "sssp") run_sssp_round(run, round);
      if (w == "service") run_service_round(run, round);
      std::fprintf(stderr, "perfbench: round %u %-8s %6.2f s\n", round,
                   w.c_str(), watch.elapsed_seconds());
    }
    run.setup.push_back(run.setup_this_round);
    std::printf("# round %u: host steal %.1f%%\n", round,
                CpuTimes::now().steal_pct_since(before));
  }
  finish_uniform(run);
  finish_sssp(run);
  finish_service(run);
  run.report.set_median("setup_s", "s", run.setup);
  if (opt.trace) {
    run_layer_cells(run);
    if (run.tracer.dropped() > 0) {
      std::printf("# trace dropped %llu spans (lane full)\n",
                  static_cast<unsigned long long>(run.tracer.dropped()));
    }
    if (!opt.trace_out.empty() &&
        !run.tracer.write_chrome(opt.trace_out, prov)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.trace_out.c_str());
      return 1;
    }
  }

  const Report& r = run.report;
  for (const auto& [name, input] : run.input_checksums) {
    std::printf("# input %-22s checksum %016llx\n", name.c_str(),
                static_cast<unsigned long long>(input));
  }
  const double failed_pct =
      r.attempted() > 0
          ? 100.0 * r.failed() / static_cast<double>(r.attempted())
          : 0.0;
  std::printf("%-40s %14.6g %-9s n=%llu\n", "failed_ops_pct", failed_pct, "%",
              static_cast<unsigned long long>(r.attempted()));
  std::string json = "{\"correct\": ";
  json += r.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted());
  json += ", \"failed\": " + std::to_string(r.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics()) {
    if ((kEndToEnd.count(name) != 0) == opt.trace) continue;
    std::printf("%-40s %14.6g %-9s n=%llu\n", name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    // JSON has no infinity or NaN; null makes the result invalid, as it is.
    char value[64] = "null";
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof value, "%.17g", m.value);
    }
    json += std::string(first ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
