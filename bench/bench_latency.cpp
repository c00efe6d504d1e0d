// E-extra — per-operation latency percentiles (the paper's §F
// "throughput/latency switch").
//
// Fixed operation count per thread, every operation timed individually.
// Throughput plots hide tail behaviour: the GlobalLock baseline convoys
// (high p99 under threads), the k-LSM amortizes merges (spiky inserts,
// cheap local deletes), the MultiQueue stays flat. Units: nanoseconds.

#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_framework/latency.hpp"

int main() {
  using namespace cpq::bench;
  using namespace cpq::workloads;
  const Options options = options_from_env();
  print_bench_header("bench_latency",
                     "per-op latency percentiles (paper §F latency switch), "
                     "uniform workload, uniform 32-bit keys",
                     options);
  const auto roster = roster_from_env();
  BenchConfig cfg = base_config(options);
  cfg.workload = Workload::kUniform;
  cfg.keys = KeyConfig::uniform(32);

  for (const char* op : {"insert", "delete_min"}) {
    std::vector<std::string> columns;
    for (const auto* spec : roster) columns.push_back(spec->name);
    Table table(std::string("Latency [ns] ") + op + " — p50 / p99",
                "threads", columns);
    for (unsigned threads : options.thread_ladder) {
      cfg.threads = threads;
      std::vector<std::string> cells;
      for (const auto* spec : roster) {
        const LatencyResult result = spec->latency(cfg);
        const LatencyPercentiles& p =
            op[0] == 'i' ? result.insert : result.delete_min;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.0f / %.0f", p.p50_ns, p.p99_ns);
        cells.emplace_back(buf);
      }
      table.add_row(std::to_string(threads), std::move(cells));
    }
    table.print();
  }
  return 0;
}
