// E8 — Table 5: rank error under the alternating workload with uniform32,
// ascending, and descending keys (panels a-c on mars; d-i are the same
// benchmark on saturn/ceres via CPQ_THREADS).

#include "bench_common.hpp"

int main() {
  using namespace cpq::bench;
  using namespace cpq::workloads;
  const Options options = options_from_env();
  print_bench_header("bench_table5_rank_alternating",
                     "Table 5 (mars panels; others via CPQ_THREADS): rank "
                     "error, alternating workload",
                     options);
  const auto roster = roster_from_env();
  BenchConfig cfg = base_config(options);
  cfg.workload = Workload::kAlternating;

  struct Panel {
    const char* label;
    KeyConfig keys;
  };
  const Panel panels[] = {
      {"Table 5a", KeyConfig::uniform(32)},
      {"Table 5b", KeyConfig::ascending()},
      {"Table 5c", KeyConfig::descending()},
  };
  for (const Panel& panel : panels) {
    cfg.keys = panel.keys;
    quality_table(panel.label, cfg, options, roster);
  }
  return 0;
}
