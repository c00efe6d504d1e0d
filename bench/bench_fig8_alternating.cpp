// E7 — Figures 8/9: alternating workload (strict insert/delete alternation
// per thread) with uniform32, ascending, and descending keys.
//
// Although alternating performs the same 50/50 operation mix as the uniform
// workload, the paper observes significant differences: on mars the k-LSM
// gains both throughput (to almost 40 MOps/s) and scalability with uniform
// keys, and all k-LSM variants reach a new peak (~60 MOps/s) with
// descending keys. Figure 9 is the same benchmark on ceres/pluto (set
// CPQ_THREADS).

#include "bench_common.hpp"

int main() {
  using namespace cpq::bench;
  using namespace cpq::workloads;
  const Options options = options_from_env();
  print_bench_header("bench_fig8_alternating",
                     "Fig. 8a-c (mars), Fig. 8d-f / 9 (other machines via "
                     "CPQ_THREADS): alternating workload",
                     options);
  const auto roster = roster_from_env();
  BenchConfig cfg = base_config(options);
  cfg.workload = Workload::kAlternating;

  struct Panel {
    const char* label;
    KeyConfig keys;
  };
  const Panel panels[] = {
      {"Fig. 8a", KeyConfig::uniform(32)},
      {"Fig. 8b", KeyConfig::ascending()},
      {"Fig. 8c", KeyConfig::descending()},
  };
  for (const Panel& panel : panels) {
    cfg.keys = panel.keys;
    throughput_table(panel.label, cfg, options, roster);
  }
  return 0;
}
