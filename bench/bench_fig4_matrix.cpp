// E4 — Figure 4 (a–h): the full mars throughput matrix.
//
// Eight panels: {uniform, split} workloads × {uniform32, ascending,
// descending} keys, plus uniform workload × {uniform8, uniform16}. The
// same binary regenerates Figures 5–7 (saturn / ceres / pluto) — those
// machines differ only in core count and architecture, so run it there
// with CPQ_THREADS set to the paper's ladders (up to 48 / 256 / 244).

#include "bench_common.hpp"

int main() {
  using namespace cpq::bench;
  using namespace cpq::workloads;
  const Options options = options_from_env();
  print_bench_header("bench_fig4_matrix",
                     "Fig. 4a-h (mars), Figs. 5-7 (saturn/ceres/pluto via "
                     "CPQ_THREADS)",
                     options);
  const auto roster = roster_from_env();
  BenchConfig cfg = base_config(options);

  struct Panel {
    const char* label;
    Workload workload;
    KeyConfig keys;
  };
  const Panel panels[] = {
      {"Fig. 4a", Workload::kUniform, KeyConfig::uniform(32)},
      {"Fig. 4b", Workload::kUniform, KeyConfig::ascending()},
      {"Fig. 4c", Workload::kUniform, KeyConfig::descending()},
      {"Fig. 4d", Workload::kSplit, KeyConfig::uniform(32)},
      {"Fig. 4e", Workload::kSplit, KeyConfig::ascending()},
      {"Fig. 4f", Workload::kSplit, KeyConfig::descending()},
      {"Fig. 4g", Workload::kUniform, KeyConfig::uniform(8)},
      {"Fig. 4h", Workload::kUniform, KeyConfig::uniform(16)},
  };
  for (const Panel& panel : panels) {
    cfg.workload = panel.workload;
    cfg.keys = panel.keys;
    throughput_table(panel.label, cfg, options, roster);
  }
  return 0;
}
