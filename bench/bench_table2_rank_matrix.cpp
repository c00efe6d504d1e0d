// E6 — Table 2 (a–h): the full rank-error matrix on mars (Tables 3–4 are
// the same benchmark on saturn/ceres; set CPQ_THREADS accordingly).
//
// Eight panels matching Figure 4's configurations. Note the paper's caveat,
// which this implementation shares by construction: the uniform-8-bit panel
// reports artificially inflated ranks because the replay is pessimistic for
// duplicate keys.

#include "bench_common.hpp"

int main() {
  using namespace cpq::bench;
  using namespace cpq::workloads;
  const Options options = options_from_env();
  print_bench_header("bench_table2_rank_matrix",
                     "Table 2a-h (mars), Tables 3-4 (saturn/ceres via "
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
      {"Table 2a", Workload::kUniform, KeyConfig::uniform(32)},
      {"Table 2b", Workload::kUniform, KeyConfig::ascending()},
      {"Table 2c", Workload::kUniform, KeyConfig::descending()},
      {"Table 2d", Workload::kSplit, KeyConfig::uniform(32)},
      {"Table 2e", Workload::kSplit, KeyConfig::ascending()},
      {"Table 2f", Workload::kSplit, KeyConfig::descending()},
      {"Table 2g", Workload::kUniform, KeyConfig::uniform(8)},
      {"Table 2h", Workload::kUniform, KeyConfig::uniform(16)},
  };
  for (const Panel& panel : panels) {
    cfg.workload = panel.workload;
    cfg.keys = panel.keys;
    quality_table(panel.label, cfg, options, roster);
  }
  return 0;
}
