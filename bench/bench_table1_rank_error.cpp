// E5 — Table 1 (and Table 2a): rank error, uniform workload, uniform
// 32-bit keys.
//
// The quality benchmark: every operation is logged with a timestamp, the
// logs are merged into a linear sequence, and an order-statistic replay
// determines the rank of every deleted item. Paper result: all queues
// return keys far closer to the minimum than their worst-case analyses
// allow (e.g. klsm128 averages rank ~32 at 2 threads against a kP+1 = 257
// bound); the MultiQueue's relaxation is comparable to klsm4096 and grows
// linearly with the thread count; strict queues are near zero.

#include "bench_common.hpp"

int main() {
  using namespace cpq::bench;
  using namespace cpq::workloads;
  const Options options = options_from_env();
  print_bench_header("bench_table1_rank_error",
                     "Table 1 / Table 2a (mars): rank error, uniform "
                     "workload, uniform 32-bit keys",
                     options);
  BenchConfig cfg = base_config(options);
  cfg.workload = Workload::kUniform;
  cfg.keys = KeyConfig::uniform(32);
  quality_table("Table 1", cfg, options, roster_from_env());
  return 0;
}
