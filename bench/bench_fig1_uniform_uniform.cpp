// E1 — Figure 1 (and Figure 4a): uniform workload, uniform 32-bit keys.
//
// The classic concurrent-priority-queue throughput benchmark: every thread
// performs 50% insertions / 50% deletions with uniformly random 32-bit
// keys. Paper result on mars (8-core Xeon): klsm4096 exhibits superior
// scalability (> 40 MOps/s, ~7.5x over the MultiQueue); the MultiQueue is
// second; spray tops out mid-field; linden and glock do not scale.

#include "bench_common.hpp"

int main() {
  using namespace cpq::bench;
  using namespace cpq::workloads;
  const Options options = options_from_env();
  print_bench_header("bench_fig1_uniform_uniform",
                     "Fig. 1 / Fig. 4a (mars): uniform workload, uniform "
                     "32-bit keys",
                     options);
  BenchConfig cfg = base_config(options);
  cfg.workload = Workload::kUniform;
  cfg.keys = KeyConfig::uniform(32);
  throughput_table("Fig. 1", cfg, options, roster_from_env());
  return 0;
}
