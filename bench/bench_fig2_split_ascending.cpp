// E2 — Figure 2 (and Figure 4e): split workload, ascending keys.
//
// Half the threads only insert (with keys that trend upward over time),
// half only delete. Paper result: the picture changes drastically versus
// Fig. 1 — total throughput drops by an order of magnitude, the k-LSM
// collapses below even the sequential glock baseline (the load shifts
// entirely onto its SLSM component), the MultiQueue performs best, and
// linden surprisingly scales thanks to cache locality (inserting threads
// touch only the list tail, deleting threads only the head).

#include "bench_common.hpp"

int main() {
  using namespace cpq::bench;
  using namespace cpq::workloads;
  const Options options = options_from_env();
  print_bench_header("bench_fig2_split_ascending",
                     "Fig. 2 / Fig. 4e (mars): split workload, ascending keys",
                     options);
  BenchConfig cfg = base_config(options);
  cfg.workload = Workload::kSplit;
  cfg.keys = KeyConfig::ascending();
  throughput_table("Fig. 2", cfg, options, roster_from_env());
  return 0;
}
