// E3 — Figure 3 (and Figure 4g): uniform workload, uniform keys restricted
// to 8 bits.
//
// A key domain of 256 values floods every queue with duplicates. Paper
// result: throughput drops dramatically across the board; the medium
// k-LSM relaxations stop scaling entirely while klsm4096 still scales but
// only to ~20 MOps/s; the paper could not gather SprayList data here (its
// code crashed) — our implementation is stable, so the spray column has
// data where the paper has a gap.

#include "bench_common.hpp"

int main() {
  using namespace cpq::bench;
  using namespace cpq::workloads;
  const Options options = options_from_env();
  print_bench_header(
      "bench_fig3_uniform_8bit",
      "Fig. 3 / Fig. 4g (mars): uniform workload, uniform 8-bit keys",
      options);
  BenchConfig cfg = base_config(options);
  cfg.workload = Workload::kUniform;
  cfg.keys = KeyConfig::uniform(8);
  throughput_table("Fig. 3", cfg, options, roster_from_env());
  return 0;
}
