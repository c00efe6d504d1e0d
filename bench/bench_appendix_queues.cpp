// E-extra — appendix-D queue comparison.
//
// The appendix discusses several further designs and makes quantitative
// claims this binary measures against our implementations:
//   * Hunt et al.: "easily outperformed by more modern designs";
//   * Shavit–Lotan vs Lindén: eager physical deletion costs up to 2x
//     (the Lindén paper's core claim, reproduced as linden vs slotan);
//   * CBPQ: "clearly outperforms the other queues in mixed workloads
//     (50% insertions, 50% deletions) and deletion workloads, and exhibits
//     similar behavior as the Lindén and Jonsson queue in insertion
//     workloads, where Mounds are dominant."
// Three operation mixes are measured accordingly: mixed (50% inserts),
// deletion-leaning (40% inserts — leaning rather than 10%, because a
// time-boxed run at 10% drains the prefill and then measures only cheap
// empty-queue polls; the *pure* deletion phase the CBPQ paper reports is
// the fixed-work delete phase of bench_sort_batch), and insertion-heavy
// (90% inserts).

#include <string>
#include <vector>

#include "bench_common.hpp"

int main() {
  using namespace cpq::bench;
  using namespace cpq::workloads;
  const Options options = options_from_env();
  print_bench_header("bench_appendix_queues",
                     "appendix D comparisons: hunt/slotan/mound/cbpq vs "
                     "linden/glock",
                     options);
  const auto roster =
      resolve_roster("glock,linden,slotan,sundell,hunt,mound,cbpq");

  struct Mix {
    const char* label;
    double insert_fraction;
  };
  const Mix mixes[] = {
      {"Appendix D — mixed (50% ins)", 0.5},
      {"Appendix D — deletion-leaning (40% ins)", 0.4},
      {"Appendix D — insertion-heavy (90% ins)", 0.9},
  };
  for (const Mix& mix : mixes) {
    BenchConfig cfg = base_config(options);
    cfg.workload = Workload::kUniform;
    cfg.keys = KeyConfig::uniform(32);
    cfg.insert_fraction = mix.insert_fraction;
    throughput_table(mix.label, cfg, options, roster);
  }
  return 0;
}
