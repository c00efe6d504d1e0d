// A3 — ablation: DLSM-only vs SLSM-only vs composed k-LSM.
//
// The paper explains the k-LSM's environment sensitivity through its
// two-component structure (§G): "whenever the extremely scalable DLSM is
// highly utilized, throughput increases; and when the load shifts towards
// the SLSM, throughput drops". This ablation makes that explanation
// directly measurable by benchmarking each component standalone against the
// composition under the two extreme configurations:
//   * uniform/uniform32 — the DLSM-friendly case (deletes mostly hit
//     thread-local items);
//   * split/ascending  — the SLSM-bound case (deleting threads own no local
//     items, so everything funnels through the shared component).

#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "queues/klsm/klsm.hpp"
#include "queues/klsm/standalone.hpp"

int main() {
  using namespace cpq::bench;
  using namespace cpq::workloads;
  using K = cpq::bench_key;
  using V = cpq::bench_value;

  const Options options = options_from_env();
  print_bench_header("bench_ablation_klsm_components",
                     "ablation: DLSM-only vs SLSM-only vs k-LSM (paper §G "
                     "load-shift explanation)",
                     options);

  const std::vector<std::string> columns = {"dlsm", "slsm256", "klsm256"};
  struct Scenario {
    const char* label;
    Workload workload;
    KeyConfig keys;
  };
  const Scenario scenarios[] = {
      {"A3 DLSM-friendly", Workload::kUniform, KeyConfig::uniform(32)},
      {"A3 SLSM-bound", Workload::kSplit, KeyConfig::ascending()},
  };
  for (const Scenario& scenario : scenarios) {
    BenchConfig cfg = base_config(options);
    cfg.workload = scenario.workload;
    cfg.keys = scenario.keys;
    Table table(std::string(scenario.label) + " — " +
                    workload_name(cfg.workload) + "/" + cfg.keys.name() +
                    " — throughput [MOps/s]",
                "threads", columns);
    for (unsigned threads : options.thread_ladder) {
      cfg.threads = threads;
      std::vector<std::string> cells;
      const auto dlsm = run_throughput(
          [](unsigned t, std::uint64_t seed) {
            return std::make_unique<cpq::DlsmQueue<K, V>>(t, seed);
          },
          cfg);
      cells.push_back(Table::format_mean_ci(dlsm.mops.mean, dlsm.mops.ci95));
      const auto slsm = run_throughput(
          [](unsigned t, std::uint64_t seed) {
            return std::make_unique<cpq::SlsmQueue<K, V>>(t, 256, seed);
          },
          cfg);
      cells.push_back(Table::format_mean_ci(slsm.mops.mean, slsm.mops.ci95));
      const auto klsm = run_throughput(
          [](unsigned t, std::uint64_t seed) {
            return std::make_unique<cpq::KLsmQueue<K, V>>(t, 256, seed);
          },
          cfg);
      cells.push_back(Table::format_mean_ci(klsm.mops.mean, klsm.mops.ci95));
      table.add_row(std::to_string(threads), std::move(cells));
    }
    table.print();
  }
  return 0;
}
