// A1 — ablation: k-LSM relaxation parameter sweep.
//
// Sweeps k over {16, 128, 256, 1024, 4096} under the uniform/uniform-32
// benchmark, printing throughput and rank error side by side. Checks two of
// the paper's claims directly:
//   * §3: "Results for low relaxation (k = 16) are not shown since its
//     behavior closely mimics the Lindén and Jonsson priority queue" —
//     the k=16 column should track the linden column in both metrics;
//   * higher k buys throughput at the price of rank error.

#include <string>
#include <vector>

#include "bench_common.hpp"
#include "queues/klsm/klsm.hpp"
#include "queues/linden.hpp"

int main() {
  using namespace cpq::bench;
  using namespace cpq::workloads;
  using cpq::KLsmQueue;
  using cpq::LindenQueue;
  using K = cpq::bench_key;
  using V = cpq::bench_value;

  const Options options = options_from_env();
  print_bench_header("bench_ablation_klsm_k",
                     "ablation: k-LSM relaxation sweep (paper §3 claim that "
                     "k=16 mimics linden)",
                     options);
  BenchConfig cfg = base_config(options);
  cfg.workload = Workload::kUniform;
  cfg.keys = KeyConfig::uniform(32);

  const std::vector<std::uint64_t> ks = {16, 128, 256, 1024, 4096};
  std::vector<std::string> columns = {"linden"};
  for (std::uint64_t k : ks) columns.push_back("klsm" + std::to_string(k));

  Table tput("Ablation A1 — throughput [MOps/s], uniform/uniform32",
             "threads", columns);
  Table rank("Ablation A1 — rank error mean (σ), uniform/uniform32",
             "threads", columns);
  for (unsigned threads : options.thread_ladder) {
    cfg.threads = threads;
    std::vector<std::string> tput_cells;
    std::vector<std::string> rank_cells;

    const auto linden_factory = [](unsigned t, std::uint64_t seed) {
      return std::make_unique<LindenQueue<K, V>>(t, 32, seed);
    };
    const ThroughputResult lt = run_throughput(linden_factory, cfg);
    tput_cells.push_back(Table::format_mean_ci(lt.mops.mean, lt.mops.ci95));
    const QualityResult lq = run_quality(linden_factory, cfg);
    rank_cells.push_back(
        Table::format_mean_std(lq.rank_error.mean, lq.rank_error.stddev));

    for (std::uint64_t k : ks) {
      const auto factory = [k](unsigned t, std::uint64_t seed) {
        return std::make_unique<KLsmQueue<K, V>>(t, k, seed);
      };
      const ThroughputResult tr = run_throughput(factory, cfg);
      tput_cells.push_back(Table::format_mean_ci(tr.mops.mean, tr.mops.ci95));
      const QualityResult qr = run_quality(factory, cfg);
      rank_cells.push_back(
          Table::format_mean_std(qr.rank_error.mean, qr.rank_error.stddev));
    }
    tput.add_row(std::to_string(threads), std::move(tput_cells));
    rank.add_row(std::to_string(threads), std::move(rank_cells));
  }
  tput.print();
  rank.print();
  return 0;
}
