// A2 — ablation: MultiQueue tuning parameter c (number of sequential
// queues per thread) and backing sequential queue (binary vs pairing heap).
//
// The paper fixes c = 4 ("with tuning parameter c ... set to 4 in our
// benchmarks"). This sweep shows the trade-off that motivates that choice:
// small c increases lock contention (failed try_locks and hot queues),
// large c spreads items so thin that delete_min's two-choice sampling
// returns keys of higher rank and per-queue cache locality degrades.

#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "queues/multiqueue.hpp"
#include "seq/pairing_heap.hpp"

int main() {
  using namespace cpq::bench;
  using namespace cpq::workloads;
  using K = cpq::bench_key;
  using V = cpq::bench_value;
  using BinaryMq = cpq::MultiQueue<K, V>;
  using PairingMq =
      cpq::MultiQueue<K, V, cpq::seq::PairingHeap<K, V>>;

  const Options options = options_from_env();
  print_bench_header("bench_ablation_multiqueue_c",
                     "ablation: MultiQueue c sweep + backing-heap choice "
                     "(paper fixes c=4, std::priority_queue)",
                     options);
  BenchConfig cfg = base_config(options);
  cfg.workload = Workload::kUniform;
  cfg.keys = KeyConfig::uniform(32);

  const std::vector<unsigned> cs = {1, 2, 4, 8};
  std::vector<std::string> columns;
  for (unsigned c : cs) columns.push_back("mq-c" + std::to_string(c));
  columns.push_back("mq-c4-pairing");

  Table tput("Ablation A2 — throughput [MOps/s], uniform/uniform32",
             "threads", columns);
  Table rank("Ablation A2 — rank error mean (σ), uniform/uniform32",
             "threads", columns);
  for (unsigned threads : options.thread_ladder) {
    cfg.threads = threads;
    std::vector<std::string> tput_cells;
    std::vector<std::string> rank_cells;
    // Each cell also lands in the CPQ_JSON sink so the ablation grid is
    // machine-comparable like every other bench.
    auto run_cell = [&](const std::string& column, auto factory) {
      const ThroughputResult tr = run_throughput(factory, cfg);
      tput_cells.push_back(Table::format_mean_ci(tr.mops.mean, tr.mops.ci95));
      JsonSink::instance().record(
          {"ablation-mq-c", column, "throughput_mops", threads, tr.mops.mean,
           tr.mops.ci95, static_cast<unsigned>(tr.per_rep.size())});
      const QualityResult qr = run_quality(factory, cfg);
      rank_cells.push_back(
          Table::format_mean_std(qr.rank_error.mean, qr.rank_error.stddev));
      JsonSink::instance().record({"ablation-mq-c", column, "rank_error_mean",
                                   threads, qr.rank_error.mean,
                                   qr.rank_error.ci95, qr.completed_reps});
    };
    for (unsigned c : cs) {
      run_cell("mq-c" + std::to_string(c),
               [c](unsigned t, std::uint64_t seed) {
                 return std::make_unique<BinaryMq>(t, c, seed);
               });
    }
    run_cell("mq-c4-pairing", [](unsigned t, std::uint64_t seed) {
      return std::make_unique<PairingMq>(t, 4, seed);
    });

    tput.add_row(std::to_string(threads), std::move(tput_cells));
    rank.add_row(std::to_string(threads), std::move(rank_cells));
  }
  tput.print();
  rank.print();
  return 0;
}
