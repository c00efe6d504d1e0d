// X8 ablation — engineered MultiQueue tuning: stickiness s and buffer
// capacity, alongside the classic c sweep (bench_ablation_multiqueue_c).
//
// The Williams & Sanders generation (arXiv:2504.11652) amortizes lock
// acquisitions over `buf`-sized insertion/deletion batches and keeps a
// thread on the same queues for `s` consecutive draws. Both knobs buy
// throughput by giving up rank quality, so every cell reports both sides
// of the trade: MOps/s and the replayed rank-error mean. Two sweeps:
//
//   * stickiness sweep at the default buffer capacity (16): s = 1..64
//   * buffer sweep at the default stickiness (8): buf = 0..64
//
// plus a classic-mq reference column in each table. Cells are appended to
// the CPQ_JSON sink as the usual JSON records (experiment
// "ablation-mq-eng", metrics throughput_mops / rank_error_mean).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "queues/multiqueue.hpp"

int main() {
  using namespace cpq::bench;
  using namespace cpq::workloads;
  using K = cpq::bench_key;
  using V = cpq::bench_value;
  using Mq = cpq::MultiQueue<K, V>;

  const Options options = options_from_env();
  print_bench_header("bench_ablation_multiqueue_sticky",
                     "ablation: engineered MultiQueue stickiness s and "
                     "buffer capacity (arXiv:2504.11652; classic mq as "
                     "reference)",
                     options);
  BenchConfig cfg = base_config(options);
  cfg.workload = Workload::kUniform;
  cfg.keys = KeyConfig::uniform(32);
  const std::string experiment = "ablation-mq-eng";

  struct Cell {
    std::string column;
    cpq::MqEngConfig config;
  };
  std::vector<std::vector<Cell>> sweeps;
  {
    std::vector<Cell> sticky_sweep;
    for (unsigned s : {1u, 4u, 8u, 16u, 64u}) {
      cpq::MqEngConfig config;  // defaults: c=4, buffers=16
      config.stickiness = s;
      sticky_sweep.push_back({"mq-eng-s" + std::to_string(s), config});
    }
    sweeps.push_back(std::move(sticky_sweep));

    std::vector<Cell> buffer_sweep;
    for (unsigned buf : {0u, 4u, 16u, 64u}) {
      cpq::MqEngConfig config;  // defaults: c=4, stickiness=8
      config.ins_buffer = buf;
      config.del_buffer = buf;
      buffer_sweep.push_back({"mq-eng-b" + std::to_string(buf), config});
    }
    sweeps.push_back(std::move(buffer_sweep));
  }

  const char* titles[] = {
      "Ablation X8a — stickiness sweep (buf=16), uniform/uniform32",
      "Ablation X8b — buffer sweep (s=8), uniform/uniform32"};
  for (std::size_t sweep = 0; sweep < sweeps.size(); ++sweep) {
    std::vector<std::string> columns;
    for (const Cell& cell : sweeps[sweep]) columns.push_back(cell.column);
    columns.push_back("mq (classic)");

    Table tput(std::string(titles[sweep]) + " — throughput [MOps/s]",
               "threads", columns);
    Table rank(std::string(titles[sweep]) + " — rank error mean (σ)",
               "threads", columns);
    for (unsigned threads : options.thread_ladder) {
      cfg.threads = threads;
      std::vector<std::string> tput_cells;
      std::vector<std::string> rank_cells;
      auto run_cell = [&](const std::string& column, auto factory) {
        const ThroughputResult tr = run_throughput(factory, cfg);
        tput_cells.push_back(
            Table::format_mean_ci(tr.mops.mean, tr.mops.ci95));
        JsonSink::instance().record(
            {experiment, column, "throughput_mops", threads, tr.mops.mean,
             tr.mops.ci95, static_cast<unsigned>(tr.per_rep.size())});
        const QualityResult qr = run_quality(factory, cfg);
        rank_cells.push_back(
            Table::format_mean_std(qr.rank_error.mean, qr.rank_error.stddev));
        JsonSink::instance().record({experiment, column, "rank_error_mean",
                                     threads, qr.rank_error.mean,
                                     qr.rank_error.ci95, qr.completed_reps});
      };
      for (const Cell& cell : sweeps[sweep]) {
        const cpq::MqEngConfig config = cell.config;
        run_cell(cell.column, [config](unsigned t, std::uint64_t seed) {
          return std::make_unique<Mq>(t, config, seed);
        });
      }
      run_cell("mq (classic)", [](unsigned t, std::uint64_t seed) {
        return std::make_unique<Mq>(t, 4, seed);
      });
      tput.add_row(std::to_string(threads), std::move(tput_cells));
      rank.add_row(std::to_string(threads), std::move(rank_cells));
    }
    tput.print();
    rank.print();
  }
  return 0;
}
