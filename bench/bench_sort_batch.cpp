// E-extra — batch "sorting" benchmark (Larkin, Sen & Tarjan style).
//
// The paper's §F notes that "choosing large batches would correspond to the
// sorting benchmark used in [Larkin-Sen-Tarjan]": insert N random items,
// then delete all N. For concurrent queues this splits into a pure-insert
// phase and a pure-delete phase over fixed work — the phase structure
// isolates the insert path (where the appendix says Mounds dominate) from
// the delete path (where the CBPQ's FAA tickets and Lindén's prefix
// batching shine). Item count = CPQ_PREFILL per phase.

#include <string>
#include <vector>

#include "bench_common.hpp"

int main() {
  using namespace cpq::bench;
  using namespace cpq::workloads;
  const Options options = options_from_env();
  print_bench_header("bench_sort_batch",
                     "Larkin-Sen-Tarjan-style sorting phases: pure-insert "
                     "then pure-delete (paper §F batch mode)",
                     options);
  const char* names = std::getenv("CPQ_QUEUES");
  const auto roster = resolve_roster(
      names && *names ? names : "glock,linden,slotan,mq,klsm256,mound,cbpq");

  BenchConfig cfg = base_config(options);
  cfg.keys = KeyConfig::uniform(32);

  std::vector<std::string> columns;
  for (const auto* spec : roster) columns.push_back(spec->name);
  Table ins("Sort batch — insert phase [MOps/s]", "threads", columns);
  Table del("Sort batch — delete phase [MOps/s]", "threads", columns);
  for (unsigned threads : options.thread_ladder) {
    cfg.threads = threads;
    std::vector<std::string> ins_cells;
    std::vector<std::string> del_cells;
    for (const auto* spec : roster) {
      const auto [insert_mops, delete_mops] = spec->sort_phases(cfg);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f", insert_mops);
      ins_cells.emplace_back(buf);
      std::snprintf(buf, sizeof(buf), "%.2f", delete_mops);
      del_cells.emplace_back(buf);
    }
    ins.add_row(std::to_string(threads), std::move(ins_cells));
    del.add_row(std::to_string(threads), std::move(del_cells));
  }
  ins.print();
  del.print();
  return 0;
}
