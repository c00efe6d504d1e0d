// X9 — adversarial workloads: skewed/bursty keys + anti-artifact hygiene.
//
// Extends the paper's uniform-key grid with the adversarial generators of
// src/workloads/ (arXiv:2305.10872) and the bench-hygiene countermeasures
// of arXiv:2208.08469, in four passes:
//
//   1. skew sweep   — throughput and rank-error quality for uniform32,
//                     zipf:1.1, hotspot:0.9,0.1 and dijkstra:1,100 keys;
//   2. layout pass  — the zipf grid re-run interleaved (all queues in one
//                     process, shuffled order per repetition, randomized
//                     prefill order and heap perturbation) reporting the
//                     per-queue layout_* spread instead of a contaminated
//                     mean;
//   3. burst pass   — open-loop MMPP arrivals (ON 200k/s for ~5 ms, OFF
//                     20k/s for ~15 ms per thread) against the closed-loop
//                     baseline, reporting the burst_* family;
//   4. pcsplit pass — ingest-heavy producer/consumer split (75% producers)
//                     under hotspot keys.
//
// Default roster: the paper's seven queues plus the engineered MultiQueue;
// CPQ_QUEUES overrides. All CPQ_* scaling env vars apply as usual.

#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"

int main() {
  using namespace cpq::bench;
  using namespace cpq::workloads;
  const Options options = options_from_env();
  print_bench_header("bench_skew",
                     "X9: skewed/bursty adversarial workloads + "
                     "anti-artifact hygiene (extension)",
                     options);

  const char* env_roster = std::getenv("CPQ_QUEUES");
  const std::vector<const QueueSpec*> roster = resolve_roster(
      env_roster != nullptr && env_roster[0] != '\0'
          ? env_roster
          : "glock,linden,spray,mq,klsm128,klsm256,klsm4096,mq-eng");

  bool ok = true;

  // ---- 1. skew sweep -----------------------------------------------------
  const struct {
    const char* tag;
    KeyConfig keys;
  } dists[] = {
      {"uniform", KeyConfig::uniform(32)},
      {"zipf", KeyConfig::zipf(1.1)},
      {"hotspot", KeyConfig::hotspot(0.9, 0.1)},
      {"dijkstra", KeyConfig::dijkstra(1, 100)},
  };
  for (const auto& dist : dists) {
    BenchConfig cfg = base_config(options);
    cfg.workload = Workload::kUniform;
    cfg.keys = dist.keys;
    ok &= throughput_table("X9 skew", cfg, options, roster);
    cfg.ops_per_thread = options.quality_ops;
    ok &= quality_table("X9 skew", cfg, options, roster);
  }

  // ---- 2. anti-artifact layout pass --------------------------------------
  {
    BenchConfig cfg = base_config(options);
    cfg.workload = Workload::kUniform;
    cfg.keys = KeyConfig::zipf(1.1);
    cfg.shuffle_prefill = true;
    cfg.perturb_layout = true;
    ok &= interleaved_throughput_table("X9 layout", cfg, options, roster);
  }

  // ---- 3. open-loop burst pass -------------------------------------------
  {
    BenchConfig cfg = base_config(options);
    cfg.workload = Workload::kUniform;
    cfg.keys = KeyConfig::zipf(1.1);
    cfg.arrivals = cpq::workloads::ArrivalConfig::mmpp(200'000, 20'000,
                                                       0.005, 0.015);
    ok &= throughput_table("X9 burst", cfg, options, roster);
  }

  // ---- 4. ingest-heavy producer/consumer split ---------------------------
  {
    BenchConfig cfg = base_config(options);
    cfg.workload = Workload::kPcSplit;
    cfg.producer_fraction = 0.75;
    cfg.keys = KeyConfig::hotspot(0.9, 0.1);
    ok &= throughput_table("X9 pcsplit", cfg, options, roster);
  }

  return ok ? 0 : 1;
}
