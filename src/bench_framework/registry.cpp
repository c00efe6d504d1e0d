#include "bench_framework/registry.hpp"

#include <memory>
#include <utility>

#include "queues/cbpq.hpp"
#include "queues/flat_combining.hpp"
#include "queues/globallock.hpp"
#include "queues/hunt_heap.hpp"
#include "queues/klsm/klsm.hpp"
#include "queues/klsm/standalone.hpp"
#include "queues/linden.hpp"
#include "queues/mound.hpp"
#include "queues/multiqueue.hpp"
#include "queues/shavit_lotan.hpp"
#include "queues/spraylist.hpp"
#include "queues/sundell_tsigas.hpp"
#include "seq/binary_heap.hpp"
#include "seq/dary_heap.hpp"
#include "seq/pairing_heap.hpp"

namespace cpq::bench {

namespace {

using K = bench_key;
using V = bench_value;

// The MultiQueue self-reports its (configuration-dependent) soft rank
// bound; keep the registry honest about reading it from the queue rather
// than duplicating the formula.
static_assert(RelaxationSelfReporting<MultiQueue<K, V>>);

// The paper's MultiQueue pins c=4 with per-op draws and no buffers.
constexpr MqEngConfig kPaperMq{4, 1, 0, 0};

// Engineered configs derive from the CLI-tunable mq_tuning():
// mq-buf = buffers only, mq-sticky = sticky rounds only, mq-eng = both.
MqEngConfig eng_config(bool sticky, bool buffered) {
  const MqTuning& tuning = mq_tuning();
  MqEngConfig cfg;
  cfg.c = tuning.c;
  cfg.stickiness = sticky ? tuning.stickiness : 1;
  cfg.ins_buffer = buffered ? tuning.buffer : 0;
  cfg.del_buffer = buffered ? tuning.buffer : 0;
  return cfg;
}

// Bind the template harness to a queue factory. Each runner stamps the
// queue's registry name into the config so watchdog dumps and repetition
// failure reports name the queue they supervise.
template <typename Factory>
QueueSpec make_spec(std::string name, std::string description, bool strict,
                    bool in_paper, Factory factory) {
  QueueSpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.strict = strict;
  spec.in_paper = in_paper;
  spec.throughput = [factory, name = spec.name](const BenchConfig& cfg) {
    BenchConfig labeled = cfg;
    labeled.label = name;
    return run_throughput(
        [&](unsigned threads, std::uint64_t seed) {
          return factory(threads, seed, labeled);
        },
        labeled);
  };
  spec.quality = [factory, name = spec.name](const BenchConfig& cfg) {
    BenchConfig labeled = cfg;
    labeled.label = name;
    return run_quality(
        [&](unsigned threads, std::uint64_t seed) {
          return factory(threads, seed, labeled);
        },
        labeled);
  };
  spec.latency = [factory, name = spec.name](const BenchConfig& cfg) {
    BenchConfig labeled = cfg;
    labeled.label = name;
    return run_latency(
        [&](unsigned threads, std::uint64_t seed) {
          return factory(threads, seed, labeled);
        },
        labeled);
  };
  spec.sort_phases = [factory, name = spec.name](const BenchConfig& cfg) {
    BenchConfig labeled = cfg;
    labeled.label = name;
    return run_sort_phases(
        [&](unsigned threads, std::uint64_t seed) {
          return factory(threads, seed, labeled);
        },
        labeled);
  };
  spec.service_bench = [factory,
                        name = spec.name](const service::ServiceBenchConfig&
                                              cfg) {
    // The shard/queue factories reuse the throughput factory with a
    // BenchConfig carrying only what it reads (prefill sizing, label).
    BenchConfig inner;
    inner.prefill = cfg.prefill;
    inner.label = name;
    auto make_queue = [&](unsigned threads, std::uint64_t seed) {
      return factory(threads, seed, inner);
    };
    service::ServiceBenchConfig labeled = cfg;
    labeled.label = name + " (raw)";
    ServiceComparison comparison;
    comparison.raw = service::run_open_loop_raw(make_queue, labeled);
    labeled.label = name + " (service)";
    comparison.service = service::run_open_loop_service(make_queue, labeled);
    return comparison;
  };
  return spec;
}

// Register one configuration of the MultiQueue. `config` is read when a
// cell starts, so the engineered entries follow the CLI's mq_tuning(). The
// rank error is O((c*s + ins + del)P) only in expectation: a soft bound,
// self-reported by the queue, shown by the live estimator for context and
// never counted as a violation.
template <typename SeqQueue = seq::BinaryHeap<K, V>, typename Config>
void add_multiqueue(std::vector<QueueSpec>& registry, std::string name,
                    std::string description, bool in_paper, Config config) {
  using Queue = MultiQueue<K, V, SeqQueue>;
  registry.push_back(make_spec(
      std::move(name), std::move(description), /*strict=*/false, in_paper,
      [config](unsigned threads, std::uint64_t seed, const BenchConfig&) {
        return std::make_unique<Queue>(threads, config(), seed);
      }));
  registry.back().rank_bound = [config](unsigned threads) {
    return Queue::soft_rank_bound(config(), threads);
  };
  registry.back().rank_bound_hard = false;
}

std::vector<QueueSpec> build_registry() {
  std::vector<QueueSpec> registry;

  registry.push_back(make_spec(
      "glock", "sequential binary heap + global lock (baseline)",
      /*strict=*/true, /*in_paper=*/true,
      [](unsigned threads, std::uint64_t seed, const BenchConfig& cfg) {
        (void)seed;
        return std::make_unique<GlobalLockQueue<K, V>>(threads, cfg.prefill);
      }));

  registry.push_back(make_spec(
      "fc", "flat-combining sequential heap (strict, single combiner)",
      /*strict=*/true, /*in_paper=*/false,
      [](unsigned threads, std::uint64_t seed, const BenchConfig& cfg) {
        return std::make_unique<FcPriorityQueue<K, V>>(
            threads, cfg.prefill == 0 ? 1024 : cfg.prefill, seed);
      }));

  registry.push_back(make_spec(
      "linden", "Linden-Jonsson lock-free skiplist PQ (strict)",
      /*strict=*/true, /*in_paper=*/true,
      [](unsigned threads, std::uint64_t seed, const BenchConfig&) {
        return std::make_unique<LindenQueue<K, V>>(threads, 32, seed);
      }));

  registry.push_back(make_spec(
      "spray", "SprayList relaxed skiplist PQ",
      /*strict=*/false, /*in_paper=*/true,
      [](unsigned threads, std::uint64_t seed, const BenchConfig&) {
        return std::make_unique<SprayList<K, V>>(threads, 1, seed);
      }));

  add_multiqueue(registry, "mq", "MultiQueue, c=4, binary-heap backed",
                 /*in_paper=*/true, [] { return kPaperMq; });

  for (const std::uint64_t k : {128ULL, 256ULL, 4096ULL}) {
    registry.push_back(make_spec(
        "klsm" + std::to_string(k),
        "k-LSM relaxed PQ, k=" + std::to_string(k),
        /*strict=*/false, /*in_paper=*/true,
        [k](unsigned threads, std::uint64_t seed, const BenchConfig&) {
          return std::make_unique<KLsmQueue<K, V>>(threads, k, seed);
        }));
    // Worst-case kP guarantee from the k-LSM paper — hard bound.
    registry.back().rank_bound = [k](unsigned threads) {
      return static_cast<double>(k) * threads;
    };
    registry.back().rank_bound_hard = true;
  }

  // ---- extensions (not part of the paper's roster) ----------------------

  registry.push_back(make_spec(
      "hunt", "Hunt et al. fine-grained locked heap (appendix D)",
      /*strict=*/true, /*in_paper=*/false,
      [](unsigned threads, std::uint64_t seed, const BenchConfig& cfg) {
        (void)seed;
        // Size generously: prefill plus room for the worst split-workload
        // drift during a measurement window.
        const std::size_t capacity = cfg.prefill * 2 + (1u << 22);
        return std::make_unique<HuntHeap<K, V>>(threads, capacity);
      }));

  registry.push_back(make_spec(
      "dlsm", "standalone distributed LSM (thread-local + spy)",
      /*strict=*/false, /*in_paper=*/false,
      [](unsigned threads, std::uint64_t seed, const BenchConfig&) {
        return std::make_unique<DlsmQueue<K, V>>(threads, seed);
      }));

  registry.push_back(make_spec(
      "slsm256", "standalone shared LSM, k=256",
      /*strict=*/false, /*in_paper=*/false,
      [](unsigned threads, std::uint64_t seed, const BenchConfig&) {
        return std::make_unique<SlsmQueue<K, V>>(threads, 256, seed);
      }));
  registry.back().rank_bound = [](unsigned threads) {
    return 256.0 * threads;
  };
  registry.back().rank_bound_hard = true;

  add_multiqueue<seq::PairingHeap<K, V>>(
      registry, "mq-pairing", "MultiQueue, c=4, pairing-heap backed",
      /*in_paper=*/false, [] { return kPaperMq; });

  add_multiqueue<seq::DaryHeap<K, V, 4>>(
      registry, "mq-dary", "MultiQueue, c=4, 4-ary-heap backed",
      /*in_paper=*/false, [] { return kPaperMq; });

  // Engineered configurations (Williams & Sanders, arXiv:2504.11652): the
  // post-paper generation. All three trade rank error for locality, so the
  // armed bound widens with the configured stickiness/buffers.
  add_multiqueue(
      registry, "mq-buf", "engineered MultiQueue: insertion+deletion buffers",
      /*in_paper=*/false,
      [] { return eng_config(/*sticky=*/false, /*buffered=*/true); });

  add_multiqueue(
      registry, "mq-sticky",
      "engineered MultiQueue: sticky rounds (s ops per draw)",
      /*in_paper=*/false,
      [] { return eng_config(/*sticky=*/true, /*buffered=*/false); });

  add_multiqueue(
      registry, "mq-eng", "engineered MultiQueue: buffers + sticky rounds",
      /*in_paper=*/false,
      [] { return eng_config(/*sticky=*/true, /*buffered=*/true); });

  registry.push_back(make_spec(
      "slotan", "Shavit-Lotan-style skiplist PQ, eager physical delete",
      /*strict=*/true, /*in_paper=*/false,
      [](unsigned threads, std::uint64_t seed, const BenchConfig&) {
        return std::make_unique<ShavitLotanQueue<K, V>>(threads, seed);
      }));

  registry.push_back(make_spec(
      "sundell", "Sundell-Tsigas-style skiplist PQ, cooperative cleanup",
      /*strict=*/true, /*in_paper=*/false,
      [](unsigned threads, std::uint64_t seed, const BenchConfig&) {
        return std::make_unique<SundellTsigasQueue<K, V>>(threads, seed);
      }));

  registry.push_back(make_spec(
      "mound", "Liu-Spear mound, lock-based (appendix D)",
      /*strict=*/true, /*in_paper=*/false,
      [](unsigned threads, std::uint64_t seed, const BenchConfig&) {
        return std::make_unique<Mound<K, V>>(threads, seed);
      }));

  registry.push_back(make_spec(
      "cbpq", "Braginsky chunk-based PQ, FAA deletes (appendix D)",
      /*strict=*/true, /*in_paper=*/false,
      [](unsigned threads, std::uint64_t seed, const BenchConfig&) {
        (void)seed;
        return std::make_unique<ChunkBasedQueue<K, V>>(threads);
      }));

  return registry;
}

}  // namespace

MqTuning& mq_tuning() {
  static MqTuning tuning;
  return tuning;
}

const std::vector<QueueSpec>& queue_registry() {
  static const std::vector<QueueSpec> registry = build_registry();
  return registry;
}

const std::vector<BenchModeSpec>& bench_mode_registry() {
  static const std::vector<BenchModeSpec> modes = {
      {"throughput", "fixed-duration MOps/s sweep (paper Figs. 1-4)"},
      {"quality", "rank-error replay, mean/stddev (paper Tables 1-5)"},
      {"latency", "per-operation percentiles, p50/p99 ns (paper §F)"},
      {"sort", "Larkin-Sen-Tarjan insert-all/delete-all phases (§F)"},
      {"service", "open-loop Poisson task dispatch, raw vs PriorityService"},
  };
  return modes;
}

const BenchModeSpec* find_bench_mode(std::string_view name) {
  for (const BenchModeSpec& mode : bench_mode_registry()) {
    if (mode.name == name) return &mode;
  }
  return nullptr;
}

const QueueSpec* find_queue(std::string_view name) {
  for (const QueueSpec& spec : queue_registry()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<const QueueSpec*> paper_roster() {
  std::vector<const QueueSpec*> roster;
  for (const QueueSpec& spec : queue_registry()) {
    if (spec.in_paper) roster.push_back(&spec);
  }
  return roster;
}

std::vector<const QueueSpec*> resolve_roster(std::string_view names) {
  if (names.empty()) return paper_roster();
  std::vector<const QueueSpec*> roster;
  std::size_t start = 0;
  while (start <= names.size()) {
    std::size_t comma = names.find(',', start);
    if (comma == std::string_view::npos) comma = names.size();
    const std::string_view name = names.substr(start, comma - start);
    if (!name.empty()) {
      if (const QueueSpec* spec = find_queue(name)) roster.push_back(spec);
    }
    start = comma + 1;
  }
  return roster;
}

}  // namespace cpq::bench
