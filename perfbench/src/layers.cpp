// Differential cells of single layers, run by traced runs only: the harness
// over a no-op queue, key generation, the sequential heap, the platform
// lock and clock, the k-LSM merge kernel and its two standalone halves.
#include <memory>
#include <string>
#include <vector>

#include "platform/spinlock.hpp"
#include "queues/klsm/merge_kernel.hpp"
#include "queues/klsm/standalone.hpp"
#include "seq/binary_heap.hpp"
#include "uniform.hpp"

namespace pb {
namespace {

constexpr double kCellS = 0.2;

// A queue that stores nothing: the uniform loop over it is the harness's
// own ceiling.
struct NullQueue {
  struct Handle {
    void insert(Key, Value) {}
    bool delete_min(Key&, Value&) { return false; }
  };
  Handle get_handle(unsigned) { return {}; }
};

// Calls `body()`, which does `batch` units of work, for about `seconds`
// and records the ns per unit as metric `name`.
template <typename Body>
void ns_per(Report& r, const std::string& name, double seconds,
            std::uint64_t batch, Body&& body) {
  cpq::Stopwatch watch;
  std::uint64_t units = 0;
  do {
    body();
    units += batch;
  } while (watch.elapsed_seconds() < seconds);
  r.set(name, "ns",
        static_cast<double>(watch.elapsed_ns()) / static_cast<double>(units),
        units);
}

// 1-thread uniform cell on a fresh queue: ns/op. The prefill is 10^5, not
// the workload's 10^6: at 10^6 items a one-item SLSM insert took ~66 us on
// a 4-CPU Xeon host, so that prefill alone would take over a minute.
template <typename Q>
void t1_op_ns(Report& r, const std::string& name, Q& queue, Tracer& tr,
              std::uint64_t seed) {
  prefill(queue, 1, seed, 100'000);
  Tallies tallies(1);
  const Window w =
      uniform_window<false>(queue, 1, kCellS, seed, tallies, tr, 0, 0, 0);
  r.set(name, "ns", 1e3 / w.mops, w.ops);
}

}  // namespace

void run_layer_cells(Run& run) {
  Report& r = run.report;
  Tracer& tr = run.tracer;
  const unsigned T = run.opt.threads;
  const std::uint64_t seed = round_seed(run.opt.seed, 99);
  Scope workload(tr, "layers", 0);

  {
    Scope s(tr, "harness/null_queue", workload.index());
    NullQueue null;
    Tallies tallies(T);
    const Window w =
        uniform_window<false>(null, T, kCellS, seed, tallies, tr, 0, 0, 0);
    r.set("harness.null_mops", "MOps/s", w.mops, w.ops);
  }
  {
    Scope s(tr, "workloads/keygen", workload.index());
    cpq::workloads::KeyGenerator gen(kUniformKeys, seed, 0);
    std::uint64_t sink = 0;
    ns_per(r, "workloads.keygen_ns", kCellS, 4096, [&] {
      for (int i = 0; i < 4096; ++i) sink += gen.next();
    });
    asm volatile("" : : "r"(sink));
  }
  {
    // Heap sized as one MultiQueue local queue under `uniform`: the prefill
    // spread over c * T = 4T heaps.
    Scope s(tr, "seq/binary_heap", workload.index());
    const std::size_t size = 1'000'000 / (4 * T);
    cpq::seq::BinaryHeap<Key, Value> heap(size + 1024);
    cpq::Xoroshiro128 rng(seed);
    for (std::size_t i = 0; i < size; ++i) heap.insert(rng.next() >> 32, i);
    constexpr int kBatch = 1024;
    double insert_ns = 0.0, delete_ns = 0.0;
    std::uint64_t batches = 0;
    cpq::Stopwatch total;
    while (total.elapsed_seconds() < kCellS) {
      const std::uint64_t t0 = cpq::fast_timestamp();
      for (int i = 0; i < kBatch; ++i) heap.insert(rng.next() >> 32, i);
      const std::uint64_t t1 = cpq::fast_timestamp();
      Key k;
      Value v;
      for (int i = 0; i < kBatch; ++i) heap.delete_min(k, v);
      const std::uint64_t t2 = cpq::fast_timestamp();
      insert_ns += ticks_to_ns(t1 - t0);
      delete_ns += ticks_to_ns(t2 - t1);
      ++batches;
    }
    const double ops = static_cast<double>(batches * kBatch);
    r.set("seq.binary_heap.insert_ns", "ns", insert_ns / ops, batches * kBatch);
    r.set("seq.binary_heap.delete_ns", "ns", delete_ns / ops, batches * kBatch);
  }
  {
    Scope s(tr, "platform", workload.index());
    cpq::Spinlock lock;
    ns_per(r, "platform.spinlock_ns", kCellS, 1024, [&] {
      for (int i = 0; i < 1024; ++i) {
        lock.lock();
        lock.unlock();
      }
    });
    std::uint64_t sink = 0;
    ns_per(r, "platform.timestamp_ns", kCellS, 1024, [&] {
      for (int i = 0; i < 1024; ++i) sink += cpq::fast_timestamp();
    });
    asm volatile("" : : "r"(sink));
  }
  {
    // Rotating random inputs, so each merge sees a fresh interleaving, as
    // the k-LSM cascade does.
    Scope s(tr, "klsm/merge", workload.index());
    using Item = std::pair<Key, Value>;
    constexpr std::size_t kRun = 4096, kPairs = 64;
    cpq::Xoroshiro128 rng(seed);
    std::vector<std::vector<Item>> runs(2 * kPairs, std::vector<Item>(kRun));
    for (auto& run_items : runs) {
      for (auto& item : run_items) item = {rng.next() >> 32, rng.next()};
      std::sort(run_items.begin(), run_items.end());
    }
    std::vector<Item> out(2 * kRun);
    std::size_t next = 0;
    std::uint64_t items = 0;
    cpq::Stopwatch watch;
    do {
      const auto& a = runs[2 * next];
      const auto& b = runs[2 * next + 1];
      cpq::klsm_detail::merge_sorted(a.data(), kRun, b.data(), kRun,
                                     out.data());
      next = (next + 1) % kPairs;
      items += 2 * kRun;
    } while (watch.elapsed_seconds() < kCellS);
    r.set("klsm.merge_mitems_s", "Mitems/s",
          static_cast<double>(items) / watch.elapsed_seconds() / 1e6, items);
  }
  {
    Scope s(tr, "klsm/standalone", workload.index());
    auto slsm = std::make_unique<cpq::SlsmQueue<Key, Value>>(1, 4096, seed);
    t1_op_ns(r, "klsm.slsm4096.t1_op_ns", *slsm, tr, seed);
    auto dlsm = std::make_unique<cpq::DlsmQueue<Key, Value>>(1, seed);
    t1_op_ns(r, "klsm.dlsm.t1_op_ns", *dlsm, tr, seed);
  }
}

}  // namespace pb
