// Self-test of the benchmark's own checks: each injects the fault a check
// exists to catch and fails if the check does not see it, and runs the
// clean case to show the check raises no false alarm.
#include <cstdio>
#include <memory>
#include <vector>

#include "queues/globallock.hpp"
#include "queues/multiqueue.hpp"
#include "service.hpp"
#include "sssp.hpp"
#include "uniform.hpp"

namespace pb {
namespace {

// Wraps a queue and, one insert in `every`, drops the item (kDrop) or
// inserts it twice (kDuplicate).
enum class Fault { kNone, kDrop, kDuplicate };

template <typename Q>
class FaultyQueue {
 public:
  FaultyQueue(Q& inner, Fault fault, std::uint64_t every)
      : inner_(inner), fault_(fault), every_(every) {}

  class Handle {
   public:
    Handle(FaultyQueue& q, unsigned tid)
        : q_(q), inner_(q.inner_.get_handle(tid)) {}
    void insert(Key key, Value value) {
      const bool hit = q_.fault_ != Fault::kNone && ++n_ % q_.every_ == 0;
      if (hit && q_.fault_ == Fault::kDrop) return;
      inner_.insert(key, value);
      if (hit) inner_.insert(key, value);
    }
    bool delete_min(Key& key, Value& value) {
      return inner_.delete_min(key, value);
    }

   private:
    FaultyQueue& q_;
    decltype(std::declval<Q&>().get_handle(0u)) inner_;
    std::uint64_t n_ = 0;
  };
  Handle get_handle(unsigned tid) { return Handle(*this, tid); }

 private:
  Q& inner_;
  Fault fault_;
  std::uint64_t every_;
};

std::uint64_t uniform_failures(Fault fault, unsigned threads,
                               std::uint64_t seed) {
  cpq::MultiQueue<Key, Value> mq(threads, 4, seed);
  FaultyQueue<cpq::MultiQueue<Key, Value>> queue(mq, fault, 1000);
  Tracer tracer;
  const Fingerprint prefilled = prefill(queue, threads, seed, 100'000);
  Tallies tallies(threads);
  uniform_window<false>(queue, threads, 0.05, seed, tallies, tracer, 0, 0, 0);
  const Fingerprint drained = drained_fingerprint(queue, threads);
  std::uint64_t attempted = 0;
  return conservation_failures(prefilled, tallies, drained, attempted);
}

// Failures counted for one SSSP solve over an mq wrapped in FaultyQueue
// (one insert in 500 faulty).
std::uint64_t sssp_failures_with(Fault fault, const Graph& g,
                                 const std::vector<std::uint64_t>& truth,
                                 unsigned threads, std::uint64_t seed) {
  cpq::MultiQueue<Key, Value> mq(threads, 4, seed);
  FaultyQueue<cpq::MultiQueue<Key, Value>> queue(mq, fault, 500);
  Tracer tracer;
  return sssp_failures(
      parallel_sssp<false>(g, 0, queue, threads, tracer, 0, 0, 0), truth);
}

double lag_p99_us(std::uint64_t stall_ns, unsigned threads,
                  std::uint64_t seed) {
  const unsigned producers = std::max(1u, threads / 2);
  const auto schedule = poisson_schedule(200e3, producers, 0.3, seed);
  cpq::GlobalLockQueue<Key, Value> queue(threads);
  Tracer tracer;
  const OpenLoop r = open_loop<false>(
      queue, schedule, std::max(1u, threads - producers), 0.3,
      [&](auto&& sink) { drain(queue, sink); }, tracer, 0, 0, 0, stall_ns);
  return quantile(r.lag_us, 0.99);
}

}  // namespace

int self_test(const Options& opt) {
  int bad = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("self-test %-58s %s\n", what, ok ? "ok" : "FAILED");
    bad += !ok;
  };
  const unsigned T = opt.threads;
  const std::uint64_t seed = opt.seed;

  expect(uniform_failures(Fault::kNone, T, seed) == 0,
         "clean queue: no lost or duplicated items");
  expect(uniform_failures(Fault::kDrop, T, seed) > 0,
         "queue dropping 1 in 1000 inserts: failures counted");
  expect(uniform_failures(Fault::kDuplicate, T, seed) > 0,
         "queue duplicating 1 in 1000 inserts: failures counted");

  const Graph g = Graph::random(1u << 12, 8, seed);
  const auto truth = dijkstra(g, 0);
  expect(sssp_failures_with(Fault::kNone, g, truth, T, seed) == 0,
         "sssp: exact distances, no lost or duplicated entries");
  // A lost entry leaves the pending count above zero for good: the stall
  // watch must end the solve and the loss must be counted.
  expect(sssp_failures_with(Fault::kDrop, g, truth, T, seed) > 0,
         "sssp: queue dropping 1 in 500 inserts: failures counted");
  expect(sssp_failures_with(Fault::kDuplicate, g, truth, T, seed) > 0,
         "sssp: queue duplicating 1 in 500 inserts: failures counted");
  SsspResult res;
  res.dist = truth;
  res.dist[g.vertices() / 2] += 1;
  expect(sssp_failures(res, truth) == 1,
         "sssp: one corrupted distance counted");

  // A 50 ms stall of one of two producers makes ~8% of a 300 ms window's
  // tasks late by up to 50 ms; a stall of the host can make the on-time
  // p99 a few ms, not that.
  const double on_time = lag_p99_us(0, T, seed);
  const double stalled = lag_p99_us(50'000'000, T, seed);
  std::printf("self-test arrival lag p99: %.1f us on time, %.1f us with a "
              "50 ms producer stall\n",
              on_time, stalled);
  expect(stalled > 10'000.0 && stalled > 4.0 * on_time,
         "stalled producer raises the arrival lag");

  expect(uniform_keys_checksum(seed, T) == uniform_keys_checksum(seed, T),
         "same seed: same key streams");
  expect(uniform_keys_checksum(seed, T) != uniform_keys_checksum(seed + 1, T),
         "different seed: different key streams");
  expect(Graph::random(1u << 12, 8, seed).checksum() == g.checksum(),
         "same seed: same graph");
  expect(Graph::random(1u << 12, 8, seed + 1).checksum() != g.checksum(),
         "different seed: different graph");
  const auto sched = [&](std::uint64_t s) {
    return schedule_checksum(poisson_schedule(600e3, 2, 0.01, s));
  };
  expect(sched(seed) == sched(seed), "same seed: same arrival schedule");
  expect(sched(seed) != sched(seed + 1),
         "different seed: different arrival schedule");
  return bad;
}

}  // namespace pb
