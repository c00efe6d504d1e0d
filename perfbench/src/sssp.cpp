// Workload `sssp`: parallel label-correcting single-source shortest paths,
// the algorithm of examples/sssp.cpp, on a seeded random digraph (average
// degree 8) with T workers over mq, mq-eng and klsm4096. Distances are
// checked exactly against a sequential Dijkstra run during set-up.
#include <algorithm>
#include <atomic>
#include <limits>
#include <string>
#include <vector>

#include "common.hpp"
#include "platform/cache.hpp"
#include "platform/rng.hpp"
#include "seq/binary_heap.hpp"
#include "sssp.hpp"

namespace pb {

Graph Graph::random(std::uint32_t vertices, std::uint32_t avg_degree,
                    std::uint64_t seed) {
  // A connectivity backbone plus random extra edges, as in the example,
  // laid out as compressed rows.
  cpq::Xoroshiro128 rng(seed);
  const std::uint64_t edges =
      static_cast<std::uint64_t>(vertices) * avg_degree - 1;
  std::vector<std::uint32_t> from(edges), to(edges), weight(edges);
  std::uint64_t e = 0;
  for (std::uint32_t v = 1; v < vertices; ++v, ++e) {
    from[e] = static_cast<std::uint32_t>(rng.next_below(v));
    to[e] = v;
    weight[e] = static_cast<std::uint32_t>(rng.next_in(1, 100));
  }
  for (; e < edges; ++e) {
    from[e] = static_cast<std::uint32_t>(rng.next_below(vertices));
    to[e] = static_cast<std::uint32_t>(rng.next_below(vertices));
    weight[e] = static_cast<std::uint32_t>(rng.next_in(1, 100));
  }
  Graph g;
  g.offset.assign(vertices + 1, 0);
  for (std::uint64_t i = 0; i < edges; ++i) ++g.offset[from[i] + 1];
  for (std::uint32_t v = 0; v < vertices; ++v) g.offset[v + 1] += g.offset[v];
  g.edges.resize(edges);
  std::vector<std::uint32_t> fill(g.offset.begin(), g.offset.end() - 1);
  for (std::uint64_t i = 0; i < edges; ++i) {
    g.edges[fill[from[i]]++] = Edge{to[i], weight[i]};
  }
  return g;
}

std::uint64_t Graph::checksum() const {
  std::uint64_t sum = 0;
  for (std::uint32_t v = 0; v < vertices(); ++v) {
    for (std::uint32_t i = offset[v]; i < offset[v + 1]; ++i) {
      sum += mix((std::uint64_t{v} << 32 | edges[i].to) * 131 +
                 edges[i].weight);
    }
  }
  return sum;
}

std::vector<std::uint64_t> dijkstra(const Graph& g, std::uint32_t source) {
  std::vector<std::uint64_t> dist(g.vertices(), kUnreached);
  cpq::seq::BinaryHeap<std::uint64_t, std::uint32_t> heap;
  dist[source] = 0;
  heap.insert(0, source);
  std::uint64_t d;
  std::uint32_t v;
  while (heap.delete_min(d, v)) {
    if (d != dist[v]) continue;  // stale entry
    for (std::uint32_t i = g.offset[v]; i < g.offset[v + 1]; ++i) {
      const Edge& e = g.edges[i];
      if (d + e.weight < dist[e.to]) {
        dist[e.to] = d + e.weight;
        heap.insert(d + e.weight, e.to);
      }
    }
  }
  return dist;
}

std::uint64_t count_wrong(const std::vector<std::uint64_t>& dist,
                          const std::vector<std::uint64_t>& truth) {
  std::uint64_t wrong = 0;
  for (std::size_t i = 0; i < dist.size(); ++i) wrong += dist[i] != truth[i];
  return wrong;
}

namespace {

constexpr std::uint32_t kVertices = 1u << 19;
constexpr std::uint32_t kDegree = 8;

constexpr const char* kQueues[] = {"mq", "mq-eng", "klsm4096"};
constexpr unsigned kQueueCount = 3;

struct PerQueue {
  std::vector<double> seconds, seconds_traced;
  std::uint64_t pops = 0, useful = 0, polls = 0, empty = 0;
};
PerQueue g_queues[kQueueCount];

}  // namespace

void run_sssp_round(Run& run, unsigned round) {
  const unsigned T = run.opt.threads;
  Tracer& tr = run.tracer;
  Scope workload(tr, "sssp", 0);
  Graph graph;
  std::vector<std::uint64_t> truth;
  {
    SetupTimer setup(run);
    Scope s(tr, "sssp/setup", workload.index());
    graph = Graph::random(kVertices, kDegree, run.opt.seed);
    truth = dijkstra(graph, 0);
  }
  if (round == 0) run.input_checksums["sssp.graph"] = graph.checksum();

  // Solves per queue per round: one at --seconds 10, two for the named
  // workload.
  const unsigned solves =
      std::max(1u, static_cast<unsigned>(run.opt.scale("sssp") + 0.5));
  const std::uint32_t ins = tr.intern("insert");
  const std::uint32_t del = tr.intern("delete_min");
  for (unsigned qi = 0; qi < kQueueCount; ++qi) {
    const std::string name = kQueues[qi];
    Scope cell(tr, "sssp/" + name, workload.index());
    PerQueue& pq = g_queues[qi];
    // One solve on a fresh queue, its outputs checked.
    auto solve = [&](bool traced) {
      const Counters before = Counters::now();
      Scope s(tr, traced ? "timed_traced" : "timed", cell.index());
      SsspResult res;
      with_queue(name, T, round_seed(run.opt.seed, round), [&](auto& queue) {
        res = traced ? parallel_sssp<true>(graph, 0, queue, T, tr, s.index(),
                                           ins, del)
                     : parallel_sssp<false>(graph, 0, queue, T, tr, 0, ins,
                                            del);
      });
      if (traced) tr.counters_since(before);
      Scope v(tr, "verify", cell.index());
      run.report.attempt(graph.vertices() + res.pushes);
      run.report.fail(sssp_failures(res, truth),
                      "sssp/" + name + (res.stalled ? " (stalled)" : "") +
                          ": wrong distances or lost/duplicated entries");
      return res;
    };
    for (unsigned i = 0; i < solves; ++i) {
      if (run.traced(round)) {
        pq.seconds_traced.push_back(solve(true).seconds);
        continue;
      }
      const SsspResult res = least_stolen(run, [&] { return solve(false); });
      pq.seconds.push_back(res.seconds);
      pq.pops += res.pops;
      pq.useful += res.useful;
      pq.polls += res.polls;
      pq.empty += res.polls - res.pops;
    }
  }
}

void finish_sssp(Run& run) {
  std::vector<double> overhead;  // per queue
  for (unsigned qi = 0; qi < kQueueCount; ++qi) {
    const std::string q = kQueues[qi];
    const PerQueue& pq = g_queues[qi];
    run.report.set_median("sssp_s." + q, "s", pq.seconds);
    if (!run.opt.trace) continue;
    overhead.push_back(overhead_pct(pq.seconds,
                                    pq.seconds_traced, false));
    run.report.set("sssp." + q + ".useful_pct", "%",
                   100.0 * static_cast<double>(pq.useful) /
                       static_cast<double>(pq.pops),
                   pq.pops);
    run.report.set("sssp." + q + ".empty_poll_pct", "%",
                   100.0 * static_cast<double>(pq.empty) /
                       static_cast<double>(pq.polls),
                   pq.polls);
  }
  if (run.opt.trace) {
    run.report.set_median("trace.overhead_pct.sssp", "%", overhead);
  }
}

}  // namespace pb
