// Workload `uniform`: the paper's Fig. 1 / Table 1 cell. T workers flip a
// fair coin between insert and delete_min over uniform 32-bit keys on a
// queue prefilled with 10^6 items, one fresh queue per round, for mq,
// mq-eng and klsm4096. A fixed-op-count quality pass then scores each
// queue's mean rank error with the existing replay.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_framework/harness.hpp"
#include "uniform.hpp"

namespace pb {
namespace {

constexpr std::size_t kPrefill = 1'000'000;
// Operations per worker in the quality pass, and deletions per chunk of
// the replay.
constexpr std::uint64_t kQualityOps = 200'000;
constexpr std::size_t kChunk = 10'000;

// Seconds of the untimed warm-up on the prefilled queue and of the window
// per round at --seconds 10, the same whichever workload the run names. A
// k-LSM runs well below its steady rate for about half a second after its
// prefill, and its throughput swings with its merges, so a short window
// reads whichever merge it happened to catch.
struct QueueCell {
  const char* name;
  double warmup_s;
  double window_s;
};
// linden is left out: the skiplist snip race named in ROADMAP.md loses
// items under concurrency, so its runs cannot check out correct.
constexpr QueueCell kQueues[] = {
    {"mq", 0.2, 0.6}, {"mq-eng", 0.2, 1.2}, {"klsm4096", 0.5, 2.4}};
constexpr unsigned kQueueCount = 3;

struct PerQueue {
  std::vector<double> mops;  // untraced windows
  std::vector<double> mops_traced;
  std::vector<double> rank_error;  // mean per replay chunk
  double rank_error_pooled = 0.0;  // mean over every replayed deletion
  std::uint64_t rank_samples = 0;
  std::vector<double> insert_ns, delete_ns;  // sampled, traced windows
  std::vector<double> t1_op_ns;
  std::uint64_t t1_ops = 0;
  std::uint64_t traced_ops = 0;
  std::uint64_t lock_retry = 0, cas_retry = 0, backoff = 0, ebr_retire = 0;
  std::uint64_t pool_fresh = 0, pool_reused = 0;
};
PerQueue g_queues[kQueueCount];

using Logs = std::vector<std::vector<cpq::bench::OpLogEntry>>;

// One fixed-op-count quality pass on a fresh queue prefilled like the
// timed cell, logged as the harness's quality_rep logs it (a timestamp
// after every insert and every successful delete_min), but on workers a
// WorkerClock watches, so a pass the host disturbed is seen and retried.
// Returns the operation logs for the replay.
template <typename Q>
Logs quality_pass(Q& queue, unsigned threads, std::uint64_t seed) {
  cpq::bench::BenchConfig cfg;
  cfg.keys = kUniformKeys;
  cfg.prefill = kPrefill;
  Logs logs(threads + 1);
  cpq::bench::prefill_queue(queue, cfg, seed, &logs[threads]);
  cpq::SpinBarrier barrier(threads);
  cpq::run_team(threads, [&](unsigned tid) {
    auto handle = queue.get_handle(tid);
    cpq::workloads::KeyGenerator gen(kUniformKeys, seed, tid);
    cpq::Xoroshiro128 coin(cpq::thread_seed(seed ^ 0xc014f11bULL, tid));
    auto& log = logs[tid];
    log.reserve(kQualityOps);
    std::uint64_t next_id = 0;
    barrier.arrive_and_wait();
    const WorkerClock clock;
    for (std::uint64_t op = 0; op < kQualityOps; ++op) {
      if ((coin.next() & 1) != 0) {
        const Key key = gen.next();
        const std::uint64_t id = item_id(tid, next_id++);
        handle.insert(key, id);
        log.push_back({cpq::fast_timestamp(), key, id, true});
      } else {
        Key key;
        Value id;
        if (handle.delete_min(key, id)) {
          log.push_back({cpq::fast_timestamp(), key, id, false});
        }
      }
    }
  });
  return logs;
}

// Rank error of every replayed deletion of each pass; the passes replay in
// parallel, one thread each.
std::vector<std::vector<double>> replay_errors(std::vector<Logs>& passes) {
  std::vector<std::vector<double>> errors(passes.size());
  std::vector<std::thread> replays;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    replays.emplace_back([&, i] {
      std::uint64_t max_error = 0;
      cpq::bench::replay_rank_errors(passes[i], errors[i], max_error);
    });
  }
  for (auto& t : replays) t.join();
  return errors;
}

void traced_window_stats(Run& run, unsigned qi, std::uint32_t span,
                         const Counters& before, const Window& w) {
  const Counters after = Counters::now();
  PerQueue& pq = g_queues[qi];
  Tracer& tr = run.tracer;
  for (double ns : span_ns(tr, tr.intern("insert"), span)) {
    pq.insert_ns.push_back(ns);
  }
  for (double ns : span_ns(tr, tr.intern("delete_min"), span)) {
    pq.delete_ns.push_back(ns);
  }
  using C = cpq::obs::Counter;
  pq.traced_ops += w.ops;
  pq.lock_retry += after.delta(before, C::kLockRetry);
  pq.cas_retry += after.delta(before, C::kCasRetry);
  pq.backoff += after.delta(before, C::kBackoffPause);
  pq.ebr_retire += after.delta(before, C::kEbrRetire);
  pq.pool_fresh += after.pool.fresh - before.pool.fresh;
  pq.pool_reused += after.pool.reused - before.pool.reused;
  tr.counters_since(before);
}

}  // namespace

void run_uniform_round(Run& run, unsigned round) {
  const unsigned T = run.opt.threads;
  const std::uint64_t seed = round_seed(run.opt.seed, round);
  Tracer& tr = run.tracer;
  Scope workload(tr, "uniform", 0);

  if (round == 0) {
    run.input_checksums["uniform.keys"] = uniform_keys_checksum(seed, T);
  }

  for (unsigned qi = 0; qi < kQueueCount; ++qi) {
    const std::string name = kQueues[qi].name;
    const double window = kQueues[qi].window_s * run.opt.seconds / 10.0;
    Scope cell(tr, "uniform/" + name, workload.index());
    with_queue(name, T, seed, [&](auto& queue) {
      Fingerprint prefilled;
      {
        SetupTimer setup(run);
        Scope s(tr, "prefill", cell.index());
        prefilled = prefill(queue, T, seed, kPrefill);
      }
      Tallies tallies(T);
      const std::uint32_t ins = tr.intern("insert");
      const std::uint32_t del = tr.intern("delete_min");
      {
        Scope s(tr, "warmup", cell.index());
        uniform_window<false>(queue, T, kQueues[qi].warmup_s, seed ^ 4,
                              tallies, tr, 0, ins, del);
      }
      if (!run.traced(round)) {
        Scope s(tr, "timed", cell.index());
        g_queues[qi].mops.push_back(least_stolen(run, [&] {
          return uniform_window<false>(queue, T, window, seed, tallies, tr, 0,
                                       ins, del)
              .mops;
        }));
      } else {
        const Counters before = Counters::now();
        Scope s(tr, "timed_traced", cell.index());
        const Window w = uniform_window<true>(queue, T, window, seed, tallies,
                                              tr, s.index(), ins, del);
        traced_window_stats(run, qi, s.index(), before, w);
        g_queues[qi].mops_traced.push_back(w.mops);
        if (round == 1) {
          Scope t1(tr, "t1", cell.index());
          const Window one = uniform_window<false>(queue, 1, window / 2,
                                                   seed ^ 2, tallies, tr, 0,
                                                   ins, del);
          g_queues[qi].t1_op_ns.push_back(1e3 / one.mops);
          g_queues[qi].t1_ops += one.ops;
        }
      }
      Scope s(tr, "verify", cell.index());
      std::uint64_t attempted = 0;
      const Fingerprint drained = drained_fingerprint(queue, T);
      const std::uint64_t failures =
          conservation_failures(prefilled, tallies, drained, attempted);
      run.report.attempt(attempted);
      run.report.fail(failures,
                      "uniform/" + name + ": lost or duplicated items");
    });
  }
}

void finish_uniform(Run& run) {
  Report& r = run.report;
  Tracer& tr = run.tracer;
  const unsigned T = run.opt.threads;
  const std::uint64_t seed = round_seed(run.opt.seed, 0) ^ 3;
  {
    // One quality pass per queue, each retried while the host takes time
    // from its workers, then their replays.
    Scope quality(tr, "uniform/quality", 0);
    std::vector<Logs> passes;
    for (unsigned qi = 0; qi < kQueueCount; ++qi) {
      Scope s(tr, std::string("quality/") + kQueues[qi].name,
              quality.index());
      passes.push_back(least_stolen(run, [&] {
        Logs logs;
        with_queue(kQueues[qi].name, T, seed, [&](auto& queue) {
          logs = quality_pass(queue, T, seed);
        });
        return logs;
      }, true));
    }
    Scope s(tr, "replay", quality.index());
    const auto errors = replay_errors(passes);
    for (std::size_t i = 0; i < kQueueCount; ++i) {
      // A stall of the shared host (a preempted lock holder, a late
      // timestamp) inflates the chunks it falls in, so the median chunk is
      // the typical mean; the pooled mean keeps every burst.
      PerQueue& pq = g_queues[i];
      const std::vector<double>& e = errors[i];
      for (std::size_t c = 0; c + kChunk <= e.size(); c += kChunk) {
        pq.rank_error.push_back(
            mean(std::vector<double>(e.begin() + c, e.begin() + c + kChunk)));
      }
      pq.rank_error_pooled = mean(e);
      pq.rank_samples = e.size();
    }
  }
  std::vector<double> overhead;  // per queue
  for (unsigned qi = 0; qi < kQueueCount; ++qi) {
    const std::string q = kQueues[qi].name;
    PerQueue& pq = g_queues[qi];
    r.set_median("mops." + q, "MOps/s", pq.mops);
    r.set_median("rank_error." + q, "rank", pq.rank_error);
    if (!run.opt.trace) continue;
    overhead.push_back(overhead_pct(pq.mops,
                                    pq.mops_traced, true));
    const std::string p = "queues." + q + ".";
    r.set(p + "insert_ns.p50", "ns", quantile(pq.insert_ns, 0.5),
          pq.insert_ns.size());
    r.set(p + "insert_ns.p99", "ns", quantile(pq.insert_ns, 0.99),
          pq.insert_ns.size());
    r.set(p + "delete_ns.p50", "ns", quantile(pq.delete_ns, 0.5),
          pq.delete_ns.size());
    r.set(p + "delete_ns.p99", "ns", quantile(pq.delete_ns, 0.99),
          pq.delete_ns.size());
    r.set(p + "t1_op_ns", "ns", median(pq.t1_op_ns), pq.t1_ops);
    r.set(p + "rank_error_pooled", "rank", pq.rank_error_pooled,
          pq.rank_samples);
    const double kops = static_cast<double>(pq.traced_ops) / 1e3;
    r.set(p + "lock_retry_per_kop", "1/kop", pq.lock_retry / kops,
          pq.traced_ops);
    r.set(p + "cas_retry_per_kop", "1/kop", pq.cas_retry / kops,
          pq.traced_ops);
    r.set(p + "backoff_per_kop", "1/kop", pq.backoff / kops, pq.traced_ops);
    if (q == "klsm4096") {
      r.set("mm.ebr_retire_per_kop.klsm4096", "1/kop", pq.ebr_retire / kops,
            pq.traced_ops);
      r.set("mm.pool_fresh_per_kop.klsm4096", "1/kop", pq.pool_fresh / kops,
            pq.traced_ops);
      const double allocs =
          static_cast<double>(pq.pool_fresh + pq.pool_reused);
      r.set("mm.pool_reuse_pct.klsm4096", "%",
            allocs > 0 ? 100.0 * static_cast<double>(pq.pool_reused) / allocs
                       : 0.0,
            pq.pool_fresh + pq.pool_reused);
    }
  }
  if (run.opt.trace) {
    r.set_median("trace.overhead_pct.uniform", "%", overhead);
  }
}

}  // namespace pb
