// Tests for the benchmark framework itself: key generators, workload
// choosers, statistics, the rank-error replay engine, table rendering, and
// option parsing.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_framework/harness.hpp"
#include "bench_framework/json_out.hpp"
#include "bench_framework/latency.hpp"
#include "bench_framework/options.hpp"
#include "bench_framework/stats.hpp"
#include "bench_framework/table.hpp"
#include "workloads/keyspace.hpp"
#include "workloads/shape.hpp"

namespace cpq::bench {
namespace {

using workloads::KeyConfig;
using workloads::KeyGenerator;
using workloads::OpChooser;
using workloads::Workload;

// ---- JSON-lines output -------------------------------------------------

TEST(JsonOut, RoundTripsEveryField) {
  const JsonRecord record{"Fig. 1 — uniform workload", "klsm256",
                          "throughput_mops", 8, 12.3456789012345678, 0.5625,
                          10};
  JsonRecord parsed;
  ASSERT_TRUE(parse_json_record(to_json_line(record), parsed));
  EXPECT_EQ(parsed, record);
}

TEST(JsonOut, RoundTripsHostileStringsAndExtremeDoubles) {
  JsonRecord record;
  record.experiment = "quote\" backslash\\ tab\t newline\n ctrl\x01 end";
  record.queue = "mq";
  record.metric = "rank_error_mean";
  record.threads = 4096;
  record.mean = 1.7976931348623157e308;  // max double round-trips via %.17g
  record.ci95 = -0.0001220703125;
  record.reps = 1;
  JsonRecord parsed;
  ASSERT_TRUE(parse_json_record(to_json_line(record), parsed));
  EXPECT_EQ(parsed, record);
}

TEST(JsonOut, ParserToleratesWhitespaceAndKeyOrder) {
  JsonRecord parsed;
  ASSERT_TRUE(parse_json_record(
      "  { \"reps\" : 3 , \"mean\" : 1.5 , \"ci95\" : 0.25 ,\n"
      "    \"metric\" : \"throughput_mops\" , \"queue\" : \"mq\" ,\n"
      "    \"threads\" : 2 , \"experiment\" : \"fig1\" }  ",
      parsed));
  JsonRecord expected{"fig1", "mq", "throughput_mops", 2, 1.5, 0.25, 3};
  expected.schema_version = 1;  // no schema_version key = v1 file
  EXPECT_EQ(parsed, expected);
}

TEST(JsonOut, SchemaVersionRoundTripsAndValidates) {
  // The writer stamps the current version on every line.
  const std::string line = to_json_line(
      {"fig1", "mq", "throughput_mops", 2, 1.5, 0.25, 3});
  EXPECT_NE(line.find("\"schema_version\":4"), std::string::npos);
  JsonRecord parsed;
  ASSERT_TRUE(parse_json_record(line, parsed));
  EXPECT_EQ(parsed.schema_version, kJsonSchemaVersion);
  // Older versions are accepted: 1 explicitly as well as implicitly, 2 (the
  // pre-workloads schema) and 3 (pre-telemetry) explicitly.
  ASSERT_TRUE(parse_json_record(
      R"({"schema_version":1,"experiment":"e","threads":1,"queue":"q","metric":"m","mean":1,"ci95":0,"reps":1})",
      parsed));
  EXPECT_EQ(parsed.schema_version, 1u);
  ASSERT_TRUE(parse_json_record(
      R"({"schema_version":2,"experiment":"e","threads":1,"queue":"q","metric":"m","mean":1,"ci95":0,"reps":1})",
      parsed));
  EXPECT_EQ(parsed.schema_version, 2u);
  ASSERT_TRUE(parse_json_record(
      R"({"schema_version":3,"experiment":"e","threads":1,"queue":"q","metric":"m","mean":1,"ci95":0,"reps":1})",
      parsed));
  EXPECT_EQ(parsed.schema_version, 3u);
  // Future versions and nonsense are schema drift, as are duplicates.
  EXPECT_FALSE(parse_json_record(
      R"({"schema_version":5,"experiment":"e","threads":1,"queue":"q","metric":"m","mean":1,"ci95":0,"reps":1})",
      parsed));
  EXPECT_FALSE(parse_json_record(
      R"({"schema_version":0,"experiment":"e","threads":1,"queue":"q","metric":"m","mean":1,"ci95":0,"reps":1})",
      parsed));
  EXPECT_FALSE(parse_json_record(
      R"({"schema_version":2,"schema_version":2,"experiment":"e","threads":1,"queue":"q","metric":"m","mean":1,"ci95":0,"reps":1})",
      parsed));
}

TEST(JsonOut, NullMeanRoundTripsForUnavailableMetrics) {
  JsonRecord record{"fig1", "mq", "perf_cycles_per_op", 2, 0.0, 0.0, 1};
  record.mean_is_null = true;
  const std::string line = to_json_line(record);
  EXPECT_NE(line.find("\"mean\":null"), std::string::npos);
  JsonRecord parsed;
  ASSERT_TRUE(parse_json_record(line, parsed));
  EXPECT_TRUE(parsed.mean_is_null);
  EXPECT_EQ(parsed, record);
  // null is only valid for mean; elsewhere it is malformed input.
  EXPECT_FALSE(parse_json_record(
      R"({"experiment":"e","threads":1,"queue":"q","metric":"m","mean":1,"ci95":null,"reps":1})",
      parsed));
}

TEST(JsonOut, ParserRejectsSchemaDrift) {
  const std::string good = to_json_line(
      {"fig1", "mq", "throughput_mops", 2, 1.5, 0.25, 3});
  JsonRecord parsed;
  ASSERT_TRUE(parse_json_record(good, parsed));
  // Unknown key.
  EXPECT_FALSE(parse_json_record(
      R"({"experiment":"e","threads":1,"queue":"q","metric":"m","mean":1,"ci95":0,"reps":1,"extra":7})",
      parsed));
  // Missing key.
  EXPECT_FALSE(parse_json_record(
      R"({"experiment":"e","threads":1,"queue":"q","metric":"m","mean":1,"ci95":0})",
      parsed));
  // Duplicated key.
  EXPECT_FALSE(parse_json_record(
      R"({"experiment":"e","experiment":"e","threads":1,"queue":"q","metric":"m","mean":1,"ci95":0,"reps":1})",
      parsed));
  // Trailing garbage, truncation, and non-objects.
  EXPECT_FALSE(parse_json_record(good + "x", parsed));
  EXPECT_FALSE(parse_json_record(good.substr(0, good.size() - 5), parsed));
  EXPECT_FALSE(parse_json_record("[]", parsed));
  EXPECT_FALSE(parse_json_record("", parsed));
}

TEST(JsonOut, SinkAppendsParsableLinesToFile) {
  const std::string path = ::testing::TempDir() + "cpq_json_sink_test.jsonl";
  std::remove(path.c_str());
  JsonSink& sink = JsonSink::instance();
  sink.set_path(path);
  const JsonRecord a{"fig1", "mq", "throughput_mops", 2, 1.5, 0.25, 3};
  const JsonRecord b{"fig1", "linden", "throughput_mops", 2, 0.75, 0.125, 3};
  sink.record(a);
  sink.record(b);
  sink.set_path("");  // disable again for the rest of the suite
  EXPECT_FALSE(sink.enabled());

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[512];
  std::vector<JsonRecord> parsed;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    std::string text(line);
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
      text.pop_back();
    }
    JsonRecord record;
    ASSERT_TRUE(parse_json_record(text, record)) << text;
    parsed.push_back(record);
  }
  std::fclose(f);
  std::remove(path.c_str());
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0], a);
  EXPECT_EQ(parsed[1], b);
}

TEST(JsonOut, StatusFieldRoundTripsAndValidates) {
  const JsonRecord record{"fig1", "mq", "throughput_mops",
                          2,      0.0,  0.0,
                          0,      "failed"};
  JsonRecord parsed;
  ASSERT_TRUE(parse_json_record(to_json_line(record), parsed));
  EXPECT_EQ(parsed.status, "failed");
  EXPECT_EQ(parsed, record);
  // Pre-status files omit the key; it reads back as "ok".
  ASSERT_TRUE(parse_json_record(
      R"({"experiment":"e","threads":1,"queue":"q","metric":"m","mean":1,"ci95":0,"reps":1})",
      parsed));
  EXPECT_EQ(parsed.status, "ok");
  // Unknown values and duplicates are schema drift.
  EXPECT_FALSE(parse_json_record(
      R"({"experiment":"e","threads":1,"queue":"q","metric":"m","mean":1,"ci95":0,"reps":1,"status":"maybe"})",
      parsed));
  EXPECT_FALSE(parse_json_record(
      R"({"experiment":"e","threads":1,"queue":"q","metric":"m","mean":1,"ci95":0,"reps":1,"status":"ok","status":"ok"})",
      parsed));
}

// ---- latency percentiles -------------------------------------------------

TEST(Percentiles, NearestRankExactValues) {
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const LatencyPercentiles p = percentiles_of(hundred);
  EXPECT_EQ(p.samples, 100u);
  EXPECT_DOUBLE_EQ(p.p50_ns, 50.0);
  EXPECT_DOUBLE_EQ(p.p90_ns, 90.0);
  EXPECT_DOUBLE_EQ(p.p99_ns, 99.0);
  EXPECT_DOUBLE_EQ(p.max_ns, 100.0);
}

TEST(Percentiles, SmallSampleTailIsNotUnderReported) {
  // Regression: the old floor(q*(n-1)) indexing made "p99" of 10 samples
  // read the 9th value; nearest-rank ceil(q*n) reads the maximum.
  std::vector<double> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const LatencyPercentiles p = percentiles_of(ten);
  EXPECT_DOUBLE_EQ(p.p50_ns, 5.0);
  EXPECT_DOUBLE_EQ(p.p90_ns, 9.0);
  EXPECT_DOUBLE_EQ(p.p99_ns, 10.0);
  EXPECT_DOUBLE_EQ(p.max_ns, 10.0);

  std::vector<double> one = {7.0};
  const LatencyPercentiles single = percentiles_of(one);
  EXPECT_DOUBLE_EQ(single.p50_ns, 7.0);
  EXPECT_DOUBLE_EQ(single.p99_ns, 7.0);

  std::vector<double> none;
  EXPECT_EQ(percentiles_of(none).samples, 0u);
}

TEST(Percentiles, HistogramOverloadMatchesVectorWithinBucketError) {
  obs::LogHistogram hist;
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) {
    hist.record(static_cast<std::uint64_t>(i));
    values.push_back(i);
  }
  const LatencyPercentiles hv = percentiles_of(hist);
  const LatencyPercentiles vv = percentiles_of(values);
  EXPECT_EQ(hv.samples, vv.samples);
  EXPECT_NEAR(hv.p50_ns, vv.p50_ns,
              vv.p50_ns / obs::LogHistogram::kSubBuckets + 1.0);
  EXPECT_NEAR(hv.p99_ns, vv.p99_ns,
              vv.p99_ns / obs::LogHistogram::kSubBuckets + 1.0);
  EXPECT_DOUBLE_EQ(hv.max_ns, vv.max_ns);  // max is exact, not quantized
}

// ---- key generators --------------------------------------------------

TEST(KeyGen, UniformStaysInRange) {
  for (const unsigned bits : {8u, 16u, 32u}) {
    KeyGenerator gen(KeyConfig::uniform(bits), 1, 0);
    const std::uint64_t limit = std::uint64_t{1} << bits;
    for (int i = 0; i < 10000; ++i) EXPECT_LT(gen.next(), limit);
  }
}

TEST(KeyGen, Uniform8BitHitsManyDuplicates) {
  KeyGenerator gen(KeyConfig::uniform(8), 1, 0);
  std::vector<int> buckets(256, 0);
  for (int i = 0; i < 25600; ++i) ++buckets[gen.next()];
  int covered = 0;
  for (int count : buckets) covered += (count > 0);
  EXPECT_GT(covered, 250);  // all byte values show up
}

TEST(KeyGen, AscendingTrendsUpward) {
  KeyGenerator gen(KeyConfig::ascending(10), 1, 0);
  const int n = 20000;
  std::uint64_t early = 0, late = 0;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t key = gen.next();
    if (i < n / 4) early += key;
    if (i >= 3 * n / 4) late += key;
  }
  EXPECT_GT(late, early);  // strong upward drift
}

TEST(KeyGen, DescendingTrendsDownward) {
  KeyGenerator gen(KeyConfig::descending(10), 1, 0);
  const int n = 20000;
  std::uint64_t early = 0, late = 0;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t key = gen.next();
    if (i < n / 4) early += key;
    if (i >= 3 * n / 4) late += key;
  }
  EXPECT_LT(late, early);
  // Never underflows.
  KeyGenerator deep(KeyConfig::descending(4), 1, 0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(deep.next(), KeyGenerator::kDescendingStart + 16);
  }
}

TEST(KeyGen, HoldFollowsLastDeleted) {
  KeyGenerator gen(KeyConfig::hold(4), 1, 0);
  gen.observe_deleted(1000);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t key = gen.next();
    EXPECT_GE(key, 1000u);
    EXPECT_LT(key, 1016u);
  }
  gen.observe_deleted(5000);
  EXPECT_GE(gen.next(), 5000u);
}

TEST(KeyGen, DeterministicPerThreadStream) {
  KeyGenerator a(KeyConfig::uniform(32), 42, 3);
  KeyGenerator b(KeyConfig::uniform(32), 42, 3);
  KeyGenerator c(KeyConfig::uniform(32), 42, 4);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const auto ka = a.next();
    EXPECT_EQ(ka, b.next());
    differs |= (ka != c.next());
  }
  EXPECT_TRUE(differs);
}

TEST(KeyGen, DescendingClampsInsteadOfUnderflowing) {
  // skip() fast-forwards the operation counter to just below the clamp
  // point; without the `shift < kDescendingStart` guard the next draws
  // would wrap around 2^64 and emit near-maximal keys.
  KeyGenerator gen(KeyConfig::descending(4), 1, 0);
  gen.skip(KeyGenerator::kDescendingStart - 2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LE(gen.next(), KeyGenerator::kDescendingStart + 16);
  }
  // Deep past the clamp: only the random base component remains.
  gen.skip(1'000'000);
  for (int i = 0; i < 100; ++i) EXPECT_LT(gen.next(), 16u);
}

TEST(KeyGen, HoldStartsAtZeroUntilFirstDeletion) {
  KeyGenerator gen(KeyConfig::hold(4), 1, 0);
  for (int i = 0; i < 100; ++i) EXPECT_LT(gen.next(), 16u);
  gen.observe_deleted(100);
  EXPECT_GE(gen.next(), 100u);
}

TEST(KeyGen, DifferentSeedsGiveIndependentStreams) {
  KeyGenerator a(KeyConfig::uniform(32), 42, 3);
  KeyGenerator b(KeyConfig::uniform(32), 43, 3);
  bool differs = false;
  for (int i = 0; i < 100; ++i) differs |= (a.next() != b.next());
  EXPECT_TRUE(differs);
}

TEST(KeyGen, ConfigNames) {
  EXPECT_EQ(KeyConfig::uniform(32).name(), "uniform32");
  EXPECT_EQ(KeyConfig::uniform(8).name(), "uniform8");
  EXPECT_EQ(KeyConfig::ascending().name(), "ascending");
  EXPECT_EQ(KeyConfig::descending().name(), "descending");
  EXPECT_EQ(KeyConfig::hold().name(), "hold");
}

// ---- workload choosers -------------------------------------------------

TEST(Workload, UniformIsRoughlyBalanced) {
  OpChooser chooser(Workload::kUniform, 0, 4, 1);
  int inserts = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) inserts += chooser.next_is_insert();
  EXPECT_GT(inserts, n * 0.47);
  EXPECT_LT(inserts, n * 0.53);
}

TEST(Workload, InsertFractionIsHonoured) {
  OpChooser chooser(Workload::kUniform, 0, 4, 1, 0.8);
  int inserts = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) inserts += chooser.next_is_insert();
  EXPECT_GT(inserts, n * 0.77);
  EXPECT_LT(inserts, n * 0.83);
}

TEST(Workload, SplitAssignsHalves) {
  // 4 threads: 0,1 insert; 2,3 delete.
  for (unsigned tid = 0; tid < 4; ++tid) {
    OpChooser chooser(Workload::kSplit, tid, 4, 1);
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(chooser.next_is_insert(), tid < 2);
    }
  }
  // Odd thread counts: 3 threads -> 2 inserters.
  OpChooser chooser(Workload::kSplit, 1, 3, 1);
  EXPECT_TRUE(chooser.next_is_insert());
  OpChooser deleter(Workload::kSplit, 2, 3, 1);
  EXPECT_FALSE(deleter.next_is_insert());
}

TEST(Workload, AlternatingStrictlyAlternates) {
  OpChooser chooser(Workload::kAlternating, 0, 1, 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(chooser.next_is_insert());
    EXPECT_FALSE(chooser.next_is_insert());
  }
}

TEST(Workload, BatchAlternatesInBlocks) {
  OpChooser chooser(Workload::kBatch, 0, 1, 1, 0.5, /*batch_size=*/4);
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(chooser.next_is_insert());
    for (int i = 0; i < 4; ++i) EXPECT_FALSE(chooser.next_is_insert());
  }
  // Batch size 1 degenerates to strict alternation; size 0 is repaired to 1.
  OpChooser degenerate(Workload::kBatch, 0, 1, 1, 0.5, 0);
  EXPECT_TRUE(degenerate.next_is_insert());
  EXPECT_FALSE(degenerate.next_is_insert());
  EXPECT_TRUE(degenerate.next_is_insert());
}

// ---- stats --------------------------------------------------------------

TEST(Stats, KnownValues) {
  const Summary s = summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, 2.138, 0.001);
  EXPECT_GT(s.ci95, 0.0);
}

TEST(Stats, DegenerateCases) {
  EXPECT_EQ(summarize({}).n, 0u);
  const Summary one = summarize({3.5});
  EXPECT_DOUBLE_EQ(one.mean, 3.5);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);
  EXPECT_DOUBLE_EQ(one.ci95, 0.0);
}

TEST(Stats, TQuantileMatchesTable) {
  EXPECT_NEAR(t_quantile_95(2), 4.303, 1e-9);
  EXPECT_NEAR(t_quantile_95(9), 2.262, 1e-9);
  EXPECT_NEAR(t_quantile_95(1000), 1.96, 1e-9);
}

// ---- replay -------------------------------------------------------------

TEST(Replay, StrictSequenceHasZeroRankError) {
  // Insert 0..9, then delete them in key order: every deletion removes the
  // current minimum -> rank error 0 for all.
  std::vector<std::vector<OpLogEntry>> logs(1);
  std::uint64_t ts = 0;
  for (std::uint64_t i = 0; i < 10; ++i) logs[0].push_back({ts++, i, i, true});
  for (std::uint64_t i = 0; i < 10; ++i) logs[0].push_back({ts++, i, i, false});
  std::vector<double> errors;
  std::uint64_t max_err = 99;
  replay_rank_errors(logs, errors, max_err);
  ASSERT_EQ(errors.size(), 10u);
  for (double e : errors) EXPECT_DOUBLE_EQ(e, 0.0);
  EXPECT_EQ(max_err, 0u);
}

TEST(Replay, RelaxedDeletionGetsPositiveRank) {
  // Insert keys 10,20,30; delete 30 first (rank error 2), then 10 (0),
  // then 20 (0).
  std::vector<std::vector<OpLogEntry>> logs(1);
  logs[0] = {
      {1, 10, 100, true}, {2, 20, 200, true}, {3, 30, 300, true},
      {4, 30, 300, false}, {5, 10, 100, false}, {6, 20, 200, false},
  };
  std::vector<double> errors;
  std::uint64_t max_err = 0;
  replay_rank_errors(logs, errors, max_err);
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_DOUBLE_EQ(errors[0], 2.0);
  EXPECT_DOUBLE_EQ(errors[1], 0.0);
  EXPECT_DOUBLE_EQ(errors[2], 0.0);
  EXPECT_EQ(max_err, 2u);
}

TEST(Replay, OutOfOrderDeleteIsDeferredToItsInsert) {
  // The delete of id 7 is logged with an earlier timestamp than its insert
  // (possible under racing timestamps); the replay must still account it.
  std::vector<std::vector<OpLogEntry>> logs(2);
  logs[0] = {{5, 50, 7, false}};
  logs[1] = {{2, 40, 1, true}, {8, 50, 7, true}};
  std::vector<double> errors;
  std::uint64_t max_err = 0;
  replay_rank_errors(logs, errors, max_err);
  ASSERT_EQ(errors.size(), 1u);
  // At the deferred point the tree holds {40, 50}; 50 has rank 2.
  EXPECT_DOUBLE_EQ(errors[0], 1.0);
}

TEST(Replay, MergesLogsFromManyThreadsByTimestamp) {
  std::vector<std::vector<OpLogEntry>> logs(3);
  logs[0] = {{1, 5, 1, true}, {4, 5, 1, false}};
  logs[1] = {{2, 3, 2, true}};
  logs[2] = {{3, 9, 3, true}, {6, 3, 2, false}, {7, 9, 3, false}};
  std::vector<double> errors;
  std::uint64_t max_err = 0;
  replay_rank_errors(logs, errors, max_err);
  ASSERT_EQ(errors.size(), 3u);
  // ts4: delete key 5 while {3,5,9} present -> rank error 1.
  EXPECT_DOUBLE_EQ(errors[0], 1.0);
  EXPECT_DOUBLE_EQ(errors[1], 0.0);
  EXPECT_DOUBLE_EQ(errors[2], 0.0);
}

// ---- table / options ------------------------------------------------------

TEST(Table, FormatsNumbers) {
  EXPECT_EQ(Table::format_mean_ci(12.345, 0.678), "12.35±0.68");
}

TEST(Table, PrintSmoke) {
  Table table("demo", "threads", {"a", "b"});
  table.add_row("1", {"1.0", "2.0"});
  table.add_row("2", {"3.0", "4.0"});
  table.print();  // must not crash; output inspected by humans
}

TEST(Options, EnvParsing) {
  setenv("CPQ_THREADS", "1, 2,8", 1);
  setenv("CPQ_BENCH_MS", "25", 1);
  setenv("CPQ_BENCH_REPS", "5", 1);
  setenv("CPQ_PREFILL", "1234", 1);
  setenv("CPQ_SEED", "77", 1);
  const Options options = options_from_env();
  EXPECT_EQ(options.thread_ladder, (std::vector<unsigned>{1, 2, 8}));
  EXPECT_DOUBLE_EQ(options.duration_s, 0.025);
  EXPECT_EQ(options.repetitions, 5u);
  EXPECT_EQ(options.prefill, 1234u);
  EXPECT_EQ(options.seed, 77u);
  unsetenv("CPQ_THREADS");
  unsetenv("CPQ_BENCH_MS");
  unsetenv("CPQ_BENCH_REPS");
  unsetenv("CPQ_PREFILL");
  unsetenv("CPQ_SEED");
  const Options defaults = options_from_env();
  EXPECT_EQ(defaults.thread_ladder, (std::vector<unsigned>{1, 2, 4, 8}));
}

}  // namespace
}  // namespace cpq::bench
