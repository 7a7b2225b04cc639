#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mh/common/error.h"
#include "mh/common/metrics.h"
#include "mh/mr/job_registry.h"
#include "mh/mr/kv_stream.h"
#include "mh/mr/map_output_store.h"
#include "mh/mr/mini_mr_cluster.h"
#include "mh/net/fault_plan.h"
#include "mr_test_jobs.h"
#include "testutil/aggressive_timers.h"

/// \file innode_combine_test.cpp
/// In-node combining: the MapOutputStore's tracker-level aggregation of
/// completed map outputs (merge through the job combiner, generation-aware
/// replacement, membership-exact node serving, heap-budget charges) plus
/// the cluster-level contract — a faulted run with re-executed maps on the
/// same tracker contributes each map exactly once.

namespace mh::mr {
namespace {

using namespace testjobs;
using namespace counters;

/// A sorted (word, int64 count) kv_stream run, as one segment of a map
/// output.
Bytes makeSegment(const std::map<std::string, int64_t>& counts) {
  Bytes run;
  KvWriter writer(run);
  for (const auto& [word, count] : counts) {
    writer.write(word, MrCodec<int64_t>::enc(count));
  }
  return run;
}

/// A combiner job's map output for one partition, as a map task stores it:
/// one sorted segment plus its segment table.
Bytes makeRun(const std::map<std::string, int64_t>& counts) {
  return joinSegments({makeSegment(counts)});
}

/// Decodes a served map or node output back to word -> summed count
/// (duplicate keys sum, so the same helper reads combined and uncombined
/// outputs).
std::map<std::string, int64_t> decodeCounts(std::string_view output) {
  std::map<std::string, int64_t> counts;
  for (const std::string_view segment : splitSegments(output)) {
    KvReader reader(segment);
    std::string_view key;
    std::string_view value;
    while (reader.next(key, value)) {
      counts[std::string(key)] += MrCodec<int64_t>::dec(value);
    }
  }
  return counts;
}

constexpr JobId kJob = 7;

/// Store + registry wired like a TaskTracker would: wordcount-with-combiner
/// spec under `kJob` with in-node combining on and the given charge hook
/// (unbounded by default).
struct StoreFixture {
  explicit StoreFixture(
      MapOutputStore::TryChargeFn try_charge = [](int64_t) { return true; }) {
    JobSpec spec = wordCountSpec({"/in"}, "/out", /*with_combiner=*/true);
    spec.conf.setBool("mapred.innode.combine", true);
    spec.validateAndDefault();
    registry.put(kJob, std::make_shared<const JobSpec>(std::move(spec)));
    store.attach(&registry, &metrics, nullptr, "store",
                 std::move(try_charge));
  }

  JobRegistry registry;
  MetricsRegistry metrics;
  MapOutputStore store;
};

TEST(InnodeCombineStoreTest, GetErrorNamesJobMapAndPartition) {
  MapOutputStore store;
  try {
    store.get(3, 5, 1);
    FAIL() << "expected NotFoundError";
  } catch (const NotFoundError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("3/5"), std::string::npos) << what;
    EXPECT_NE(what.find("partition 1"), std::string::npos) << what;
  }
  store.put(3, 5, {Bytes("run")});
  EXPECT_THROW(store.get(3, 5, 9), InvalidArgumentError);
}

TEST(InnodeCombineStoreTest, ReplacementEmitsReplacedRunsCounter) {
  StoreFixture f;
  f.store.put(kJob, 0, {Bytes("a0"), Bytes("a1")});
  EXPECT_EQ(f.metrics.counterValue("mapoutput.replaced.runs"), 0);
  f.store.put(kJob, 0, {Bytes("b0"), Bytes("b1")});
  // One run per partition was replaced.
  EXPECT_EQ(f.metrics.counterValue("mapoutput.replaced.runs"), 2);
  EXPECT_EQ(*f.store.get(kJob, 0, 1), "b1");
  EXPECT_EQ(f.store.totalBytes(), 4u);
}

TEST(InnodeCombineStoreTest, NodeServeCombinesAllMapsIntoOneRun) {
  StoreFixture f;
  Counters map_counters;
  f.store.put(kJob, 0, {makeRun({{"data", 2}, {"map", 1}})}, &map_counters);
  f.store.put(kJob, 1, {makeRun({{"data", 3}, {"sort", 4}})}, &map_counters);
  f.store.put(kJob, 2, {makeRun({{"map", 5}})}, &map_counters);

  const BufferView run = f.store.serveNodeOutput(kJob, 0, {0, 1, 2});
  const std::map<std::string, int64_t> expected{
      {"data", 5}, {"map", 6}, {"sort", 4}};
  EXPECT_EQ(decodeCounts(run), expected);
  // One record per distinct key: the combiner really ran across maps.
  EXPECT_EQ(decodeCounts(run).size(), 3u);

  // put() above the min-runs threshold merged eagerly, charging the
  // triggering map's counters and the tracker-level registry signals.
  EXPECT_GT(map_counters.value(kTaskGroup, kInnodeCombineRecordsIn), 0);
  EXPECT_GT(map_counters.value(kTaskGroup, kInnodeCombineRecordsOut), 0);
  EXPECT_GT(f.metrics.counterValue("innode.combined.runs"), 0);
}

TEST(InnodeCombineStoreTest, ReExecutedMapContributesExactlyOnce) {
  StoreFixture f;
  f.store.put(kJob, 0, {makeRun({{"data", 2}})});
  f.store.put(kJob, 1, {makeRun({{"data", 3}})});
  const BufferView before = f.store.serveNodeOutput(kJob, 0, {0, 1});
  EXPECT_EQ(decodeCounts(before).at("data"), 5);

  // Map 1 re-executes on this tracker (same deterministic output). Its old
  // contribution must be replaced, not added.
  f.store.put(kJob, 1, {makeRun({{"data", 3}})});
  const BufferView after = f.store.serveNodeOutput(kJob, 0, {0, 1});
  EXPECT_EQ(decodeCounts(after).at("data"), 5);
  EXPECT_GE(f.metrics.counterValue("mapoutput.replaced.runs"), 1);
}

TEST(InnodeCombineStoreTest, NodeServeIsMembershipExact) {
  StoreFixture f;
  f.store.put(kJob, 0, {makeRun({{"data", 1}})});
  f.store.put(kJob, 1, {makeRun({{"data", 10}})});
  f.store.put(kJob, 2, {makeRun({{"data", 100}})});

  // A reducer that was told maps {0, 1} live here must not receive map 2's
  // records, even though this node holds them (2 may have been superseded
  // by a speculative re-run elsewhere).
  const BufferView run = f.store.serveNodeOutput(kJob, 0, {0, 1});
  EXPECT_EQ(decodeCounts(run).at("data"), 11);
}

TEST(InnodeCombineStoreTest, MissingMapInNodeServeIsNamed) {
  StoreFixture f;
  f.store.put(kJob, 0, {makeRun({{"data", 1}})});
  try {
    f.store.serveNodeOutput(kJob, 0, {0, 5});
    FAIL() << "expected NotFoundError";
  } catch (const NotFoundError& e) {
    // The fetcher forwards this so the JobTracker re-executes map 5, not
    // the group's lowest index.
    EXPECT_NE(std::string(e.what()).find("missing map=5"), std::string::npos)
        << e.what();
  }
}

TEST(InnodeCombineStoreTest, DeclinedBudgetServesNodeAggregateUncached) {
  // A budget that refuses growth never holds an aggregate: each serve
  // rebuilds it from the members, and the answer is the same bytes.
  StoreFixture f([](int64_t delta) { return delta <= 0; });
  f.store.put(kJob, 0, {makeRun({{"data", 1}, {"map", 2}})});
  f.store.put(kJob, 1, {makeRun({{"data", 3}, {"sort", 4}})});
  const int64_t builds_before = f.metrics.counterValue("innode.combined.runs");

  const BufferView first = f.store.serveNodeOutput(kJob, 0, {0, 1});
  const BufferView second = f.store.serveNodeOutput(kJob, 0, {0, 1});
  EXPECT_EQ(Bytes(first), Bytes(second));
  const std::map<std::string, int64_t> expected{
      {"data", 4}, {"map", 2}, {"sort", 4}};
  EXPECT_EQ(decodeCounts(first), expected);
  EXPECT_EQ(f.store.cachedBytes(), 0);
  // One partition per build: both serves merged, neither hit a cache.
  EXPECT_EQ(f.metrics.counterValue("innode.combined.runs"), builds_before + 2);
}

TEST(InnodeCombineStoreTest, PurgeReleasesCombinedCharges) {
  StoreFixture f;
  f.store.put(kJob, 0, {makeRun({{"data", 1}})});
  f.store.put(kJob, 1, {makeRun({{"data", 2}})});
  f.store.serveNodeOutput(kJob, 0, {0, 1});
  EXPECT_GT(f.store.cachedBytes(), 0);
  f.store.purgeJob(kJob);
  EXPECT_EQ(f.store.cachedBytes(), 0);
  EXPECT_EQ(f.store.totalBytes(), 0u);
  EXPECT_THROW(f.store.serveNodeOutput(kJob, 0, {0, 1}),
               NotFoundError);
}

// ---- Cluster-level contracts ----------------------------------------------

Config innodeClusterConf() {
  Config conf = testutil::aggressiveTimers();
  conf.setInt("dfs.replication", 1);
  // Small blocks so one input file becomes several map tasks per node.
  conf.setInt("dfs.blocksize", 512);
  conf.setInt("mapred.shuffle.fetch.retries", 2);
  conf.setInt("mapred.shuffle.fetch.backoff.ms", 1);
  conf.setInt("mapred.reduce.parallel.copies", 1);
  return conf;
}

std::string repetitiveCorpus() {
  static const char* kWords[] = {"data", "local", "block", "shuffle",
                                 "merge", "sort",  "map",   "reduce"};
  std::string corpus;
  for (int i = 0; i < 200; ++i) {
    for (int w = 0; w < 4; ++w) {
      corpus += kWords[(i + w) % 8];
      corpus.push_back(w == 3 ? '\n' : ' ');
    }
  }
  return corpus;
}

std::map<std::string, Bytes> readPartBytes(MiniMrCluster& cluster,
                                           const std::string& dir) {
  HdfsFs fs(cluster.client());
  std::map<std::string, Bytes> parts;
  for (const auto& file : fs.listFiles(dir)) {
    const std::string base = file.substr(file.find_last_of('/') + 1);
    if (base.rfind("part-", 0) != 0) continue;
    parts[base] = fs.readRange(file, 0, fs.fileLength(file));
  }
  return parts;
}

JobSpec innodeWordCount(bool innode) {
  JobSpec spec = wordCountSpec({"/in"}, "/out", /*with_combiner=*/true,
                               /*reducers=*/2);
  spec.conf.setBool("mapred.innode.combine", innode);
  return spec;
}

TEST(InnodeCombineClusterTest, CutsShuffleBytesAndKeepsOutputIdentical) {
  const std::string corpus = repetitiveCorpus();
  std::map<std::string, Bytes> parts_off;
  int64_t bytes_off = 0;
  {
    MiniMrCluster cluster({.num_nodes = 3, .conf = innodeClusterConf()});
    cluster.client().writeFile("/in/corpus.txt", corpus);
    const auto result = cluster.runJob(innodeWordCount(false));
    ASSERT_TRUE(result.succeeded()) << result.error;
    parts_off = readPartBytes(cluster, "/out");
    bytes_off = result.counters.value(kShuffleGroup, kShuffleBytes);
  }

  MiniMrCluster cluster({.num_nodes = 3, .conf = innodeClusterConf()});
  cluster.client().writeFile("/in/corpus.txt", corpus);
  const auto result = cluster.runJob(innodeWordCount(true));
  ASSERT_TRUE(result.succeeded()) << result.error;
  EXPECT_EQ(readPartBytes(cluster, "/out"), parts_off);
  const int64_t bytes_on =
      result.counters.value(kShuffleGroup, kShuffleBytes);
  // A key-duplicated corpus over several maps per node must shrink the
  // shuffle; the ≥2x gate lives in the benchmark, here we assert direction.
  EXPECT_LT(bytes_on, bytes_off);
  EXPECT_GT(result.counters.value(kTaskGroup, kInnodeCombineRecordsIn), 0);
}

TEST(InnodeCombineClusterTest, ReexecutionOnSameTrackerContributesOnce) {
  // Satellite: a map completes, is merged into the node aggregate, then a
  // scripted shuffle-fetch failure forces the JobTracker to re-execute it —
  // on the same (only) tracker, so the new attempt must REPLACE its prior
  // contribution in the aggregate, not add to it. Byte-identical parts and
  // exact record counters against a fault-free reference prove exactly-once.
  const std::string corpus = repetitiveCorpus();
  std::map<std::string, Bytes> expected_parts;
  Counters expected_counters;
  {
    MiniMrCluster cluster({.num_nodes = 1, .conf = innodeClusterConf()});
    cluster.client().writeFile("/in/corpus.txt", corpus);
    const auto result = cluster.runJob(innodeWordCount(true));
    ASSERT_TRUE(result.succeeded()) << result.error;
    expected_parts = readPartBytes(cluster, "/out");
    expected_counters = result.counters;
  }
  ASSERT_FALSE(expected_parts.empty());

  MiniMrCluster cluster({.num_nodes = 1, .conf = innodeClusterConf()});
  cluster.client().writeFile("/in/corpus.txt", corpus);
  auto plan = std::make_shared<net::FaultPlan>(11);
  // Exactly exhaust one fetch's retry budget: the reduce declares a
  // fetch-failure, the JobTracker re-executes the attributed map on this
  // same tracker, and the store's replacement path runs under in-node
  // combining.
  plan->addRule({.match = {.method = "getNodeOutput"},
                 .action = net::FaultAction::kError,
                 .probability = 1.0,
                 .max_fires = 2});
  cluster.network()->setFaultPlan(plan);

  const auto result = cluster.runJob(innodeWordCount(true));
  ASSERT_TRUE(result.succeeded()) << result.error;
  EXPECT_GT(plan->injectedFaults(), 0u);
  EXPECT_GE(
      cluster.metrics().child("jobtracker").counterValue("attempts.failed"),
      1);
  // The re-executed map really replaced its old runs in the store.
  int64_t replaced = 0;
  for (const auto& host : cluster.trackerHosts()) {
    replaced += cluster.metrics()
                    .child("tasktracker." + host)
                    .counterValue("mapoutput.replaced.runs");
  }
  EXPECT_GE(replaced, 1);

  EXPECT_EQ(readPartBytes(cluster, "/out"), expected_parts);
  for (const char* name :
       {kMapInputRecords, kMapOutputRecords, kReduceOutputRecords}) {
    EXPECT_EQ(result.counters.value(kTaskGroup, name),
              expected_counters.value(kTaskGroup, name))
        << name;
  }
}

}  // namespace
}  // namespace mh::mr
