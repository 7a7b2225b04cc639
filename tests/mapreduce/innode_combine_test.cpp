#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "mh/apps/airline.h"
#include "mh/common/error.h"
#include "mh/common/metrics.h"
#include "mh/data/airline.h"
#include "mh/mr/job_registry.h"
#include "mh/mr/kv_stream.h"
#include "mh/mr/local_runner.h"
#include "mh/mr/map_output_store.h"
#include "mh/mr/mini_mr_cluster.h"
#include "mh/net/fault_plan.h"
#include "mr_test_jobs.h"
#include "testutil/aggressive_timers.h"

/// \file innode_combine_test.cpp
/// In-node combining: the MapOutputStore's serve-time merge of the named
/// maps' outputs through the job combiner (replacement, membership-exact
/// serving, registry counts), plus the cluster-level contracts — one node
/// fetch per host per reducer, deterministic shuffle bytes, part files
/// byte-identical to the serial runner, and a faulted run with re-executed
/// maps on the same tracker contributing each map exactly once.

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
/// spec under `kJob` with in-node combining on.
struct StoreFixture {
  StoreFixture() {
    JobSpec spec = wordCountSpec({"/in"}, "/out", /*with_combiner=*/true);
    spec.conf.setBool("mapred.innode.combine", true);
    spec.validateAndDefault();
    registry.put(kJob, std::make_shared<const JobSpec>(std::move(spec)));
    store.attach(&registry, &metrics, nullptr, "store");
  }

  JobRegistry registry;
  MetricsRegistry metrics;
  MapOutputStore store;
};

TEST(InnodeCombineStoreTest, ServeErrorNamesJobAndMissingMap) {
  // A detached store serves single maps too, and has one error shape for
  // an absent map whether one map or several are named.
  MapOutputStore store;
  for (const std::vector<uint32_t>& maps :
       {std::vector<uint32_t>{5}, std::vector<uint32_t>{4, 5}}) {
    try {
      store.serve(3, 1, maps);
      FAIL() << "expected NotFoundError";
    } catch (const NotFoundError& e) {
      EXPECT_NE(std::string(e.what()).find(missingMapMessage(3, maps.front())),
                std::string::npos)
          << e.what();
    }
  }
  store.put(3, 5, {Bytes("run")});
  EXPECT_EQ(store.serve(3, 0, {5}), "run");
  EXPECT_THROW(store.serve(3, 9, {5}), InvalidArgumentError);
  EXPECT_THROW(store.serve(3, 0, {}), InvalidArgumentError);
}

TEST(InnodeCombineStoreTest, ReplacementEmitsReplacedRunsCounter) {
  StoreFixture f;
  f.store.put(kJob, 0, {Bytes("a0"), Bytes("a1")});
  EXPECT_EQ(f.metrics.counterValue("mapoutput.replaced.runs"), 0);
  f.store.put(kJob, 0, {Bytes("b0"), Bytes("b1")});
  // One run per partition was replaced.
  EXPECT_EQ(f.metrics.counterValue("mapoutput.replaced.runs"), 2);
  EXPECT_EQ(f.store.serve(kJob, 1, {0}), "b1");
  EXPECT_EQ(f.store.totalBytes(), 4u);
}

TEST(InnodeCombineStoreTest, NodeServeCombinesAllMapsIntoOneRun) {
  StoreFixture f;
  f.store.put(kJob, 0, {makeRun({{"data", 2}, {"map", 1}})});
  f.store.put(kJob, 1, {makeRun({{"data", 3}, {"sort", 4}})});
  f.store.put(kJob, 2, {makeRun({{"map", 5}})});
  // Nothing merges at put time.
  EXPECT_EQ(f.metrics.counterValue("innode.combined.runs"), 0);

  const BufferView run = f.store.serve(kJob, 0, {0, 1, 2});
  const std::map<std::string, int64_t> expected{
      {"data", 5}, {"map", 6}, {"sort", 4}};
  EXPECT_EQ(decodeCounts(run), expected);
  // One record per distinct key: the combiner really ran across maps.
  EXPECT_EQ(decodeCounts(run).size(), 3u);
}

TEST(InnodeCombineStoreTest, ReExecutedMapContributesExactlyOnce) {
  StoreFixture f;
  f.store.put(kJob, 0, {makeRun({{"data", 2}})});
  f.store.put(kJob, 1, {makeRun({{"data", 3}})});
  const BufferView before = f.store.serve(kJob, 0, {0, 1});
  EXPECT_EQ(decodeCounts(before).at("data"), 5);

  // Map 1 re-executes on this tracker (same deterministic output). Its old
  // contribution must be replaced, not added.
  f.store.put(kJob, 1, {makeRun({{"data", 3}})});
  const BufferView after = f.store.serve(kJob, 0, {0, 1});
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
  const BufferView run = f.store.serve(kJob, 0, {0, 1});
  EXPECT_EQ(decodeCounts(run).at("data"), 11);
}

TEST(InnodeCombineStoreTest, MissingMapInNodeServeIsNamed) {
  StoreFixture f;
  f.store.put(kJob, 0, {makeRun({{"data", 1}})});
  try {
    f.store.serve(kJob, 0, {0, 5});
    FAIL() << "expected NotFoundError";
  } catch (const NotFoundError& e) {
    // The fetcher forwards this so the JobTracker re-executes map 5, not
    // the group's lowest index.
    EXPECT_NE(std::string(e.what()).find("missing map=5"), std::string::npos)
        << e.what();
  }
}

TEST(InnodeCombineStoreTest, EachNodeServeMergesAndCountsInRegistry) {
  // No aggregate is kept: every serve merges its members again and counts
  // that merge in the tracker registry, and the answer is the same bytes.
  StoreFixture f;
  f.store.put(kJob, 0, {makeRun({{"data", 1}, {"map", 2}})});
  f.store.put(kJob, 1, {makeRun({{"data", 3}, {"sort", 4}})});

  const BufferView first = f.store.serve(kJob, 0, {0, 1});
  const BufferView second = f.store.serve(kJob, 0, {0, 1});
  EXPECT_EQ(Bytes(first), Bytes(second));
  const std::map<std::string, int64_t> expected{
      {"data", 4}, {"map", 2}, {"sort", 4}};
  EXPECT_EQ(decodeCounts(first), expected);
  EXPECT_EQ(f.metrics.counterValue("innode.combined.runs"), 2);
  // Four records in, three out (the two "data" records combine), per serve.
  EXPECT_EQ(f.metrics.counterValue("innode.records.in"), 8);
  EXPECT_EQ(f.metrics.counterValue("innode.records.out"), 6);
  EXPECT_GT(f.metrics.counterValue("innode.bytes.saved"), 0);

  // A single map's output is served as stored: no merge, nothing counted.
  f.store.put(kJob, 2, {makeRun({{"data", 5}})});
  const BufferView alone = f.store.serve(kJob, 0, {2});
  EXPECT_EQ(alone, makeRun({{"data", 5}}));
  EXPECT_EQ(f.metrics.counterValue("innode.combined.runs"), 2);
}

TEST(InnodeCombineStoreTest, PurgeThenServeThrowsNotFound) {
  StoreFixture f;
  f.store.put(kJob, 0, {makeRun({{"data", 1}})});
  f.store.put(kJob, 1, {makeRun({{"data", 2}})});
  EXPECT_EQ(decodeCounts(f.store.serve(kJob, 0, {0, 1})).at("data"),
            3);
  f.store.purgeJob(kJob);
  EXPECT_EQ(f.store.totalBytes(), 0u);
  try {
    f.store.serve(kJob, 0, {0, 1});
    FAIL() << "expected NotFoundError";
  } catch (const NotFoundError& e) {
    EXPECT_EQ(parseMissingMap(e.what()), 0u) << e.what();
  }
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

/// Part-file bytes under `dir`, keyed by file name.
std::map<std::string, Bytes> readPartBytes(FileSystemView& fs,
                                           const std::string& dir) {
  std::map<std::string, Bytes> parts;
  for (const auto& file : fs.listFiles(dir)) {
    const std::string base = file.substr(file.find_last_of('/') + 1);
    if (base.rfind("part-", 0) != 0) continue;
    parts[base] = fs.readRange(file, 0, fs.fileLength(file));
  }
  return parts;
}

std::map<std::string, Bytes> readPartBytes(MiniMrCluster& cluster,
                                           const std::string& dir) {
  HdfsFs fs(cluster.client());
  return readPartBytes(fs, dir);
}

/// A tracker registry counter summed over the cluster's trackers.
int64_t trackerCounterSum(MiniMrCluster& cluster, const std::string& name) {
  int64_t sum = 0;
  for (const auto& host : cluster.trackerHosts()) {
    sum += cluster.metrics().child("tasktracker." + host).counterValue(name);
  }
  return sum;
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
  // The serving trackers count the combine work; no job counter does.
  EXPECT_GT(trackerCounterSum(cluster, "innode.records.in"),
            trackerCounterSum(cluster, "innode.records.out"));
  EXPECT_GT(trackerCounterSum(cluster, "innode.combined.runs"), 0);
}

TEST(InnodeCombineClusterTest, FetchesOneNodeRunPerHostPerReducer) {
  // At the default slowstart reducers launch while maps still run. An
  // in-node reduce still waits for every map's location, then fetches one
  // run from each host that ran a map — never a partial host group.
  MiniMrCluster cluster({.num_nodes = 3, .conf = innodeClusterConf()});
  cluster.client().writeFile("/in/corpus.txt", repetitiveCorpus());
  const JobSpec spec = innodeWordCount(true);
  const uint32_t reducers = spec.num_reducers;
  const auto result = cluster.runJob(spec);
  ASSERT_TRUE(result.succeeded()) << result.error;

  std::set<std::string> map_hosts;
  for (const TaskAttemptRecord& attempt : result.history.attempts) {
    if (attempt.is_map && attempt.succeeded) map_hosts.insert(attempt.tracker);
  }
  ASSERT_GT(map_hosts.size(), 1u);
  EXPECT_EQ(result.counters.value(kShuffleGroup, kShufflePipelinedRuns),
            static_cast<int64_t>(reducers * map_hosts.size()));
}

TEST(InnodeCombineClusterTest, OneNodeShuffleBytesRepeat) {
  // One node holds every map, so each reducer fetches one run covering all
  // of them: the shuffle cannot depend on when the maps finished.
  int64_t bytes[2] = {0, 0};
  for (int64_t& run_bytes : bytes) {
    MiniMrCluster cluster({.num_nodes = 1, .conf = innodeClusterConf()});
    cluster.client().writeFile("/in/corpus.txt", repetitiveCorpus());
    const auto result = cluster.runJob(innodeWordCount(true));
    ASSERT_TRUE(result.succeeded()) << result.error;
    run_bytes = result.counters.value(kShuffleGroup, kShuffleBytes);
  }
  EXPECT_GT(bytes[0], 0);
  EXPECT_EQ(bytes[0], bytes[1]);
}

/// Runs `spec` over `input` under the LocalJobRunner and on a 3-node
/// cluster with in-node combining on, and expects identical part files.
void expectPartsMatchLocalRunner(JobSpec spec, const std::string& input) {
  namespace stdfs = std::filesystem;
  const stdfs::path root = stdfs::temp_directory_path() /
                           ("mh_innode_" + std::to_string(::getpid()));
  stdfs::remove_all(root);
  LocalFs local(512);
  local.writeFile((root / "in" / "input").string(), input);
  JobSpec serial = spec;
  serial.input_paths = {(root / "in").string()};
  serial.output_dir = (root / "out").string();
  const JobResult expected = LocalJobRunner(local).run(std::move(serial));
  ASSERT_TRUE(expected.succeeded()) << expected.error;
  const auto expected_parts = readPartBytes(local, (root / "out").string());
  stdfs::remove_all(root);
  ASSERT_FALSE(expected_parts.empty());

  MiniMrCluster cluster({.num_nodes = 3, .conf = innodeClusterConf()});
  cluster.client().writeFile("/in/input", input);
  spec.input_paths = {"/in"};
  spec.output_dir = "/out";
  spec.conf.setBool("mapred.innode.combine", true);
  const JobResult result = cluster.runJob(std::move(spec));
  ASSERT_TRUE(result.succeeded()) << result.error;
  EXPECT_GT(trackerCounterSum(cluster, "innode.combined.runs"), 0);
  EXPECT_EQ(readPartBytes(cluster, "/out"), expected_parts);
}

TEST(InnodeCombineClusterTest, WordCountPartsMatchLocalRunner) {
  expectPartsMatchLocalRunner(innodeWordCount(true), repetitiveCorpus());
}

TEST(InnodeCombineClusterTest, AirlineCombinerPartsMatchLocalRunner) {
  data::AirlineGenerator gen({.seed = 5, .rows = 400});
  expectPartsMatchLocalRunner(
      apps::makeAirlineDelayJob(apps::AirlineVariant::kCombiner, {"/in"},
                                "/out", /*num_reducers=*/2),
      gen.generateCsv());
}

TEST(InnodeCombineClusterTest, ReexecutionOnSameTrackerContributesOnce) {
  // A map completes, then a scripted shuffle-fetch failure forces the
  // JobTracker to re-execute it — on the same (only) tracker, so the new
  // attempt must REPLACE its prior output in the store, and the next node
  // serve must merge it once, not add it to the old one. Byte-identical
  // parts and exact record counters against a fault-free reference prove
  // exactly-once.
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
  plan->addRule({.match = {.method = "getMapOutput"},
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
