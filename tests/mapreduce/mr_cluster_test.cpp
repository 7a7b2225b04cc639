#include "mh/mr/mini_mr_cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <thread>

#include "mh/common/rng.h"
#include "mh/mr/local_runner.h"
#include "mr_test_jobs.h"
#include "testutil/aggressive_timers.h"

namespace mh::mr {
namespace {

using namespace testjobs;

Config fastConf() {
  Config conf = testutil::aggressiveTimers();
  conf.setInt("dfs.replication", 2);
  conf.setInt("dfs.blocksize", 512);
  return conf;
}

std::string makeCorpus(int lines, uint64_t seed) {
  static const char* kWords[] = {"data",  "local", "block", "shuffle",
                                 "merge", "sort",  "map",   "reduce"};
  Rng rng(seed);
  std::string corpus;
  for (int i = 0; i < lines; ++i) {
    const auto words = 1 + rng.uniform(8);
    for (uint64_t w = 0; w < words; ++w) {
      corpus += kWords[rng.uniform(8)];
      corpus.push_back(w + 1 == words ? '\n' : ' ');
    }
  }
  return corpus;
}

TEST(MiniMrClusterTest, WordCountDistributedMatchesReference) {
  const std::string corpus = makeCorpus(300, 5);
  MiniMrCluster cluster({.num_nodes = 3, .conf = fastConf()});
  cluster.client().writeFile("/in/corpus.txt", corpus);

  const auto result = cluster.runJob(wordCountSpec({"/in"}, "/out", true, 2));
  ASSERT_TRUE(result.succeeded()) << result.error;
  // The job's clock holds every attempt, at any speed (a warm process can
  // run this job in under a millisecond).
  ASSERT_FALSE(result.history.attempts.empty());
  for (const TaskAttemptRecord& attempt : result.history.attempts) {
    EXPECT_TRUE(attempt.finished);
    EXPECT_LE(0, attempt.start_ms);
    EXPECT_LE(attempt.start_ms, attempt.finish_ms);
    EXPECT_LE(attempt.finish_ms, result.elapsed_millis);
  }
  // Maps run where their splits live and read them over loopback.
  EXPECT_GT(cluster.network()->localBytes("read"), 0u);

  HdfsFs fs(cluster.client());
  EXPECT_EQ(readCounts(fs, "/out"), referenceCounts(corpus));
  EXPECT_EQ(readPartFiles(fs, "/out").size(), 2u);
}

TEST(MiniMrClusterTest, DistributedEqualsSerialProperty) {
  MiniMrCluster cluster({.num_nodes = 3, .conf = fastConf()});
  const std::string corpus = makeCorpus(200, 11);

  // Serial on local FS.
  const auto tmp = std::filesystem::temp_directory_path() /
                   ("mh_eq_" + std::to_string(::getpid()));
  std::filesystem::remove_all(tmp);
  LocalFs local(256);
  local.writeFile((tmp / "in.txt").string(), corpus);
  LocalJobRunner runner(local);
  const auto serial = runner.run(
      wordCountSpec({(tmp / "in.txt").string()}, (tmp / "out").string()));
  ASSERT_TRUE(serial.succeeded());

  // Distributed on HDFS.
  cluster.client().writeFile("/in/corpus.txt", corpus);
  const auto dist = cluster.runJob(wordCountSpec({"/in"}, "/out", false, 3));
  ASSERT_TRUE(dist.succeeded()) << dist.error;

  HdfsFs fs(cluster.client());
  EXPECT_EQ(readCounts(fs, "/out"),
            readCounts(local, (tmp / "out").string()));
  std::filesystem::remove_all(tmp);
}

TEST(MiniMrClusterTest, MapsAreOverwhelminglyDataLocal) {
  MiniMrCluster cluster({.num_nodes = 3, .conf = fastConf()});
  cluster.client().writeFile("/in/big.txt", makeCorpus(800, 3));

  const auto result = cluster.runJob(wordCountSpec({"/in"}, "/out"));
  ASSERT_TRUE(result.succeeded()) << result.error;

  using namespace counters;
  const int64_t local_maps = result.counters.value(kJobGroup, kDataLocalMaps);
  const int64_t remote_maps = result.counters.value(kJobGroup, kRemoteMaps);
  // Replication 2 over 3 nodes: locality should dominate strongly.
  EXPECT_GT(local_maps, 0);
  EXPECT_GE(local_maps, remote_maps * 2) << "local=" << local_maps
                                         << " remote=" << remote_maps;
}

TEST(MiniMrClusterTest, ShuffleTrafficIsMetered) {
  MiniMrCluster cluster({.num_nodes = 3, .conf = fastConf()});
  cluster.client().writeFile("/in/t.txt", makeCorpus(300, 9));
  cluster.network()->resetStats();
  const auto result = cluster.runJob(wordCountSpec({"/in"}, "/out"));
  ASSERT_TRUE(result.succeeded());
  const auto remote = cluster.network()->remoteBytes("shuffle");
  const auto local = cluster.network()->localBytes("shuffle");
  EXPECT_GT(remote + local, 0u);
  EXPECT_GT(result.counters.value(counters::kShuffleGroup,
                                  counters::kShuffleBytes),
            0);
}

TEST(MiniMrClusterTest, JobStatusProgresses) {
  MiniMrCluster cluster({.num_nodes = 2, .conf = fastConf()});
  cluster.client().writeFile("/in/t.txt", makeCorpus(100, 2));
  const JobId id = cluster.jobTracker().submit(
      wordCountSpec({"/in"}, "/out", false, 2));
  const auto result = cluster.jobTracker().wait(id);
  ASSERT_TRUE(result.succeeded());

  const auto status = cluster.jobTracker().status(id);
  EXPECT_EQ(status.state, JobState::kSucceeded);
  EXPECT_EQ(status.maps_completed, status.maps_total);
  EXPECT_EQ(status.reduces_completed, 2u);
  EXPECT_EQ(cluster.jobTracker().listJobs().size(), 1u);
}

TEST(MiniMrClusterTest, SequentialJobsShareTheCluster) {
  MiniMrCluster cluster({.num_nodes = 2, .conf = fastConf()});
  cluster.client().writeFile("/in/t.txt", "a b a\n");
  ASSERT_TRUE(cluster.runJob(wordCountSpec({"/in"}, "/out1")).succeeded());
  ASSERT_TRUE(cluster.runJob(wordCountSpec({"/in"}, "/out2")).succeeded());
  HdfsFs fs(cluster.client());
  EXPECT_EQ(readCounts(fs, "/out1"), readCounts(fs, "/out2"));
}

TEST(MiniMrClusterTest, FailingTaskRetriesThenFailsJob) {
  MiniMrCluster cluster({.num_nodes = 2, .conf = fastConf()});
  cluster.client().writeFile("/in/t.txt", "x\n");
  JobSpec spec = wordCountSpec({"/in"}, "/out");
  spec.mapper = mapperFromLambda(
      [](std::string_view, std::string_view, TaskContext&) {
        throw IoError("always fails");
      });
  const auto result = cluster.runJob(std::move(spec));
  EXPECT_FALSE(result.succeeded());
  EXPECT_NE(result.error.find("always fails"), std::string::npos);
  EXPECT_GE(result.counters.value(counters::kJobGroup,
                                  counters::kFailedMaps),
            4);
}

TEST(MiniMrClusterTest, FlakyTaskSucceedsOnRetry) {
  MiniMrCluster cluster({.num_nodes = 2, .conf = fastConf()});
  cluster.client().writeFile("/in/t.txt", "y y\n");
  static std::atomic<int> attempts{0};
  attempts = 0;
  JobSpec spec = wordCountSpec({"/in"}, "/out");
  spec.mapper = mapperFromLambda(
      [](std::string_view, std::string_view value, TaskContext& ctx) {
        if (attempts.fetch_add(1) == 0) {
          throw IoError("transient failure");
        }
        for (const auto& w : splitWhitespace(value)) {
          ctx.emitTyped<std::string, int64_t>(std::string(w), 1);
        }
      });
  const auto result = cluster.runJob(std::move(spec));
  ASSERT_TRUE(result.succeeded()) << result.error;
  HdfsFs fs(cluster.client());
  EXPECT_EQ(readCounts(fs, "/out").at("y"), 2);
}

TEST(MiniMrClusterTest, TrackerCrashMidJobStillCompletes) {
  Config conf = fastConf();
  conf.setInt("mapred.tasktracker.map.tasks.maximum", 1);
  MiniMrCluster cluster({.num_nodes = 3, .conf = conf});
  cluster.client().writeFile("/in/t.txt", makeCorpus(400, 21));

  // Slow mapper gives us time to kill a node mid-flight.
  JobSpec spec = wordCountSpec({"/in"}, "/out");
  spec.mapper = mapperFromLambda(
      [](std::string_view, std::string_view value, TaskContext& ctx) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        for (const auto& w : splitWhitespace(value)) {
          ctx.emitTyped<std::string, int64_t>(toLowerAscii(w), 1);
        }
      });
  const JobId id = cluster.jobTracker().submit(std::move(spec));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  cluster.killNode("node01");

  const auto result = cluster.jobTracker().wait(id);
  ASSERT_TRUE(result.succeeded()) << result.error;
  HdfsFs fs(cluster.client());
  EXPECT_EQ(readCounts(fs, "/out"),
            referenceCounts(makeCorpus(400, 21)));
}

TEST(MiniMrClusterTest, OomFailTaskPolicyFailsTheJob) {
  Config conf = fastConf();
  conf.setInt("mapred.tasktracker.memory.bytes", 1000);
  conf.set("mapred.tasktracker.oom.policy", "fail-task");
  MiniMrCluster cluster({.num_nodes = 2, .conf = conf});
  cluster.client().writeFile("/in/t.txt", "leak\n");

  JobSpec spec = wordCountSpec({"/in"}, "/out");
  spec.mapper = mapperFromLambda(
      [](std::string_view, std::string_view, TaskContext& ctx) {
        ctx.allocateHeap(10'000);  // blows the 1000-byte budget
      });
  const auto result = cluster.runJob(std::move(spec));
  EXPECT_FALSE(result.succeeded());
  EXPECT_NE(result.error.find("OutOfMemory"), std::string::npos);
}

TEST(MiniMrClusterTest, OomCrashTrackerPolicyKillsDaemonJobRecovers) {
  // The paper's cascade, in miniature: one leaky task run crashes its whole
  // TaskTracker; the JobTracker expires it and the surviving trackers rerun
  // the work.
  Config conf = fastConf();
  conf.setInt("mapred.tasktracker.memory.bytes", 1000);
  conf.set("mapred.tasktracker.oom.policy", "crash-tracker");
  MiniMrCluster cluster({.num_nodes = 3, .conf = conf});
  cluster.client().writeFile("/in/t.txt", "leak once\n");

  static std::atomic<int> leaks{0};
  leaks = 0;
  JobSpec spec = wordCountSpec({"/in"}, "/out");
  spec.mapper = mapperFromLambda(
      [](std::string_view, std::string_view value, TaskContext& ctx) {
        if (leaks.fetch_add(1) == 0) {
          ctx.allocateHeap(10'000);  // first run: leak -> tracker crash
        }
        for (const auto& w : splitWhitespace(value)) {
          ctx.emitTyped<std::string, int64_t>(std::string(w), 1);
        }
      });
  const auto result = cluster.runJob(std::move(spec));
  ASSERT_TRUE(result.succeeded()) << result.error;

  // Exactly one tracker died.
  int dead = 0;
  for (const auto& host : cluster.trackerHosts()) {
    if (!cluster.taskTracker(host).running()) ++dead;
  }
  EXPECT_EQ(dead, 1);
  HdfsFs fs(cluster.client());
  EXPECT_EQ(readCounts(fs, "/out").at("leak"), 1);
}

TEST(MiniMrClusterTest, ReduceHeapChargesOnlyShuffleWorkingSet) {
  // The streaming merge never decodes runs into a materialized record
  // vector, so the reduce working set charged against the tracker budget is
  // exactly the fetched runs — a materializing merge would at least double
  // the peak. One reducer makes the expected charge equal the job's total
  // SHUFFLE_BYTES.
  MiniMrCluster cluster({.num_nodes = 3, .conf = fastConf()});
  cluster.client().writeFile("/in/corpus.txt", makeCorpus(300, 23));

  const auto result = cluster.runJob(wordCountSpec({"/in"}, "/out", false, 1));
  ASSERT_TRUE(result.succeeded()) << result.error;

  using namespace counters;
  const int64_t shuffle_bytes =
      result.counters.value(kShuffleGroup, kShuffleBytes);
  ASSERT_GT(shuffle_bytes, 0);
  int64_t max_peak = 0;
  for (const auto& host : cluster.trackerHosts()) {
    max_peak = std::max(max_peak, cluster.taskTracker(host).heapPeak());
  }
  // The reducer holds every fetched record at the end. SHUFFLE_BYTES also
  // counts each output's segment table (16 B for a one-segment output),
  // which a fold drops with the buffer it folded, so the peak may fall
  // short of SHUFFLE_BYTES by at most one table per map.
  const auto maps = static_cast<int64_t>(
      cluster.jobTracker().listJobs().front().maps_total);
  EXPECT_GE(max_peak, shuffle_bytes - 16 * maps);
  // Under load a timed-out map attempt can still be unwinding while the
  // reduce runs, so its (single-split) arena charge may ride on top of the
  // peak — but a materializing merge would at least double it.
  EXPECT_LT(max_peak, 2 * shuffle_bytes);
  // Charges drain when attempts end; a stale timed-out attempt may outlive
  // the job by a beat.
  int64_t still_used = 0;
  for (int spin = 0; spin < 200; ++spin) {
    still_used = 0;
    for (const auto& host : cluster.trackerHosts()) {
      still_used += cluster.taskTracker(host).heapUsed();
    }
    if (still_used == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(still_used, 0);  // released once every attempt ended

  // The new shuffle/merge observability counters made it into the report.
  EXPECT_GT(result.counters.value(kTaskGroup, kMergeSegments), 0);
  EXPECT_LE(result.counters.value(kTaskGroup, kMergeSegments),
            result.counters.value(kJobGroup, kLaunchedMaps));
  EXPECT_GE(result.counters.value(kShuffleGroup, kShuffleFetchMillis), 0);
}

TEST(MiniMrClusterTest, SpeculativeExecutionRescuesStraggler) {
  Config conf = fastConf();
  conf.setBool("mapred.speculative.execution", true);
  conf.setInt("mapred.speculative.min.ms", 150);
  conf.setInt("mapred.tasktracker.map.tasks.maximum", 1);
  MiniMrCluster cluster({.num_nodes = 3, .conf = conf});
  cluster.client().writeFile("/in/t.txt", makeCorpus(60, 31));

  // The first map invocation becomes a straggler (2.5 s stall); its backup
  // attempt on another tracker takes the fast path.
  static std::atomic<bool> straggler_taken{false};
  straggler_taken = false;
  JobSpec spec = wordCountSpec({"/in"}, "/out");
  spec.mapper = mapperFromLambda(
      [](std::string_view, std::string_view value, TaskContext& ctx) {
        bool expected = false;
        if (straggler_taken.compare_exchange_strong(expected, true)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2500));
        }
        for (const auto& w : splitWhitespace(value)) {
          ctx.emitTyped<std::string, int64_t>(toLowerAscii(w), 1);
        }
      });
  const auto result = cluster.runJob(std::move(spec));
  ASSERT_TRUE(result.succeeded()) << result.error;
  // The backup won: the job did not wait out the 2.5 s stall.
  EXPECT_LT(result.elapsed_millis, 2300);
  EXPECT_GE(result.counters.value(counters::kJobGroup,
                                  counters::kSpeculativeMaps),
            1);
  HdfsFs fs(cluster.client());
  EXPECT_EQ(readCounts(fs, "/out"), referenceCounts(makeCorpus(60, 31)));
}

TEST(MiniMrClusterTest, SpeculationOffByDefault) {
  MiniMrCluster cluster({.num_nodes = 2, .conf = fastConf()});
  cluster.client().writeFile("/in/t.txt", makeCorpus(50, 32));
  const auto result = cluster.runJob(wordCountSpec({"/in"}, "/out"));
  ASSERT_TRUE(result.succeeded());
  EXPECT_EQ(result.counters.value(counters::kJobGroup,
                                  counters::kSpeculativeMaps),
            0);
}

TEST(MiniMrClusterTest, GhostTaskTrackerBlocksPort) {
  MiniMrCluster cluster({.num_nodes = 2, .conf = fastConf()});
  cluster.taskTracker("node01").abandon();
  TaskTracker fresh(cluster.conf(), cluster.network(), "node01",
                    cluster.registry());
  EXPECT_THROW(fresh.start(), AlreadyExistsError);
  cluster.taskTracker("node01").stop();  // "scheduler cleanup"
  fresh.start();
  fresh.stop();
}

TEST(MiniMrClusterTest, UserCountersPropagateToJobReport) {
  MiniMrCluster cluster({.num_nodes = 2, .conf = fastConf()});
  cluster.client().writeFile("/in/t.txt", "skip keep skip keep keep\n");
  JobSpec spec = wordCountSpec({"/in"}, "/out");
  spec.mapper = mapperFromLambda(
      [](std::string_view, std::string_view value, TaskContext& ctx) {
        for (const auto& w : splitWhitespace(value)) {
          // Application-defined counter group, like Hadoop's enum counters.
          ctx.counters().increment("app", w == "skip" ? "SKIPPED" : "KEPT");
          if (w != "skip") ctx.emitTyped<std::string, int64_t>(std::string(w), 1);
        }
      });
  const auto result = cluster.runJob(std::move(spec));
  ASSERT_TRUE(result.succeeded()) << result.error;
  EXPECT_EQ(result.counters.value("app", "SKIPPED"), 2);
  EXPECT_EQ(result.counters.value("app", "KEPT"), 3);
}

TEST(MiniMrClusterTest, RenderJobDetailsShowsTheWebUiView) {
  MiniMrCluster cluster({.num_nodes = 2, .conf = fastConf()});
  cluster.client().writeFile("/in/t.txt", makeCorpus(80, 50));
  const JobId id =
      cluster.jobTracker().submit(wordCountSpec({"/in"}, "/out", false, 2));
  ASSERT_TRUE(cluster.jobTracker().wait(id).succeeded());

  const std::string page = cluster.jobTracker().renderJobDetails(id);
  EXPECT_NE(page.find("state: SUCCEEDED"), std::string::npos);
  EXPECT_NE(page.find("maps:    [####################]"), std::string::npos);
  EXPECT_NE(page.find("locality:"), std::string::npos);
  EXPECT_NE(page.find("MAP_INPUT_RECORDS"), std::string::npos);
  EXPECT_NE(page.find("m0  SUCCEEDED"), std::string::npos);
  EXPECT_NE(page.find("r1  SUCCEEDED"), std::string::npos);
  EXPECT_THROW(cluster.jobTracker().renderJobDetails(999), NotFoundError);
}

TEST(MiniMrClusterTest, LocalityCountersPartitionLaunchedMaps) {
  Config conf = fastConf();
  conf.setInt("dfs.replication", 2);
  MiniMrCluster cluster({.num_nodes = 4, .racks = 2, .conf = conf});
  cluster.client().writeFile("/in/t.txt", makeCorpus(300, 33));
  const auto result = cluster.runJob(wordCountSpec({"/in"}, "/out"));
  ASSERT_TRUE(result.succeeded()) << result.error;
  using namespace counters;
  const auto node_local = result.counters.value(kJobGroup, kDataLocalMaps);
  const auto rack_local = result.counters.value(kJobGroup, kRackLocalMaps);
  const auto remote = result.counters.value(kJobGroup, kRemoteMaps);
  const auto launched = result.counters.value(kJobGroup, kLaunchedMaps);
  // Every launched map falls in exactly one locality tier (no speculation,
  // no failures in this run).
  EXPECT_EQ(node_local + rack_local + remote, launched);
  EXPECT_GT(node_local, 0);
  HdfsFs fs(cluster.client());
  EXPECT_EQ(readCounts(fs, "/out"), referenceCounts(makeCorpus(300, 33)));
}

TEST(MiniMrClusterTest, ConcurrentJobsAllSucceed) {
  Config conf = fastConf();
  conf.setInt("mapred.tasktracker.map.tasks.maximum", 2);
  MiniMrCluster cluster({.num_nodes = 3, .conf = conf});
  auto client = cluster.client();
  for (int j = 0; j < 4; ++j) {
    client.writeFile("/in" + std::to_string(j) + "/t.txt",
                     makeCorpus(100, 40 + static_cast<uint64_t>(j)));
  }
  // Submit four jobs at once; the trackers interleave their tasks.
  std::vector<JobId> ids;
  for (int j = 0; j < 4; ++j) {
    ids.push_back(cluster.jobTracker().submit(
        wordCountSpec({"/in" + std::to_string(j)},
                      "/out" + std::to_string(j), j % 2 == 0)));
  }
  HdfsFs fs(cluster.client());
  for (int j = 0; j < 4; ++j) {
    const auto result = cluster.jobTracker().wait(ids[static_cast<size_t>(j)]);
    ASSERT_TRUE(result.succeeded()) << "job " << j << ": " << result.error;
    EXPECT_EQ(readCounts(fs, "/out" + std::to_string(j)),
              referenceCounts(makeCorpus(100, 40 + static_cast<uint64_t>(j))))
        << j;
  }
}

TEST(MiniMrClusterTest, SubmitWithNoInputThrows) {
  MiniMrCluster cluster({.num_nodes = 1, .conf = fastConf()});
  cluster.client().mkdirs("/empty");
  EXPECT_THROW(cluster.jobTracker().submit(wordCountSpec({"/empty"}, "/out")),
               InvalidArgumentError);
}

TEST(MiniMrClusterTest, SubmitRejectsABadJobConfBeforeAnyTask) {
  // A typo, an unknown codec, an out-of-range fraction, a daemon key in a
  // job conf and a retired key are each rejected at submit, naming the key
  // and why, before the job exists. The retired shuffle codec must fail
  // loudly rather than silently run the job uncompressed.
  MiniMrCluster cluster({.num_nodes = 1, .conf = fastConf()});
  cluster.client().writeFile("/in/a.txt", "a b a\n");
  struct BadEntry {
    std::string key, value, reason;
  };
  for (const auto& [key, value, reason] : std::vector<BadEntry>{
           {"io.sort.mbb", "1", "not a known key"},
           {"mapred.map.output.compression.codec", "lz4", "not one of"},
           {"mapred.reduce.slowstart.completed.maps", "1.5", "not in ["},
           {"dfs.replication", "2", "daemon key"},
           {"mapred.shuffle.compression", "mh-lz", "not a known key"}}) {
    JobSpec spec = wordCountSpec({"/in"}, "/out");
    spec.conf.set(key, value);
    try {
      cluster.jobTracker().submit(std::move(spec));
      ADD_FAILURE() << key << "=" << value << " was accepted";
    } catch (const InvalidArgumentError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(key), std::string::npos) << what;
      EXPECT_NE(what.find(reason), std::string::npos) << what;
    }
  }
  EXPECT_TRUE(cluster.jobTracker().listJobs().empty());
}

TEST(MiniMrClusterTest, UnknownClusterKeyThrowsAtConstruction) {
  Config conf = fastConf();
  conf.setInt("mapred.tasktracker.heartbeat.mss", 20);
  EXPECT_THROW(MiniMrCluster({.num_nodes = 1, .conf = conf}),
               InvalidArgumentError);
}

TEST(MiniMrClusterTest, ClusterConfSuppliesJobKeysTheJobLeavesUnset) {
  // A job key on the cluster conf is the default for every job; a job that
  // sets the key itself wins.
  Config conf = fastConf();
  conf.setInt("dfs.blocksize", 1 << 20);  // one split, one map
  conf.setInt("io.sort.mb", 1);
  conf.setDouble("io.sort.spill.percent", 0.05);
  MiniMrCluster cluster({.num_nodes = 1, .conf = conf});
  cluster.client().writeFile("/in/corpus.txt", makeCorpus(8000, 11));

  const JobResult small = cluster.runJob(wordCountSpec({"/in"}, "/small"));
  ASSERT_TRUE(small.succeeded()) << small.error;
  EXPECT_GT(small.counters.value(counters::kTaskGroup, counters::kMapSpills),
            1);

  JobSpec own = wordCountSpec({"/in"}, "/own");
  own.conf.setInt("io.sort.mb", 32);
  own.conf.setDouble("io.sort.spill.percent", 0.8);
  const JobResult roomy = cluster.runJob(std::move(own));
  ASSERT_TRUE(roomy.succeeded()) << roomy.error;
  EXPECT_EQ(roomy.counters.value(counters::kTaskGroup, counters::kMapSpills),
            1);
}

}  // namespace
}  // namespace mh::mr
