#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mh/common/error.h"
#include "mh/common/rng.h"
#include "mh/common/stopwatch.h"
#include "mh/mr/mini_mr_cluster.h"
#include "mr_test_jobs.h"
#include "testutil/aggressive_timers.h"

/// \file event_scheduling_test.cpp
/// Event-driven task scheduling: trackers beat when a slot frees, the
/// JobTracker holds the beats of trackers that can only wait for news, and
/// finished jobs are retired. The interval-bound tests use a 2 s heartbeat,
/// so a job that rode periodic beats would take seconds.

namespace mh::mr {
namespace {

using namespace testjobs;

constexpr int64_t kIntervalMs = 2000;

/// Slow heartbeats and an expiry well past them; DataNode heartbeats are
/// slowed too, so the "heartbeat" RPC count is the TaskTrackers' alone.
Config slowBeatConf() {
  Config conf;
  conf.setInt("dfs.replication", 1);
  conf.setInt("dfs.blocksize", 1024);
  conf.setInt("dfs.heartbeat.interval.ms", 60'000);
  conf.setInt("dfs.namenode.heartbeat.expiry.ms", 600'000);
  conf.setInt("mapred.tasktracker.heartbeat.ms", kIntervalMs);
  conf.setInt("mapred.tasktracker.expiry.ms", 20 * kIntervalMs);
  conf.setInt("mapred.tasktracker.map.tasks.maximum", 2);
  return conf;
}

/// Exactly `blocks` KiB of newline-terminated words, one split per block.
std::string corpusOfBlocks(int blocks, uint64_t seed) {
  static const char* kWords[] = {"data", "local", "block", "shuffle",
                                 "merge", "sort", "map", "reduce"};
  Rng rng(seed);
  std::string corpus;
  const size_t size = static_cast<size_t>(blocks) * 1024;
  while (corpus.size() < size) {
    corpus += kWords[rng.uniform(8)];
    corpus.push_back(rng.uniform(6) == 0 ? '\n' : ' ');
  }
  corpus.resize(size - 1);
  corpus.push_back('\n');
  return corpus;
}

uint64_t heartbeatCalls(MiniMrCluster& cluster) {
  return cluster.metrics()
      .child("network")
      .histogram("rpc.heartbeat.micros")
      .count();
}

TEST(EventDrivenSchedulingTest, WavesAndRemoteReducesFinishWithinTwoBeats) {
  // One tracker with 2 map slots and no reduce slot runs 8 maps in 4
  // waves; the 2 reduces run on a second, reduce-only tracker and learn of
  // each map through held beats. Periodic beats alone would need >= 4
  // intervals (8 s) for the waves.
  Config conf = slowBeatConf();
  conf.setInt("mapred.tasktracker.reduce.tasks.maximum", 0);
  MiniMrCluster cluster({.num_nodes = 1, .conf = conf});
  Config reduce_conf = conf;
  reduce_conf.setInt("mapred.tasktracker.map.tasks.maximum", 0);
  reduce_conf.setInt("mapred.tasktracker.reduce.tasks.maximum", 2);
  TaskTracker reducer(reduce_conf, cluster.network(), "tt-reduce",
                      cluster.registry(), cluster.jobTracker().host(),
                      cluster.dfs().nameNode().host());
  reducer.start();

  const std::string corpus = corpusOfBlocks(8, 71);
  cluster.client().writeFile("/in/corpus.txt", corpus);
  // Let both trackers settle into held beats before counting.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const uint64_t beats_before = heartbeatCalls(cluster);
  Stopwatch watch;
  const auto result = cluster.runJob(wordCountSpec({"/in"}, "/out", false, 2));
  const int64_t elapsed_ms = watch.elapsedMillis();
  const uint64_t beats = heartbeatCalls(cluster) - beats_before;
  ASSERT_TRUE(result.succeeded()) << result.error;

  const auto status = cluster.jobTracker().listJobs().front();
  ASSERT_EQ(status.maps_total, 8u);
  HdfsFs fs(cluster.client());
  EXPECT_EQ(readCounts(fs, "/out"), referenceCounts(corpus));
  for (const auto& attempt : result.history.attempts) {
    EXPECT_EQ(attempt.tracker, attempt.is_map ? cluster.trackerHosts()[0]
                                              : std::string("tt-reduce"));
  }

  EXPECT_LT(elapsed_ms, 2 * kIntervalMs);
  // O(tasks): about one beat per slot freed plus one per event delivery.
  EXPECT_LE(beats, 3u * (status.maps_total + status.reduces_total) + 2u)
      << "heartbeats for one job";

  // Stopping the JobTracker first releases the reducer's held beat.
  cluster.jobTracker().stop();
  reducer.stop();
}

TEST(EventDrivenSchedulingTest, StopAndCrashOfAHeldTrackerTakeAtMostOneBeat) {
  MiniMrCluster cluster({.num_nodes = 2, .conf = slowBeatConf()});
  // Idle trackers beat at once after registering and are held.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto hosts = cluster.trackerHosts();

  Stopwatch stop_watch;
  cluster.taskTracker(hosts[0]).stop();
  EXPECT_LE(stop_watch.elapsedMillis(), kIntervalMs + 250);

  Stopwatch crash_watch;
  cluster.taskTracker(hosts[1]).crash();
  EXPECT_LE(crash_watch.elapsedMillis(), kIntervalMs + 250);
}

TEST(EventDrivenSchedulingTest, HeldBeatsEndWhenTheJobTrackerStops) {
  MiniMrCluster cluster({.num_nodes = 3, .conf = slowBeatConf()});
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Stopwatch watch;
  cluster.jobTracker().stop();
  EXPECT_LT(watch.elapsedMillis(), kIntervalMs / 4);
  // With the JobTracker gone the trackers wait in their own loops, which
  // a stop wakes at once.
  Stopwatch tracker_watch;
  for (const auto& host : cluster.trackerHosts()) {
    cluster.taskTracker(host).stop();
  }
  EXPECT_LT(tracker_watch.elapsedMillis(), kIntervalMs / 4);
}

TEST(EventDrivenSchedulingTest, FinishedJobsAreRetired) {
  Config conf = testutil::aggressiveTimers();
  conf.setInt("dfs.replication", 1);
  conf.setInt("dfs.blocksize", 1024);
  MiniMrCluster cluster({.num_nodes = 3, .conf = conf});
  const std::string corpus = corpusOfBlocks(3, 72);
  cluster.client().writeFile("/in/corpus.txt", corpus);

  std::vector<JobId> ids;
  for (int i = 0; i < 110; ++i) {
    const std::string out = "/out" + std::to_string(i);
    const JobId id =
        cluster.jobTracker().submit(wordCountSpec({"/in"}, out, true, 2));
    ASSERT_TRUE(cluster.jobTracker().wait(id).succeeded());
    ids.push_back(id);
  }
  // No finished job's spec stays published.
  EXPECT_EQ(cluster.registry()->size(), 0u);

  // Every tracker drops the finished jobs' map outputs on its next beat.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool drained = false;
  while (!drained && std::chrono::steady_clock::now() < deadline) {
    drained = true;
    for (const auto& host : cluster.trackerHosts()) {
      drained = drained && cluster.taskTracker(host).mapOutputs().jobIds()
                               .empty();
    }
    if (!drained) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(drained) << "map outputs of finished jobs were never purged";

  // A reply purges exactly the jobs the tracker presents as held.
  JobTracker& jt = cluster.jobTracker();
  const std::string host = cluster.trackerHosts()[0];
  EXPECT_TRUE(jt.trackerHeartbeat(host, 0, 0, {}).purge_jobs.empty());
  EXPECT_EQ(jt.trackerHeartbeat(host, 0, 0, {}, {}, {ids.back()}).purge_jobs,
            std::vector<JobId>{ids.back()});

  // The newest 100 finished jobs still answer status, listing and the job
  // report; older ones are forgotten.
  EXPECT_EQ(jt.listJobs().size(), 100u);
  EXPECT_THROW(jt.status(ids[9]), NotFoundError);
  EXPECT_THROW(jt.wait(ids[9]), NotFoundError);
  const JobStatus oldest = jt.status(ids[10]);
  EXPECT_EQ(oldest.state, JobState::kSucceeded);
  EXPECT_EQ(oldest.name, "wordcount");
  EXPECT_EQ(oldest.maps_completed, oldest.maps_total);
  const std::string details = jt.renderJobDetails(ids[10]);
  EXPECT_NE(details.find("m0  SUCCEEDED"), std::string::npos) << details;
  const auto result = jt.wait(ids[10]);
  EXPECT_TRUE(result.succeeded());
  EXPECT_FALSE(result.history.attempts.empty());
  HdfsFs fs(cluster.client());
  EXPECT_EQ(readCounts(fs, "/out0"), referenceCounts(corpus));
  EXPECT_EQ(readCounts(fs, "/out109"), referenceCounts(corpus));
}

}  // namespace
}  // namespace mh::mr
