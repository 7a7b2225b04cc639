#include "mh/mr/job_tracker.h"

#include <gtest/gtest.h>

#include <thread>

#include "mh/common/stopwatch.h"
#include "mh/hdfs/mini_cluster.h"
#include "mr_test_jobs.h"

namespace mh::mr {
namespace {

using namespace testjobs;

// Drives the JobTracker protocol by hand: no TaskTrackers run; this harness
// registers fake trackers, pulls assignments out of heartbeats, and reports
// task completion — making the scheduler's state machine fully
// deterministic.
class JobTrackerHarness : public ::testing::Test {
 protected:
  JobTrackerHarness() {
    Config conf;
    conf.setInt("dfs.replication", 1);
    conf.setInt("dfs.blocksize", 1024);
    conf.setInt("mapred.tasktracker.expiry.ms", 40);
    conf.setInt("mapred.max.attempts", 3);
    conf_ = conf;
    dfs_ = std::make_unique<hdfs::MiniDfsCluster>(
        hdfs::MiniDfsOptions{.num_datanodes = 1, .conf = conf});
    registry_ = std::make_shared<JobRegistry>();
    jt_ = std::make_unique<JobTracker>(conf, dfs_->network(), registry_,
                                       "jobtracker", "namenode");
    jt_->start();
  }

  ~JobTrackerHarness() override {
    jt_->stop();
  }

  /// Writes a file that splits into `blocks` map tasks. `slowstart` is the
  /// job's mapred.reduce.slowstart.completed.maps ("" keeps the default).
  JobId submitJob(int blocks, uint32_t reducers = 1,
                  const std::string& slowstart = "") {
    dfs_->client().writeFile("/in/f" + std::to_string(next_file_++),
                             Bytes(static_cast<size_t>(blocks) * 1024, 'x'));
    JobSpec spec = wordCountSpec(
        {"/in"}, "/out" + std::to_string(next_file_), false, reducers);
    if (!slowstart.empty()) {
      spec.conf.set("mapred.reduce.slowstart.completed.maps", slowstart);
    }
    return jt_->submit(std::move(spec));
  }

  TrackerHeartbeatReply beat(const std::string& host, uint32_t maps,
                             uint32_t reduces,
                             std::vector<TaskStatusReport> reports = {},
                             std::vector<JobId> held_jobs = {}) {
    return jt_->trackerHeartbeat(host, maps, reduces, reports, {}, held_jobs);
  }

  static TaskStatusReport success(const TaskAssignment& assignment) {
    TaskStatusReport report;
    report.job = assignment.job;
    report.task_index = assignment.task_index;
    report.is_map = assignment.kind == AssignmentKind::kMap;
    report.attempt = assignment.attempt;
    report.succeeded = true;
    report.millis = 10;
    return report;
  }

  static TaskStatusReport failure(const TaskAssignment& assignment,
                                  std::string error = "boom") {
    TaskStatusReport report = success(assignment);
    report.succeeded = false;
    report.error = std::move(error);
    return report;
  }

  Config conf_;
  std::unique_ptr<hdfs::MiniDfsCluster> dfs_;
  std::shared_ptr<JobRegistry> registry_;
  std::unique_ptr<JobTracker> jt_;
  int next_file_ = 0;
};

TEST_F(JobTrackerHarness, AssignsUpToFreeSlots) {
  jt_->registerTracker("tt1", 2, 1);
  const JobId id = submitJob(5);
  const auto reply = beat("tt1", 2, 0);
  EXPECT_EQ(reply.assignments.size(), 2u);
  for (const auto& assignment : reply.assignments) {
    EXPECT_EQ(assignment.kind, AssignmentKind::kMap);
    EXPECT_EQ(assignment.job, id);
  }
  // No double assignment while they run.
  EXPECT_TRUE(beat("tt1", 0, 0).assignments.empty());
}

TEST_F(JobTrackerHarness, UnknownTrackerToldToReregister) {
  EXPECT_TRUE(beat("stranger", 2, 1).reregister);
}

TEST_F(JobTrackerHarness, ReducesWaitForAllMapsWithSlowstartOff) {
  jt_->registerTracker("tt1", 4, 1);
  // slowstart = 1.0 restores the blocking all-maps-first schedule.
  const JobId id = submitJob(2, 1, "1.0");
  auto reply = beat("tt1", 4, 1);
  ASSERT_EQ(reply.assignments.size(), 2u);  // maps only, no reduce yet
  // Complete one map: still no reduce.
  auto second = beat("tt1", 2, 1, {success(reply.assignments[0])});
  EXPECT_TRUE(second.assignments.empty());
  // Complete the other: reduce comes with full shuffle locations.
  auto third = beat("tt1", 2, 1, {success(reply.assignments[1])});
  ASSERT_EQ(third.assignments.size(), 1u);
  EXPECT_EQ(third.assignments[0].kind, AssignmentKind::kReduce);
  ASSERT_EQ(third.assignments[0].map_outputs.size(), 2u);
  EXPECT_EQ(third.assignments[0].total_maps, 2u);
  for (const auto& location : third.assignments[0].map_outputs) {
    EXPECT_EQ(location.host, "tt1");
  }
  // Finish the reduce: job succeeds.
  beat("tt1", 2, 1, {success(third.assignments[0])});
  EXPECT_EQ(jt_->status(id).state, JobState::kSucceeded);
}

TEST_F(JobTrackerHarness, SlowstartLaunchesReduceWithPartialLocations) {
  jt_->registerTracker("tt1", 4, 1);
  const JobId id = submitJob(4, 1, "0.5");  // threshold: 2 of 4 maps
  auto reply = beat("tt1", 4, 1);
  ASSERT_EQ(reply.assignments.size(), 4u);
  // One map done: below the 0.5 threshold, no reduce yet.
  auto second = beat("tt1", 1, 1, {success(reply.assignments[0])});
  EXPECT_TRUE(second.assignments.empty());
  // Second map done: the reduce launches with the two known locations, the
  // job's map total, and the event-feed cursor the snapshot is current
  // through — the other two locations will ride the completion feed.
  auto third = beat("tt1", 1, 1, {success(reply.assignments[1])});
  ASSERT_EQ(third.assignments.size(), 1u);
  const TaskAssignment& reduce = third.assignments[0];
  EXPECT_EQ(reduce.kind, AssignmentKind::kReduce);
  EXPECT_EQ(reduce.total_maps, 4u);
  ASSERT_EQ(reduce.map_outputs.size(), 2u);

  // Finish the remaining maps; their success events replay from the
  // reduce's cursor on the next heartbeat that presents it.
  beat("tt1", 2, 0,
       {success(reply.assignments[2]), success(reply.assignments[3])});
  const auto events =
      jt_->trackerHeartbeat("tt1", 0, 0, {}, {{id, reduce.event_cursor}})
          .map_events;
  ASSERT_EQ(events.size(), 2u);
  for (const auto& event : events) {
    EXPECT_FALSE(event.invalidated);
    EXPECT_EQ(event.host, "tt1");
    EXPECT_GT(event.event_id, reduce.event_cursor);
  }
  EXPECT_EQ(jt_->mapLocation(id, events[0].map_index), "tt1");

  beat("tt1", 4, 1, {success(reduce)});
  EXPECT_EQ(jt_->status(id).state, JobState::kSucceeded);
}

TEST_F(JobTrackerHarness, LostTrackerEmitsInvalidationEvents) {
  jt_->registerTracker("tt1", 2, 1);
  jt_->registerTracker("tt2", 2, 1);
  const JobId id = submitJob(2, 1, "0.5");
  const auto maps = beat("tt1", 2, 0).assignments;
  ASSERT_EQ(maps.size(), 2u);
  beat("tt1", 0, 0, {success(maps[0]), success(maps[1])});
  const auto reduce = beat("tt2", 0, 1).assignments;
  ASSERT_EQ(reduce.size(), 1u);
  const uint64_t cursor = reduce[0].event_cursor;

  // tt1 expires; both announced outputs die with it. The feed must carry
  // one invalidation per lost map past the reduce's cursor.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  beat("tt2", 0, 0);
  jt_->runMonitorOnce();
  const auto events =
      jt_->trackerHeartbeat("tt2", 0, 0, {}, {{id, cursor}}).map_events;
  size_t invalidations = 0;
  for (const auto& event : events) {
    if (event.event_id > cursor && event.invalidated) ++invalidations;
  }
  EXPECT_EQ(invalidations, 2u);
  EXPECT_EQ(jt_->mapLocation(id, 0), "");
}

TEST_F(JobTrackerHarness, FailedAttemptRetriesWithFreshAttemptNumber) {
  jt_->registerTracker("tt1", 1, 1);
  submitJob(1);
  const auto first = beat("tt1", 1, 1).assignments;
  ASSERT_EQ(first.size(), 1u);
  const auto retry =
      beat("tt1", 1, 1, {failure(first[0])}).assignments;
  ASSERT_EQ(retry.size(), 1u);
  EXPECT_EQ(retry[0].task_index, first[0].task_index);
  EXPECT_GT(retry[0].attempt, first[0].attempt);
}

TEST_F(JobTrackerHarness, MaxAttemptsFailsTheJob) {
  jt_->registerTracker("tt1", 1, 1);
  const JobId id = submitJob(1);
  auto assignments = beat("tt1", 1, 1).assignments;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(assignments.size(), 1u) << "attempt round " << i;
    assignments = beat("tt1", 1, 1, {failure(assignments[0])}).assignments;
  }
  EXPECT_EQ(jt_->status(id).state, JobState::kFailed);
  EXPECT_TRUE(assignments.empty());
}

TEST_F(JobTrackerHarness, StaleAttemptReportIsIgnored) {
  jt_->registerTracker("tt1", 1, 1);
  const JobId id = submitJob(1);
  const auto first = beat("tt1", 1, 1).assignments;
  ASSERT_EQ(first.size(), 1u);
  // The task is retried (failure), then a STALE success from the old
  // attempt arrives: it must not mark the task done.
  const auto retry = beat("tt1", 1, 1, {failure(first[0])}).assignments;
  ASSERT_EQ(retry.size(), 1u);
  beat("tt1", 0, 1, {success(first[0])});  // stale attempt number
  EXPECT_EQ(jt_->status(id).maps_completed, 0u);
  // The live attempt still completes normally.
  beat("tt1", 1, 1, {success(retry[0])});
  EXPECT_EQ(jt_->status(id).maps_completed, 1u);
}

TEST_F(JobTrackerHarness, LostTrackerReExecutesItsCompletedMaps) {
  jt_->registerTracker("tt1", 2, 1);
  jt_->registerTracker("tt2", 2, 1);
  const JobId id = submitJob(2);
  // tt1 runs and completes both maps.
  const auto assignments = beat("tt1", 2, 1).assignments;
  ASSERT_EQ(assignments.size(), 2u);
  beat("tt1", 2, 1, {success(assignments[0]), success(assignments[1])});
  EXPECT_EQ(jt_->status(id).maps_completed, 2u);

  // tt1 goes silent past the 40 ms expiry; its map outputs are gone.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  beat("tt2", 0, 0);  // keep tt2 alive without accepting work
  jt_->runMonitorOnce();
  EXPECT_EQ(jt_->status(id).maps_completed, 0u);

  // tt2 picks the re-executions up.
  const auto redo = beat("tt2", 2, 1).assignments;
  EXPECT_EQ(redo.size(), 2u);
}

TEST_F(JobTrackerHarness, FetchFailureReExecutesSourceMapOnly) {
  jt_->registerTracker("tt1", 1, 1);
  jt_->registerTracker("tt2", 1, 1);
  const JobId id = submitJob(1);
  const auto maps = beat("tt1", 1, 0).assignments;
  ASSERT_EQ(maps.size(), 1u);
  const auto reduces =
      beat("tt2", 0, 1, {}).assignments;  // nothing yet: map running
  EXPECT_TRUE(reduces.empty());
  beat("tt1", 1, 0, {success(maps[0])});
  const auto reduce = beat("tt2", 0, 1).assignments;
  ASSERT_EQ(reduce.size(), 1u);
  ASSERT_EQ(reduce[0].map_outputs[0].host, "tt1");

  // The reduce reports a shuffle fetch failure naming tt1/map0: the map is
  // re-executed; the reduce is NOT charged a failure.
  beat("tt2", 0, 1,
       {failure(reduce[0], "IoError: fetch-failure host=tt1 map=0: gone")});
  EXPECT_EQ(jt_->status(id).maps_completed, 0u);

  // tt1 reruns the map; the reduce is reassigned with fresh locations and
  // the job completes — with zero failures charged to the reduce.
  const auto remap = beat("tt1", 1, 0).assignments;
  ASSERT_EQ(remap.size(), 1u);
  EXPECT_EQ(remap[0].kind, AssignmentKind::kMap);
  beat("tt1", 1, 0, {success(remap[0])});
  const auto rereduce = beat("tt2", 0, 1).assignments;
  ASSERT_EQ(rereduce.size(), 1u);
  beat("tt2", 0, 1, {success(rereduce[0])});
  const auto result = jt_->wait(id);
  EXPECT_TRUE(result.succeeded());
  EXPECT_EQ(result.counters.value(counters::kJobGroup,
                                  counters::kFailedReduces),
            0);
}

TEST_F(JobTrackerHarness, SpeculativeBackupPromotedWhenPrimaryTrackerDies) {
  Config conf = conf_;
  conf.setBool("mapred.speculative.execution", true);
  conf.setInt("mapred.speculative.min.ms", 10);
  // A long expiry so the straggler wait below cannot race the background
  // monitor into expiring tt1 before the backup is even launched.
  conf.setInt("mapred.tasktracker.expiry.ms", 300);
  auto jt = std::make_unique<JobTracker>(conf, dfs_->network(), registry_,
                                         "jt2", "namenode");
  jt->start();
  jt->registerTracker("tt1", 2, 1);
  jt->registerTracker("tt2", 2, 1);
  dfs_->client().writeFile("/in2/f", Bytes(2 * 1024, 'x'));
  const JobId id = jt->submit(wordCountSpec({"/in2"}, "/outs", false, 1));

  // tt1 takes both maps; completes the first (establishing the average),
  // the second straggles.
  const auto assignments = jt->trackerHeartbeat("tt1", 2, 1, {}).assignments;
  ASSERT_EQ(assignments.size(), 2u);
  jt->trackerHeartbeat("tt1", 1, 1, {success(assignments[0])});

  // Past the straggler threshold, tt2's heartbeat wins a backup attempt.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto backup = jt->trackerHeartbeat("tt2", 2, 1, {}).assignments;
  ASSERT_EQ(backup.size(), 1u);
  EXPECT_EQ(backup[0].task_index, assignments[1].task_index);
  EXPECT_GT(backup[0].attempt, assignments[1].attempt);

  // tt1 dies (stops beating past the 300 ms expiry); tt2 keeps beating.
  // The monitor must PROMOTE the backup rather than re-pend the task (and
  // must not reassign it).
  for (int i = 0; i < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    jt->trackerHeartbeat("tt2", 0, 1, {});
  }
  jt->runMonitorOnce();

  // m1 was PROMOTED to its backup (still running on tt2) — it must NOT be
  // reassigned. m0's output died with tt1, so only m0 comes back.
  const auto redo = jt->trackerHeartbeat("tt2", 2, 1, {}).assignments;
  ASSERT_EQ(redo.size(), 1u);
  EXPECT_EQ(redo[0].task_index, assignments[0].task_index);

  // Successes from the promoted backup and the rerun complete the maps;
  // the reduce assignment may ride this very reply.
  auto reduce = jt->trackerHeartbeat("tt2", 0, 1,
                                     {success(backup[0]), success(redo[0])})
                    .assignments;
  if (reduce.empty()) {
    reduce = jt->trackerHeartbeat("tt2", 2, 1, {}).assignments;
  }
  ASSERT_EQ(reduce.size(), 1u);
  for (const auto& location : reduce[0].map_outputs) {
    EXPECT_EQ(location.host, "tt2");
  }
  jt->trackerHeartbeat("tt2", 2, 1, {success(reduce[0])});
  EXPECT_EQ(jt->status(id).state, JobState::kSucceeded);
  jt->stop();
}

TEST_F(JobTrackerHarness, FinishedJobsAppearInPurgeList) {
  jt_->registerTracker("tt1", 1, 1);
  const JobId id = submitJob(1);
  const auto maps = beat("tt1", 1, 1).assignments;
  ASSERT_EQ(maps.size(), 1u);
  // The reduce assignment rides the same heartbeat that reports the last
  // map's success.
  const auto reduce = beat("tt1", 1, 1, {success(maps[0])}).assignments;
  ASSERT_EQ(reduce.size(), 1u);
  // The tracker holds the job's map output; while the job runs it stays.
  EXPECT_TRUE(beat("tt1", 0, 0, {}, {id}).purge_jobs.empty());
  const auto reply = beat("tt1", 1, 1, {success(reduce[0])}, {id});
  const auto& purge = reply.purge_jobs;
  EXPECT_NE(std::find(purge.begin(), purge.end(), id), purge.end());
  // Purges answer only what the tracker presents: a tracker holding
  // nothing is told nothing, and a lost reply is answered again.
  EXPECT_TRUE(beat("tt1", 1, 1).purge_jobs.empty());
  EXPECT_EQ(beat("tt1", 1, 1, {}, {id}).purge_jobs, std::vector<JobId>{id});
}

TEST_F(JobTrackerHarness, MayWaitBeatIsHeldUntilNews) {
  Config conf = conf_;
  conf.setInt("mapred.tasktracker.heartbeat.ms", 2000);
  conf.setInt("mapred.tasktracker.expiry.ms", 20'000);
  auto jt = std::make_unique<JobTracker>(conf, dfs_->network(), registry_,
                                         "jt-held", "namenode");
  jt->start();
  jt->registerTracker("tt1", 2, 1);

  // Nothing to do: a may-wait beat is held for the full interval.
  Stopwatch idle;
  const auto empty = jt->trackerHeartbeat("tt1", 2, 1, {}, {}, {}, true);
  EXPECT_TRUE(empty.assignments.empty());
  EXPECT_GE(idle.elapsedMillis(), 1900);

  // A submit while the beat is held answers it at once with the tasks.
  dfs_->client().writeFile("/in-held/f", Bytes(2 * 1024, 'x'));
  TrackerHeartbeatReply reply;
  std::thread beat([&] {
    reply = jt->trackerHeartbeat("tt1", 2, 1, {}, {}, {}, true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Stopwatch woken;
  jt->submit(wordCountSpec({"/in-held"}, "/out-held", false, 1));
  beat.join();
  EXPECT_LT(woken.elapsedMillis(), 1000);
  EXPECT_EQ(reply.assignments.size(), 2u);

  // A held beat ends when the JobTracker stops.
  std::thread held([&] {
    jt->trackerHeartbeat("tt1", 0, 0, {}, {}, {}, true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Stopwatch stopping;
  jt->stop();
  held.join();
  EXPECT_LT(stopping.elapsedMillis(), 1000);
}

}  // namespace
}  // namespace mh::mr
