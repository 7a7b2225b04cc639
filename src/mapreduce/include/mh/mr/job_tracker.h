#pragma once

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mh/common/config.h"
#include "mh/mr/job.h"
#include "mh/mr/job_registry.h"
#include "mh/mr/mr_wire.h"
#include "mh/net/network.h"

/// \file job_tracker.h
/// The MapReduce master (Hadoop 1.x JobTracker). Computes input splits from
/// HDFS block locations, hands tasks to heartbeating TaskTrackers with
/// node-local splits first (the Figure-2 integration: "JobTracker assigns
/// work based on block location information from NameNode"), retries failed
/// attempts, re-executes map tasks whose tracker died (their outputs died
/// with it), and aggregates task counters into the job report.
///
/// Scheduling is event-driven: trackers beat when a slot frees, and a beat
/// from a tracker whose every task waits on news (`may_wait`) is held here
/// until there is some — an assignment, map-completion events past its
/// cursors, or a finished job to purge — or until one heartbeat interval
/// passes. Whatever brings news (a submit, a heartbeat's reports, a monitor
/// pass) answers the held beats in place before releasing them, so each
/// held tracker gets its share of a new wave even if its thread is slow to
/// run; stop() releases them unanswered.

namespace mh::mr {

class JobTracker {
 public:
  JobTracker(Config conf, std::shared_ptr<net::Network> network,
             std::shared_ptr<JobRegistry> registry,
             std::string host = "jobtracker",
             std::string namenode_host = "namenode");
  ~JobTracker();
  JobTracker(const JobTracker&) = delete;
  JobTracker& operator=(const JobTracker&) = delete;

  /// Binds the RPC port and starts the tracker-expiry monitor.
  void start();
  void stop();

  const std::string& host() const { return host_; }

  /// Validates the spec, computes splits from HDFS, registers the job, and
  /// returns its id. The job runs as trackers heartbeat in.
  JobId submit(JobSpec spec);

  /// Blocks until the job reaches a terminal state. A finished job keeps
  /// only its report (status, counters, JobHistory, per-task outcome); its
  /// splits, event feed and registry spec are dropped at finish. The last
  /// 100 finished jobs stay queryable (Hadoop's retired-jobs default);
  /// asking after an older one throws NotFoundError.
  JobResult wait(JobId id);

  JobStatus status(JobId id) const;
  std::vector<JobStatus> listJobs() const;

  /// jobdetails.jsp-style text report — the "JobTracker's web interface"
  /// the course has students read map task run times and counters from.
  std::string renderJobDetails(JobId id) const;

  // ----- TaskTracker protocol ----------------------------------------------

  void registerTracker(
      const std::string& host, uint32_t map_slots, uint32_t reduce_slots,
      const std::string& rack = std::string(keys::kDatanodeRack.def));

  /// One beat: processes `reports`, then answers with assignments for the
  /// free slots, events past `cursors`, and purges for the `held_jobs` that
  /// are finished or unknown. With `may_wait` and nothing to answer, holds
  /// the beat (see the file comment).
  TrackerHeartbeatReply trackerHeartbeat(
      const std::string& host, uint32_t free_map_slots,
      uint32_t free_reduce_slots,
      const std::vector<TaskStatusReport>& reports,
      const std::vector<ShuffleEventCursor>& cursors = {},
      const std::vector<JobId>& held_jobs = {}, bool may_wait = false);

  /// Test hook: one synchronous expiry pass.
  void runMonitorOnce();

  /// Live trackers that have heartbeated since they (re)registered: the
  /// ones a submitted job's first tasks can go to at once.
  size_t heartbeatingTrackers() const;

  /// Test hook: the tracker host where `map_index` of `job` currently has a
  /// succeeded output, empty when pending/running/unknown.
  std::string mapLocation(JobId job, uint32_t map_index) const;

 private:
  enum class TaskState : uint8_t { kPending, kRunning, kSucceeded };
  enum class Locality : uint8_t { kNodeLocal, kRackLocal, kRemote };

  struct TaskInProgress {
    TaskState state = TaskState::kPending;
    uint32_t next_attempt = 0;
    uint32_t running_attempt = 0;
    uint32_t failures = 0;
    std::string tracker;  ///< where running / where succeeded
    InputSplit split;     ///< maps only
    Locality locality = Locality::kRemote;  ///< of the current assignment
    int64_t started_ms = 0;  ///< when the current attempt launched
    /// This task's counters as last merged into the job totals. A task
    /// re-executed after its output was lost (fetch failure, dead tracker)
    /// succeeds a second time; its new counters must REPLACE this
    /// contribution, not stack on top of it.
    Counters contributed;
    // Speculative (backup) attempt for stragglers; first success wins.
    bool has_speculative = false;
    uint32_t speculative_attempt = 0;
    std::string speculative_tracker;
  };

  struct JobInProgress {
    JobId id = 0;
    std::string name;
    std::shared_ptr<const JobSpec> spec;  ///< null once finished
    std::vector<TaskInProgress> maps;
    std::vector<TaskInProgress> reduces;
    /// Succeeded maps before reduces launch, resolved from slowstart.
    size_t slowstart_maps = 1;
    JobState state = JobState::kRunning;
    std::string error;
    Counters counters;
    int64_t map_millis = 0;
    int64_t reduce_millis = 0;
    int64_t submit_ms = 0;
    int64_t finish_ms = 0;
    /// Causal trace identity, minted at submit when tracing is enabled
    /// (zero otherwise). Every assignment carries `trace_id` +
    /// `root_span_id` so MAP/REDUCE spans on remote trackers parent to the
    /// job's root span; the root JOB span itself is recorded at finish,
    /// backdated to `trace_start_us`.
    uint64_t trace_id = 0;
    uint64_t root_span_id = 0;
    int64_t trace_start_us = 0;
    /// JobHistory: every attempt ever scheduled, opened at assignment and
    /// closed by its status report (or tracker expiry).
    std::vector<TaskAttemptRecord> attempts;
    /// Map-completion event feed for pipelined shuffles: success and
    /// invalidation events with monotonic ids, kept for the job's lifetime
    /// and replayed to trackers from whatever cursor they present.
    std::vector<MapCompletionEvent> map_events;
    uint64_t next_event_id = 1;
  };

  /// One heartbeat's question and, once answered, its reply. A may-wait
  /// beat with nothing to say is parked in `held_beats_` until answered.
  struct Beat {
    const std::string& host;
    uint32_t free_map_slots;
    uint32_t free_reduce_slots;
    const std::vector<ShuffleEventCursor>& cursors;
    const std::vector<JobId>& held_jobs;
    TrackerHeartbeatReply reply;
    bool answered = false;
  };

  struct TrackerInfo {
    std::string rack;
    uint32_t map_slots = 0;
    uint32_t reduce_slots = 0;
    int64_t last_heartbeat_ms = 0;
    bool alive = false;
    bool heartbeating = false;  ///< beat since it last registered
  };

  static int64_t steadyMillis();
  void installRpc();
  void openAttemptLocked(JobInProgress& job, bool is_map, uint32_t task_index,
                         uint32_t attempt, const std::string& tracker,
                         bool speculative);
  void closeAttemptLocked(JobInProgress& job, bool is_map,
                          uint32_t task_index, uint32_t attempt,
                          bool succeeded, const std::string& error);
  void processReportLocked(const std::string& tracker_host,
                           const TaskStatusReport& report);
  void assignSpeculativeLocked(const std::string& tracker_host,
                               uint32_t& free_map_slots,
                               std::vector<TaskAssignment>& out);
  void failJobLocked(JobInProgress& job, const std::string& error);
  /// Records the terminal state, wakes waiters and held beats, and retires
  /// the job's O(tasks) scheduling state (see wait()).
  void finishJobLocked(JobInProgress& job, JobState state);
  bool allMapsDoneLocked(const JobInProgress& job) const;
  /// True once `slowstart_maps` maps succeeded: reduces may launch with a
  /// partial location list.
  bool reduceLaunchableLocked(const JobInProgress& job) const;
  /// Appends a success/invalidation event for `map_index` to the job's
  /// event feed (monotonic ids; success events carry the tracker host).
  void emitMapEventLocked(JobInProgress& job, uint32_t map_index,
                          bool invalidated);
  void assignTasksLocked(const std::string& tracker_host,
                         uint32_t free_map_slots, uint32_t free_reduce_slots,
                         std::vector<TaskAssignment>& out);
  /// Fills `beat.reply` from the current state: assignments for its free
  /// slots, events past its cursors, purges for its finished held jobs.
  /// Returns whether the reply carries any of them.
  bool answerLocked(Beat& beat);
  /// Answers every held beat that now has news and releases those. Each
  /// entry point that changes scheduling state ends with this.
  void answerHeldBeatsLocked();
  void expireTrackersLocked();
  void timeoutTasksLocked();
  JobStatus statusLocked(const JobInProgress& job) const;

  Config conf_;
  std::shared_ptr<net::Network> network_;
  std::shared_ptr<JobRegistry> registry_;
  std::string host_;
  std::string namenode_host_;

  // Claimed at construction (registry child "jobtracker"); the cached
  // Counter handles are lock-free, safe to bump under lock_.
  MetricsRegistry* metrics_ = nullptr;
  TraceCollector* tracer_ = nullptr;
  Counter* jobs_submitted_ = nullptr;
  Counter* jobs_succeeded_ = nullptr;
  Counter* jobs_failed_ = nullptr;
  Counter* attempts_failed_ = nullptr;

  mutable std::mutex lock_;
  std::condition_variable job_done_;
  /// Held heartbeats wait here, released once answered (or on stop()).
  std::condition_variable news_;
  std::vector<Beat*> held_beats_;
  std::map<JobId, JobInProgress> jobs_;
  std::deque<JobId> finished_;  ///< retained finished jobs, oldest first
  std::map<std::string, TrackerInfo> trackers_;
  JobId next_job_id_ = 1;
  bool started_ = false;

  std::jthread monitor_;
};

}  // namespace mh::mr
