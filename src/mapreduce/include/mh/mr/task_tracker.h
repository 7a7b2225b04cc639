#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "mh/common/config.h"
#include "mh/common/loop_waker.h"
#include "mh/common/threadpool.h"
#include "mh/mr/job_registry.h"
#include "mh/mr/map_output_store.h"
#include "mh/mr/mr_wire.h"
#include "mh/net/network.h"

/// \file task_tracker.h
/// The MapReduce worker daemon. Runs on the same host as a DataNode (that
/// co-location is what makes map-side data locality possible), heartbeats
/// to the JobTracker for work, executes map/reduce tasks in its slots,
/// serves finished map outputs to shuffling reducers, and enforces a memory
/// budget on its tasks.
///
/// Heartbeats are event-driven (Hadoop's out-of-band heartbeat): the tracker
/// beats as soon as a slot frees, and when every running task waits on the
/// JobTracker (no map running, every reduce parked for completion events,
/// or nothing running at all) it beats with `may_wait` at once and the
/// JobTracker holds the beat until it has news. The periodic beat remains
/// for liveness, and carries failed attempts' reports so their retries are
/// paced at one per interval.
///
/// Memory policy (the paper's deadline-night lesson): a task that grows the
/// heap past `mapred.tasktracker.memory.bytes` either fails with
/// OutOfMemoryError (`policy=fail-task`, default) or takes the whole
/// tracker down (`policy=crash-tracker`) — run-time errors "created memory
/// leaks on the Java heap and consequently crashed the task tracker".

namespace mh::mr {

struct JobSpec;
class IncrementalMerger;

/// One fetch unit and how its transfer ended: one `getMapOutput` call
/// naming `maps` on `host` — a single map's output as stored, or (in-node
/// combining) every map that ran on the host, combined there into one run.
/// Exactly one of `run` (the fetched segmented output, kv_stream.h) and
/// `error` (the last attempt's cause) is meaningful.
struct FetchOutcome {
  std::string host;
  std::vector<uint32_t> maps;  ///< in location-list order
  BufferView run;
  std::optional<std::string> error;

  /// The map a failure should re-execute: the one the server named missing
  /// (`parseMissingMap`) when it is one of `maps` — a grouped fetch can
  /// fail because ONE member is absent while the rest are fine — else the
  /// lowest of `maps`.
  uint32_t blamedMap() const;
};

/// Fetches partition `assignment.task_index`'s map output for every
/// location in `assignment.map_outputs`, with up to
/// `mapred.reduce.parallel.copies` fetches in flight at once, and returns
/// one outcome per fetch unit: one per map, or with `by_host` (in-node
/// combining) one per host naming all of that host's maps, in
/// first-appearance order. Every unit is one `getMapOutput` call carrying
/// (job, partition, maps). The fetches run through forEachHelped
/// (threadpool.h): on the calling thread plus up to copies-1 helpers of the
/// process's one I/O helper pool, which DFS reads share, so a fetch creates
/// no thread and a busy pool cannot stall it. It never throws for a failed
/// fetch and never decides what a failure means; the caller does. Units
/// are visited in an order permuted by a job-seeded RNG (deterministic per
/// seed, so chaos replays are stable) to spread concurrent reducers across
/// serving trackers, but outcomes land in canonical location order
/// regardless.
/// Runs arrive as refcounted views — a run served by a tracker on this
/// fabric is the map output store's own buffer, uncopied. Retries back off
/// exponentially with seeded full jitter (sleep uniform in [0, capped
/// backoff], seed derived from job/task/attempt/retry so it is independent
/// of thread interleaving). Meters SHUFFLE_BYTES (fetched runs only),
/// SHUFFLE_FETCH_RETRIES and the wall-clock SHUFFLE_FETCH_MILLIS of the
/// whole fetch into `shuffle_counters`.
std::vector<FetchOutcome> fetchShuffleRuns(net::Network& network,
                                           const std::string& host,
                                           const TaskAssignment& assignment,
                                           const Config& conf,
                                           Counters& shuffle_counters,
                                           bool by_host);

class TaskTracker {
 public:
  TaskTracker(Config conf, std::shared_ptr<net::Network> network,
              std::string host, std::shared_ptr<JobRegistry> registry,
              std::string jobtracker_host = "jobtracker",
              std::string namenode_host = "namenode");
  ~TaskTracker();
  TaskTracker(const TaskTracker&) = delete;
  TaskTracker& operator=(const TaskTracker&) = delete;

  /// Registers with the JobTracker, binds the shuffle port, starts the
  /// heartbeat thread. Throws AlreadyExistsError on a ghost daemon's port.
  void start();

  /// Clean shutdown: finish nothing, drop everything, release the port.
  void stop();

  /// Ghost-daemon exit: threads stop, port stays bound.
  void abandon();

  /// Machine crash: host down on the fabric; map outputs are lost to
  /// shufflers, heartbeats stop, the JobTracker declares the tracker dead.
  void crash();

  const std::string& host() const { return host_; }
  bool running() const { return running_.load(); }
  MapOutputStore& mapOutputs() { return outputs_; }

  /// Current charged task heap, bytes (test/diagnostic hook).
  int64_t heapUsed() const { return heap_used_.load(); }

  /// High-water mark of charged task heap since start().
  int64_t heapPeak() const { return heap_peak_.load(); }

 private:
  /// Shared between the heartbeat thread (producer: routes map-completion
  /// events piggybacked on heartbeat replies) and one pipelined reduce task
  /// (consumer). Registered for the lifetime of the task's shuffle phase.
  struct PipelinedShuffleState {
    JobId job = 0;
    uint32_t task_index = 0;
    std::mutex mutex;
    std::condition_variable cv;
    uint64_t cursor = 0;  ///< highest event id routed into the inbox
    std::deque<MapCompletionEvent> inbox;
    bool aborted = false;  ///< tracker stopping / job purged: give up
    bool parked = false;   ///< in REDUCE_SHUFFLE_WAIT: only news can help
  };

  void installRpc();
  void heartbeatLoop(std::stop_token token);
  void heartbeatOnce();
  /// True when none of the running tasks can finish without news from the
  /// JobTracker — no map is assigned and every assigned reduce is parked
  /// with an empty inbox, or nothing runs at all — and no report is waiting
  /// to go out.
  bool mayWait();
  void runAssignment(const TaskAssignment& assignment);
  /// Run one attempt and queue its report; return whether it succeeded.
  bool runMapAssignment(const TaskAssignment& assignment);
  bool runReduceAssignment(const TaskAssignment& assignment);
  /// Every reduce's shuffle: fetches map outputs incrementally as their
  /// locations arrive (all at once when the assignment's list is already
  /// complete; in-node combining always waits for the full list and then
  /// fetches one run per host) into `merger`, folding fetched runs into
  /// bounded segments, and returns once membership is complete. Each
  /// batch's outcomes are settled here: a unit with a map invalidated
  /// during the batch is dropped (the feed re-announces it), any other
  /// failed unit fails the attempt with `formatFetchFailure` (mr_wire.h)
  /// naming the lowest blamed map, and every other unit is decoded through
  /// `intakeMapOutput` (task_runner.h) and added to `merger`, which charges
  /// what it holds to the task heap.
  void runPipelinedShuffle(const TaskAssignment& assignment,
                           const JobSpec& spec, Counters& shuffle_counters,
                           IncrementalMerger& merger);
  /// Marks registered pipelined shuffles aborted and wakes their waiters
  /// (`job == 0` → all of them; used by stop/abandon/crash and purgeJob).
  void abortPipelinedShuffles(JobId job);
  void chargeHeap(int64_t delta);
  void queueReport(TaskStatusReport report);

  Config conf_;
  std::shared_ptr<net::Network> network_;
  std::string host_;
  std::shared_ptr<JobRegistry> registry_;
  std::string jobtracker_host_;
  std::string namenode_host_;

  // Claimed at construction ("tasktracker.<host>"); cached handles are
  // lock-free so task threads never do registry lookups.
  MetricsRegistry* metrics_ = nullptr;
  TraceCollector* tracer_ = nullptr;
  Counter* maps_completed_ = nullptr;
  Counter* maps_failed_ = nullptr;
  Counter* reduces_completed_ = nullptr;
  Counter* reduces_failed_ = nullptr;
  Counter* merge_segments_ = nullptr;
  Counter* shuffle_fetch_millis_ = nullptr;
  Counter* shuffle_bytes_ = nullptr;
  Counter* map_spills_ = nullptr;
  Counter* spilled_records_ = nullptr;
  /// Pipelined shuffle: runs/bytes fetched while maps were still running,
  /// and runs discarded + re-fetched after an invalidation event. Bumped
  /// live (not success-gated) — they describe tracker work, not job truth.
  Counter* pipelined_runs_ = nullptr;
  Counter* pipelined_bytes_ = nullptr;
  Counter* pipelined_refetches_ = nullptr;
  LatencyHistogram* map_micros_ = nullptr;
  LatencyHistogram* reduce_micros_ = nullptr;
  LatencyHistogram* shuffle_fetch_micros_ = nullptr;
  LatencyHistogram* map_sort_micros_ = nullptr;

  uint32_t map_slots_;
  uint32_t reduce_slots_;
  /// Heap budget and OOM policy, resolved once from the conf.
  int64_t heap_budget_;
  bool oom_crashes_tracker_;
  std::unique_ptr<ThreadPool> map_pool_;
  std::unique_ptr<ThreadPool> reduce_pool_;
  std::atomic<uint32_t> busy_maps_{0};
  std::atomic<uint32_t> busy_reduces_{0};
  std::atomic<int64_t> heap_used_{0};
  std::atomic<int64_t> heap_peak_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> crashed_{false};
  bool port_bound_ = false;

  MapOutputStore outputs_;

  /// Active pipelined shuffles on this tracker, for heartbeat event routing.
  std::mutex shuffles_mutex_;
  std::vector<std::shared_ptr<PipelinedShuffleState>> shuffles_;

  std::mutex reports_mutex_;
  std::vector<TaskStatusReport> pending_reports_;

  /// Rung when a slot frees or a reduce parks with no map running, so the
  /// heartbeat loop beats at once instead of at the next interval.
  LoopWaker beat_waker_;
  std::jthread heartbeat_thread_;
};

}  // namespace mh::mr
