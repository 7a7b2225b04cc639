#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mh/common/config.h"
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
/// Memory policy (the paper's deadline-night lesson): a task that grows the
/// heap past `mapred.tasktracker.memory.bytes` either fails with
/// OutOfMemoryError (`policy=fail-task`, default) or takes the whole
/// tracker down (`policy=crash-tracker`) — run-time errors "created memory
/// leaks on the Java heap and consequently crashed the task tracker".
///
/// Config keys (defaults):
///   mapred.tasktracker.map.tasks.maximum     2
///   mapred.tasktracker.reduce.tasks.maximum  1
///   mapred.tasktracker.heartbeat.ms          50
///   mapred.tasktracker.memory.bytes          (unlimited)
///   mapred.tasktracker.oom.policy            fail-task | crash-tracker
///   mapred.reduce.parallel.copies            5
///   mapred.shuffle.fetch.retries             3
///   mapred.shuffle.fetch.backoff.ms          5    (exponential base; actual
///                                            sleep is seeded full jitter in
///                                            [0, capped backoff])
///   mapred.shuffle.fetch.backoff.max.ms      200
///   mapred.reduce.merge.fold.fanin           8    (pipelined shuffle: fold
///                                            an eligible block into one
///                                            segment once it reaches this
///                                            many fetched runs)

namespace mh::mr {

struct JobSpec;

/// Fetches partition `assignment.task_index`'s run from every map host in
/// `assignment.map_outputs`, with up to `mapred.reduce.parallel.copies`
/// (default 5) fetches in flight at once. Hosts are visited in an order
/// permuted by a job-seeded RNG (deterministic per seed, so chaos replays
/// are stable) to spread concurrent reducers across serving trackers, but
/// results land in canonical map order regardless of visit order. Runs
/// arrive as refcounted views — a run served by a tracker on this fabric is
/// the map output store's own buffer, uncopied. Retries back off
/// exponentially with seeded full jitter (sleep uniform in [0, capped
/// backoff], seed derived from job/task/attempt/retry so it is independent
/// of thread interleaving). On any failure throws
/// IoError("fetch-failure host=<h> map=<i>: ...") — the shape the
/// JobTracker parses to re-execute the source map; when several concurrent
/// fetches fail, the lowest map index is reported. On success, meters
/// SHUFFLE_BYTES and the wall-clock SHUFFLE_FETCH_MILLIS of the whole fetch
/// phase into `shuffle_counters`.
///
/// When `spec` is given and in-node combining is on for the job (a combiner
/// plus `mapred.innode.combine=true`), the map list is grouped by host and
/// each group fetched as ONE `getNodeOutput` call — the serving tracker
/// merges all its maps' runs through the combiner and ships one consolidated
/// run per node. A failed node fetch is attributed to the specific missing
/// map when the server names one ("missing map=<i>"), else to the group's
/// lowest map index, keeping the re-execute contract exact.
std::vector<BufferView> fetchShuffleRuns(net::Network& network,
                                         const std::string& host,
                                         const TaskAssignment& assignment,
                                         const Config& conf,
                                         Counters& shuffle_counters,
                                         const JobSpec* spec = nullptr);

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
  };

  void installRpc();
  void heartbeatLoop(std::stop_token token);
  void heartbeatOnce();
  void runAssignment(const TaskAssignment& assignment);
  void runMapAssignment(const TaskAssignment& assignment);
  void runReduceAssignment(const TaskAssignment& assignment);
  /// Every reduce's shuffle: fetches map outputs incrementally as their
  /// locations arrive (all at once when the assignment's list is already
  /// complete), folding fetched runs into bounded segments, and returns the
  /// assembled input runs once membership is complete.
  /// Charges fetched bytes to the task heap as they arrive; the running
  /// total is reported through `charged_bytes` for the caller's heap guard
  /// (already released again if this throws).
  std::vector<BufferView> runPipelinedShuffle(const TaskAssignment& assignment,
                                              const JobSpec& spec,
                                              Counters& shuffle_counters,
                                              int64_t& charged_bytes);
  /// Marks registered pipelined shuffles aborted and wakes their waiters
  /// (`job == 0` → all of them; used by stop/abandon/crash and purgeJob).
  void abortPipelinedShuffles(JobId job);
  void chargeHeap(int64_t delta);
  /// Non-throwing budget check for opportunistic caches (the store's
  /// combined runs and encoded-serve cache): charges `delta` and returns
  /// true, or refuses growth past the budget and returns false WITHOUT
  /// invoking the OOM policy — a declined cache is not a task failure.
  bool tryChargeHeap(int64_t delta);
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
  /// Serve-side shuffle compression accounting: logical vs wire bytes of
  /// runs served while `mapred.shuffle.compression` is on for the job.
  Counter* shuffle_raw_bytes_ = nullptr;
  Counter* shuffle_compressed_bytes_ = nullptr;
  /// Pipelined shuffle: runs/bytes fetched while maps were still running,
  /// and runs discarded + re-fetched after an invalidation event. Bumped
  /// live (not success-gated) — they describe tracker work, not job truth.
  Counter* pipelined_runs_ = nullptr;
  Counter* pipelined_bytes_ = nullptr;
  Counter* pipelined_refetches_ = nullptr;
  LatencyHistogram* map_micros_ = nullptr;
  LatencyHistogram* reduce_micros_ = nullptr;
  LatencyHistogram* map_sort_micros_ = nullptr;

  uint32_t map_slots_;
  uint32_t reduce_slots_;
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

  std::jthread heartbeat_thread_;
};

}  // namespace mh::mr
