#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "mh/common/config.h"

/// \file scheduler.h
/// A miniature PBS-style batch scheduler for the paper's shared academic
/// supercomputer — the substrate myHadoop provisions clusters on. Virtual
/// time (the caller advances the clock), which keeps every platform war
/// story deterministic:
///
///  * **priority preemption** — "their jobs can be preempted from the
///    system by higher priority research jobs";
///  * **walltime enforcement** — reservations expire mid-session;
///  * **epilogue cleanup delay** — the clean-up script that kills leftover
///    daemons runs *after* a node is vacated; with the paper's
///    configuration nodes could be reassigned before it ran, so "myHadoop
///    scripts would not be able to start a new Hadoop cluster due to
///    required ports being blocked off ... the student would have to wait
///    15 minutes for the scheduler to clean up these daemons."

namespace mh::batch {

using BatchJobId = uint64_t;

enum class BatchJobState : uint8_t {
  kQueued,
  kRunning,
  kCompleted,   ///< finished within walltime
  kTimedOut,    ///< killed at walltime
  kPreempted,   ///< evicted by a higher-priority job (requeued copy exists
                ///< only if resubmit_on_preempt)
};

const char* batchJobStateName(BatchJobState state);

struct BatchJobSpec {
  std::string user = "student";
  int nodes = 1;
  double walltime_secs = 3600;
  /// How long the job actually needs; it completes at
  /// start + min(runtime, walltime).
  double runtime_secs = 600;
  int priority = 0;  ///< higher wins; research jobs outrank course work
  /// Whether the job's teardown is clean. False = it leaves ghost daemons
  /// behind (ports stay dirty until the epilogue runs on each node).
  bool clean_shutdown = true;
  bool resubmit_on_preempt = false;
};

/// End-of-occupancy reasons passed to the callbacks.
enum class EndReason : uint8_t { kCompleted, kTimedOut, kPreempted };

struct BatchCallbacks {
  /// Job got its nodes and starts now.
  std::function<void(BatchJobId, const std::vector<std::string>& nodes)>
      on_start;
  /// Job vacated its nodes (any reason).
  std::function<void(BatchJobId, const std::vector<std::string>& nodes,
                     EndReason)>
      on_end;
  /// Epilogue cleanup script runs on one node (kill leftover daemons).
  std::function<void(const std::string& node)> on_cleanup;
};

class BatchScheduler {
 public:
  BatchScheduler(int total_nodes, Config conf = {},
                 BatchCallbacks callbacks = {});

  double now() const { return now_; }

  /// Submits a job; it may start immediately (callbacks fire inside).
  BatchJobId submit(BatchJobSpec spec);

  /// Advances virtual time, firing completions/kills/cleanups/starts.
  void advanceTo(double t);
  void advanceBy(double dt) { advanceTo(now_ + dt); }

  BatchJobState state(BatchJobId id) const;
  std::vector<std::string> allocatedNodes(BatchJobId id) const;
  /// Number of nodes currently free for scheduling.
  int freeNodes() const;
  /// Nodes whose epilogue has not yet run (dirty: ghost daemons may lurk).
  std::vector<std::string> dirtyNodes() const;
  size_t queuedJobs() const { return queue_.size(); }

 private:
  enum class NodeState : uint8_t { kFree, kBusy, kCleanup };

  struct Node {
    std::string name;
    NodeState state = NodeState::kFree;
    bool dirty = false;         ///< vacated uncleanly, epilogue pending
    double cleanup_at = 0;      ///< when the epilogue runs
    BatchJobId job = 0;
  };

  struct Job {
    BatchJobSpec spec;
    BatchJobState state = BatchJobState::kQueued;
    double start_time = 0;
    double end_time = 0;  ///< scheduled end while running
    std::vector<int> node_indices;
  };

  void trySchedule();
  bool startJobNow(BatchJobId id);
  void vacate(BatchJobId id, EndReason reason);
  double nextEventTime() const;
  void processEventsAt(double t);

  double cleanup_delay_;
  bool reassign_early_;
  BatchCallbacks callbacks_;
  std::vector<Node> nodes_;
  std::map<BatchJobId, Job> jobs_;
  std::deque<BatchJobId> queue_;
  BatchJobId next_id_ = 1;
  double now_ = 0;
};

}  // namespace mh::batch
