#include "mh/batch/scheduler.h"

#include <algorithm>
#include <limits>

#include "mh/common/error.h"
#include "mh/common/log.h"

namespace mh::batch {

namespace {
constexpr const char* kLog = "batch";
constexpr double kNever = std::numeric_limits<double>::infinity();
}  // namespace

const char* batchJobStateName(BatchJobState state) {
  switch (state) {
    case BatchJobState::kQueued: return "QUEUED";
    case BatchJobState::kRunning: return "RUNNING";
    case BatchJobState::kCompleted: return "COMPLETED";
    case BatchJobState::kTimedOut: return "TIMEDOUT";
    case BatchJobState::kPreempted: return "PREEMPTED";
  }
  return "?";
}

BatchScheduler::BatchScheduler(int total_nodes, Config conf,
                               BatchCallbacks callbacks)
    : cleanup_delay_(conf.get(keys::kBatchCleanupDelaySecs)),
      reassign_early_(conf.get(keys::kBatchReassignBeforeCleanup)),
      callbacks_(std::move(callbacks)) {
  conf.validate(keys::Scope::kDaemon);
  if (total_nodes < 1) throw InvalidArgumentError("need >= 1 node");
  nodes_.resize(static_cast<size_t>(total_nodes));
  for (int n = 0; n < total_nodes; ++n) {
    char name[16];
    std::snprintf(name, sizeof(name), "node%02d", n + 1);
    nodes_[static_cast<size_t>(n)].name = name;
  }
}

BatchJobId BatchScheduler::submit(BatchJobSpec spec) {
  if (spec.nodes < 1 || spec.nodes > static_cast<int>(nodes_.size())) {
    throw InvalidArgumentError("job asks for an impossible node count");
  }
  const BatchJobId id = next_id_++;
  Job job;
  job.spec = std::move(spec);
  jobs_.emplace(id, std::move(job));
  queue_.push_back(id);
  trySchedule();
  return id;
}

int BatchScheduler::freeNodes() const {
  int free = 0;
  for (const Node& node : nodes_) {
    if (node.state == NodeState::kFree) ++free;
  }
  return free;
}

std::vector<std::string> BatchScheduler::dirtyNodes() const {
  std::vector<std::string> out;
  for (const Node& node : nodes_) {
    if (node.dirty) out.push_back(node.name);
  }
  return out;
}

BatchJobState BatchScheduler::state(BatchJobId id) const {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) throw NotFoundError("job " + std::to_string(id));
  return it->second.state;
}

std::vector<std::string> BatchScheduler::allocatedNodes(BatchJobId id) const {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) throw NotFoundError("job " + std::to_string(id));
  std::vector<std::string> out;
  for (const int idx : it->second.node_indices) {
    out.push_back(nodes_[static_cast<size_t>(idx)].name);
  }
  return out;
}

bool BatchScheduler::startJobNow(BatchJobId id) {
  Job& job = jobs_.at(id);
  std::vector<int> chosen;
  for (size_t n = 0; n < nodes_.size() &&
                     chosen.size() < static_cast<size_t>(job.spec.nodes);
       ++n) {
    if (nodes_[n].state == NodeState::kFree) {
      chosen.push_back(static_cast<int>(n));
    }
  }
  if (chosen.size() < static_cast<size_t>(job.spec.nodes)) return false;

  job.node_indices = std::move(chosen);
  job.state = BatchJobState::kRunning;
  job.start_time = now_;
  job.end_time =
      now_ + std::min(job.spec.runtime_secs, job.spec.walltime_secs);
  std::vector<std::string> names;
  for (const int idx : job.node_indices) {
    Node& node = nodes_[static_cast<size_t>(idx)];
    node.state = NodeState::kBusy;
    node.job = id;
    names.push_back(node.name);
  }
  logInfo(kLog) << "job " << id << " (" << job.spec.user << ") starts on "
                << names.size() << " nodes at t=" << now_;
  if (callbacks_.on_start) callbacks_.on_start(id, names);
  return true;
}

void BatchScheduler::vacate(BatchJobId id, EndReason reason) {
  Job& job = jobs_.at(id);
  std::vector<std::string> names;

  for (const int idx : job.node_indices) {
    Node& node = nodes_[static_cast<size_t>(idx)];
    names.push_back(node.name);
    node.job = 0;
    if (job.spec.clean_shutdown && reason == EndReason::kCompleted) {
      // Clean exit: this job leaves nothing behind. Dirt left by a
      // *previous* occupant stays pending — its epilogue has not run yet.
      node.state = NodeState::kFree;
    } else {
      // Ghost daemons possible; the epilogue will scrub them later.
      node.dirty = true;
      node.cleanup_at = now_ + cleanup_delay_;
      node.state = reassign_early_ ? NodeState::kFree : NodeState::kCleanup;
    }
  }
  switch (reason) {
    case EndReason::kCompleted: job.state = BatchJobState::kCompleted; break;
    case EndReason::kTimedOut: job.state = BatchJobState::kTimedOut; break;
    case EndReason::kPreempted: job.state = BatchJobState::kPreempted; break;
  }
  logInfo(kLog) << "job " << id << " " << batchJobStateName(job.state)
                << " at t=" << now_;
  if (callbacks_.on_end) callbacks_.on_end(id, names, reason);
  if (reason == EndReason::kPreempted && job.spec.resubmit_on_preempt) {
    submit(job.spec);
  }
}

void BatchScheduler::trySchedule() {
  // Highest priority first; FIFO within a priority.
  std::stable_sort(queue_.begin(), queue_.end(),
                   [this](BatchJobId a, BatchJobId b) {
                     return jobs_.at(a).spec.priority >
                            jobs_.at(b).spec.priority;
                   });
  bool progressed = true;
  while (progressed && !queue_.empty()) {
    progressed = false;
    const BatchJobId id = queue_.front();
    Job& job = jobs_.at(id);
    if (startJobNow(id)) {
      queue_.pop_front();
      progressed = true;
      continue;
    }
    // Preemption: a job may evict strictly lower-priority running jobs.
    std::vector<BatchJobId> victims;
    int reclaimable = freeNodes();
    for (const auto& [running_id, running] : jobs_) {
      if (running.state == BatchJobState::kRunning &&
          running.spec.priority < job.spec.priority) {
        victims.push_back(running_id);
        reclaimable += running.spec.nodes;
      }
    }
    if (reclaimable < job.spec.nodes) break;  // head-of-line blocks
    // Evict lowest-priority victims first until the job fits. Preempted
    // nodes skip the epilogue wait here only if reassignment-before-cleanup
    // is on (vacate handles the policy).
    std::sort(victims.begin(), victims.end(),
              [this](BatchJobId a, BatchJobId b) {
                return jobs_.at(a).spec.priority < jobs_.at(b).spec.priority;
              });
    for (const BatchJobId victim : victims) {
      if (freeNodes() >= job.spec.nodes) break;
      vacate(victim, EndReason::kPreempted);
    }
    if (startJobNow(id)) {
      queue_.pop_front();
      progressed = true;
    } else {
      break;  // cleanup holds the nodes; wait for the epilogue
    }
  }
}

double BatchScheduler::nextEventTime() const {
  double next = kNever;
  for (const auto& [id, job] : jobs_) {
    if (job.state == BatchJobState::kRunning) {
      next = std::min(next, job.end_time);
    }
  }
  for (const Node& node : nodes_) {
    if (node.dirty) next = std::min(next, node.cleanup_at);
  }
  return next;
}

void BatchScheduler::processEventsAt(double t) {
  // Job endings.
  std::vector<BatchJobId> ending;
  for (const auto& [id, job] : jobs_) {
    if (job.state == BatchJobState::kRunning && job.end_time <= t) {
      ending.push_back(id);
    }
  }
  for (const BatchJobId id : ending) {
    const Job& job = jobs_.at(id);
    const bool timed_out = job.spec.runtime_secs > job.spec.walltime_secs;
    vacate(id, timed_out ? EndReason::kTimedOut : EndReason::kCompleted);
  }
  // Epilogue cleanups. A busy node's cleanup is deferred — the script must
  // not kill the current occupant's daemons.
  for (Node& node : nodes_) {
    if (node.dirty && node.cleanup_at <= t) {
      if (node.state == NodeState::kBusy) {
        node.cleanup_at = t + cleanup_delay_;
        continue;
      }
      node.dirty = false;
      if (node.state == NodeState::kCleanup) node.state = NodeState::kFree;
      if (callbacks_.on_cleanup) callbacks_.on_cleanup(node.name);
    }
  }
}

void BatchScheduler::advanceTo(double t) {
  if (t < now_) throw InvalidArgumentError("cannot rewind the clock");
  while (true) {
    const double next = nextEventTime();
    if (next > t) break;
    now_ = next;
    processEventsAt(now_);
    trySchedule();
  }
  now_ = t;
  trySchedule();
}

}  // namespace mh::batch
