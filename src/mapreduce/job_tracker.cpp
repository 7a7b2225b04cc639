#include "mh/mr/job_tracker.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

#include "mh/common/error.h"
#include "mh/common/log.h"
#include "mh/common/stopwatch.h"
#include "mh/hdfs/dfs_client.h"

namespace mh::mr {

namespace {
constexpr const char* kLog = "jobtracker";

/// Fetch failures are reported with this prefix so the JobTracker can
/// re-execute the source map instead of burning reduce attempts.
constexpr const char* kFetchFailurePrefix = "fetch-failure ";
}  // namespace

JobTracker::JobTracker(Config conf, std::shared_ptr<net::Network> network,
                       std::shared_ptr<JobRegistry> registry,
                       std::string host, std::string namenode_host)
    : conf_(std::move(conf)),
      network_(std::move(network)),
      registry_(std::move(registry)),
      host_(std::move(host)),
      namenode_host_(std::move(namenode_host)) {
  network_->addHost(host_);
  metrics_ = &network_->metrics().child("jobtracker");
  tracer_ = &network_->tracer();
  jobs_submitted_ = &metrics_->counter("jobs.submitted");
  jobs_succeeded_ = &metrics_->counter("jobs.succeeded");
  jobs_failed_ = &metrics_->counter("jobs.failed");
  attempts_failed_ = &metrics_->counter("attempts.failed");
  metrics_->setGauge("trackers.live", [this] {
    std::lock_guard<std::mutex> guard(lock_);
    double live = 0;
    for (const auto& [host, info] : trackers_) {
      if (info.alive) ++live;
    }
    return live;
  });
  metrics_->setGauge("jobs.running", [this] {
    std::lock_guard<std::mutex> guard(lock_);
    double running = 0;
    for (const auto& [id, job] : jobs_) {
      if (job.state == JobState::kRunning) ++running;
    }
    return running;
  });
}

JobTracker::~JobTracker() {
  stop();
  // The registry (and any MetricsSnapshotter sampling it) outlives this
  // daemon; replace `this`-capturing gauges with their final values.
  for (const char* name : {"trackers.live", "jobs.running"}) {
    metrics_->setGauge(name, [v = metrics_->gaugeValue(name)] { return v; });
  }
}

int64_t JobTracker::steadyMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void JobTracker::start() {
  {
    std::lock_guard<std::mutex> guard(lock_);
    if (started_) return;
  }
  // Bind before flipping started_ so a failed bind (ghost daemon on the
  // port) leaves stop() a no-op instead of unbinding the ghost.
  installRpc();
  {
    std::lock_guard<std::mutex> guard(lock_);
    started_ = true;
  }
  const auto interval = std::chrono::milliseconds(
      conf_.getInt("mapred.jobtracker.monitor.interval.ms", 50));
  monitor_ = std::jthread([this, interval](std::stop_token token) {
    while (!token.stop_requested()) {
      interruptibleSleep(token, interval);
      if (token.stop_requested()) return;
      runMonitorOnce();
    }
  });
  logInfo(kLog) << "started on " << host_ << ":" << kJobTrackerPort;
}

void JobTracker::stop() {
  {
    std::lock_guard<std::mutex> guard(lock_);
    if (!started_) return;
    started_ = false;
  }
  if (monitor_.joinable()) {
    monitor_.request_stop();
    monitor_.join();
  }
  network_->unbind(host_, kJobTrackerPort);
  job_done_.notify_all();
}

JobId JobTracker::submit(JobSpec spec) {
  spec.validateAndDefault();

  // Mint the job's trace identity up front and make it ambient for the
  // whole submit path, so the split-computation RPCs against the NameNode
  // land inside the job's trace tree. The root JOB span itself is recorded
  // at finish, backdated to trace_start_us.
  uint64_t trace_id = 0, root_span_id = 0;
  int64_t trace_start_us = 0;
  if (tracer_->enabled()) {
    trace_id = tracer_->newId();
    root_span_id = tracer_->newId();
    trace_start_us = tracer_->nowMicros();
  }
  const TraceContextScope trace_scope(
      TraceContext{trace_id, root_span_id, 0});

  // Compute splits against HDFS: these carry the block replica hosts the
  // scheduler will match trackers against.
  hdfs::DfsClient dfs(conf_, network_, host_, namenode_host_);
  HdfsFs fs(std::move(dfs));
  const auto input_format = spec.input_format();
  const auto splits = input_format->getSplits(fs, spec.input_paths);
  if (splits.empty()) {
    throw InvalidArgumentError("job '" + spec.name + "' has no input splits");
  }

  auto shared_spec = std::make_shared<const JobSpec>(std::move(spec));

  std::lock_guard<std::mutex> guard(lock_);
  const JobId id = next_job_id_++;
  registry_->put(id, shared_spec);

  JobInProgress job;
  job.id = id;
  job.spec = shared_spec;
  job.submit_ms = steadyMillis();
  job.trace_id = trace_id;
  job.root_span_id = root_span_id;
  job.trace_start_us = trace_start_us;
  job.maps.resize(splits.size());
  for (size_t i = 0; i < splits.size(); ++i) {
    job.maps[i].split = splits[i];
  }
  job.reduces.resize(shared_spec->num_reducers);
  logInfo(kLog) << "job " << id << " '" << shared_spec->name << "': "
                << job.maps.size() << " maps, " << job.reduces.size()
                << " reduces";
  jobs_submitted_->add();
  tracer_->instant("jobtracker", "SUBMIT job " + std::to_string(id),
                   {{"name", shared_spec->name},
                    {"maps", std::to_string(job.maps.size())},
                    {"reduces", std::to_string(job.reduces.size())}});
  jobs_.emplace(id, std::move(job));
  return id;
}

JobResult JobTracker::wait(JobId id) {
  std::unique_lock<std::mutex> guard(lock_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) throw NotFoundError("job " + std::to_string(id));
  job_done_.wait(guard, [&] {
    return it->second.state != JobState::kRunning || !started_;
  });
  const JobInProgress& job = it->second;
  JobResult result;
  result.state = job.state;
  result.counters = job.counters;
  result.map_millis = job.map_millis;
  result.reduce_millis = job.reduce_millis;
  result.elapsed_millis =
      (job.finish_ms != 0 ? job.finish_ms : steadyMillis()) - job.submit_ms;
  result.error = job.error;
  result.trace_id = job.trace_id;
  result.history.finish_ms = result.elapsed_millis;
  result.history.attempts = job.attempts;
  return result;
}

JobStatus JobTracker::statusLocked(const JobInProgress& job) const {
  JobStatus status;
  status.id = job.id;
  status.name = job.spec->name;
  status.state = job.state;
  status.maps_total = static_cast<uint32_t>(job.maps.size());
  status.reduces_total = static_cast<uint32_t>(job.reduces.size());
  for (const auto& t : job.maps) {
    if (t.state == TaskState::kSucceeded) ++status.maps_completed;
  }
  for (const auto& t : job.reduces) {
    if (t.state == TaskState::kSucceeded) ++status.reduces_completed;
  }
  status.error = job.error;
  return status;
}

JobStatus JobTracker::status(JobId id) const {
  std::lock_guard<std::mutex> guard(lock_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) throw NotFoundError("job " + std::to_string(id));
  return statusLocked(it->second);
}

std::vector<JobStatus> JobTracker::listJobs() const {
  std::lock_guard<std::mutex> guard(lock_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(statusLocked(job));
  return out;
}

std::string JobTracker::renderJobDetails(JobId id) const {
  std::lock_guard<std::mutex> guard(lock_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) throw NotFoundError("job " + std::to_string(id));
  const JobInProgress& job = it->second;
  const JobStatus status = statusLocked(job);

  std::ostringstream out;
  out << "Job job_" << id << " '" << job.spec->name
      << "'    state: " << jobStateName(job.state) << "\n";
  const auto bar = [](uint32_t done, uint32_t total) {
    const int cells = total == 0 ? 20 : static_cast<int>(20 * done / total);
    std::string s(static_cast<size_t>(cells), '#');
    s.resize(20, '.');
    return s;
  };
  out << "  maps:    [" << bar(status.maps_completed, status.maps_total)
      << "] " << status.maps_completed << "/" << status.maps_total << "\n";
  out << "  reduces: [" << bar(status.reduces_completed, status.reduces_total)
      << "] " << status.reduces_completed << "/" << status.reduces_total
      << "\n";
  out << "  map time: " << job.map_millis
      << " ms total, reduce time: " << job.reduce_millis << " ms total\n";
  out << "  locality: " << job.counters.value(counters::kJobGroup,
                                              counters::kDataLocalMaps)
      << " node-local, " << job.counters.value(counters::kJobGroup,
                                               counters::kRackLocalMaps)
      << " rack-local, " << job.counters.value(counters::kJobGroup,
                                               counters::kRemoteMaps)
      << " remote, " << job.counters.value(counters::kJobGroup,
                                           counters::kSpeculativeMaps)
      << " speculative\n";
  if (!job.error.empty()) out << "  error: " << job.error << "\n";
  out << job.counters.render();

  out << "  tasks:\n";
  for (size_t i = 0; i < job.maps.size(); ++i) {
    const TaskInProgress& task = job.maps[i];
    out << "    m" << i << "  "
        << (task.state == TaskState::kSucceeded   ? "SUCCEEDED"
            : task.state == TaskState::kRunning ? "RUNNING  "
                                                : "PENDING  ")
        << (task.tracker.empty() ? "" : "  on " + task.tracker) << "\n";
  }
  for (size_t i = 0; i < job.reduces.size(); ++i) {
    const TaskInProgress& task = job.reduces[i];
    out << "    r" << i << "  "
        << (task.state == TaskState::kSucceeded   ? "SUCCEEDED"
            : task.state == TaskState::kRunning ? "RUNNING  "
                                                : "PENDING  ")
        << (task.tracker.empty() ? "" : "  on " + task.tracker) << "\n";
  }
  return out.str();
}

// ------------------------------------------------------- tracker protocol

void JobTracker::registerTracker(const std::string& host, uint32_t map_slots,
                                 uint32_t reduce_slots,
                                 const std::string& rack) {
  std::lock_guard<std::mutex> guard(lock_);
  network_->addHost(host);
  TrackerInfo& info = trackers_[host];
  info.rack = rack;
  info.map_slots = map_slots;
  info.reduce_slots = reduce_slots;
  info.last_heartbeat_ms = steadyMillis();
  info.alive = true;
  logInfo(kLog) << "registered tasktracker " << host << " (" << map_slots
                << "M/" << reduce_slots << "R slots)";
}

void JobTracker::failJobLocked(JobInProgress& job, const std::string& error) {
  if (job.state != JobState::kRunning) return;
  job.error = error;
  finishJobLocked(job, JobState::kFailed);
}

void JobTracker::finishJobLocked(JobInProgress& job, JobState state) {
  job.state = state;
  job.finish_ms = steadyMillis();
  logInfo(kLog) << "job " << job.id << " " << jobStateName(state)
                << (job.error.empty() ? "" : (": " + job.error));
  (state == JobState::kSucceeded ? jobs_succeeded_ : jobs_failed_)->add();
  const TraceContext job_ctx{job.trace_id, job.root_span_id, 0};
  tracer_->instant(job_ctx, "jobtracker",
                   "JOB_FINISH job " + std::to_string(job.id),
                   {{"state", jobStateName(state)},
                    {"elapsed_ms",
                     std::to_string(job.finish_ms - job.submit_ms)}});
  if (job.trace_id != 0) {
    // The root JOB span, backdated to submit: every other span in the
    // job's trace is a descendant of this one. record() is unconditional
    // so the root lands even if tracing was disabled mid-job.
    TraceEvent root;
    root.component = "jobtracker";
    root.name = "JOB job " + std::to_string(job.id);
    root.span = true;
    root.ts_us = job.trace_start_us;
    root.dur_us = tracer_->nowMicros() - job.trace_start_us;
    root.trace_id = job.trace_id;
    root.span_id = job.root_span_id;
    root.parent_span_id = 0;
    root.track = "jobs";
    root.args = {{"state", jobStateName(state)}};
    tracer_->record(std::move(root));
  }
  job_done_.notify_all();
}

void JobTracker::openAttemptLocked(JobInProgress& job, bool is_map,
                                   uint32_t task_index, uint32_t attempt,
                                   const std::string& tracker,
                                   bool speculative) {
  TaskAttemptRecord record;
  record.is_map = is_map;
  record.task_index = task_index;
  record.attempt = attempt;
  record.tracker = tracker;
  record.start_ms = steadyMillis() - job.submit_ms;
  record.speculative = speculative;
  job.attempts.push_back(std::move(record));
}

void JobTracker::closeAttemptLocked(JobInProgress& job, bool is_map,
                                    uint32_t task_index, uint32_t attempt,
                                    bool succeeded,
                                    const std::string& error) {
  // Newest-first: the matching attempt is near the back of the journal.
  for (auto it = job.attempts.rbegin(); it != job.attempts.rend(); ++it) {
    if (it->finished || it->is_map != is_map ||
        it->task_index != task_index || it->attempt != attempt) {
      continue;
    }
    it->finished = true;
    it->finish_ms = steadyMillis() - job.submit_ms;
    it->succeeded = succeeded;
    it->error = error;
    return;
  }
}

bool JobTracker::allMapsDoneLocked(const JobInProgress& job) const {
  return std::all_of(job.maps.begin(), job.maps.end(), [](const auto& t) {
    return t.state == TaskState::kSucceeded;
  });
}

bool JobTracker::reduceLaunchableLocked(const JobInProgress& job) const {
  if (job.maps.empty()) return true;  // nothing to wait for
  double slowstart = conf_.getDouble(
      "mapred.reduce.slowstart.completed.maps", 0.05);
  if (job.spec->conf.getRaw("mapred.reduce.slowstart.completed.maps")) {
    slowstart = job.spec->conf.getDouble(
        "mapred.reduce.slowstart.completed.maps", slowstart);
  }
  slowstart = std::clamp(slowstart, 0.0, 1.0);
  size_t completed = 0;
  for (const auto& t : job.maps) {
    if (t.state == TaskState::kSucceeded) ++completed;
  }
  // At least one map must have finished (a reduce with zero known
  // locations would just spin), and slowstart=1.0 restores the blocking
  // all-maps-first schedule exactly.
  const auto threshold = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(slowstart * static_cast<double>(job.maps.size()))));
  return completed >= threshold;
}

void JobTracker::emitMapEventLocked(JobInProgress& job, uint32_t map_index,
                                    bool invalidated) {
  const TaskInProgress& task = job.maps[map_index];
  MapCompletionEvent event;
  event.job = job.id;
  event.event_id = job.next_event_id++;
  event.map_index = map_index;
  event.invalidated = invalidated;
  if (!invalidated) {
    event.host = task.tracker;
    event.map_generation = task.output_generation;
  }
  job.map_events.push_back(std::move(event));
}

void JobTracker::processReportLocked(const std::string& tracker_host,
                                     const TaskStatusReport& report) {
  const auto job_it = jobs_.find(report.job);
  if (job_it == jobs_.end()) return;  // job vanished
  JobInProgress& job = job_it->second;
  if (job.state != JobState::kRunning) return;

  auto& tasks = report.is_map ? job.maps : job.reduces;
  if (report.task_index >= tasks.size()) return;
  TaskInProgress& task = tasks[report.task_index];
  if (task.state == TaskState::kSucceeded) return;  // stale duplicate
  // Only the current attempt — or its speculative backup — may flip state;
  // reports from superseded attempts (tracker expired, task reassigned)
  // have unreliable output locations.
  const bool is_primary = task.state == TaskState::kRunning &&
                          report.attempt == task.running_attempt;
  const bool is_speculative = task.state == TaskState::kRunning &&
                              task.has_speculative &&
                              report.attempt == task.speculative_attempt;
  if (!is_primary && !is_speculative) return;

  closeAttemptLocked(job, report.is_map, report.task_index, report.attempt,
                     report.succeeded, report.error);

  if (report.succeeded) {
    // First success wins; the map output lives on the REPORTING tracker.
    task.state = TaskState::kSucceeded;
    task.tracker = tracker_host;
    task.has_speculative = false;
    // Retract the contribution of a previous success (a map re-executed
    // after its output was lost) so record counts stay exact under
    // re-execution instead of double-counting.
    for (const auto& [group, name, value] : task.contributed.snapshot()) {
      job.counters.increment(group, name, -value);
    }
    task.contributed = Counters::fromSnapshot(report.counters);
    job.counters.merge(task.contributed);
    if (report.is_map) {
      ++task.output_generation;
      emitMapEventLocked(job, report.task_index, /*invalidated=*/false);
      job.map_millis += report.millis;
      const char* locality_counter = counters::kRemoteMaps;
      if (task.locality == Locality::kNodeLocal) {
        locality_counter = counters::kDataLocalMaps;
      } else if (task.locality == Locality::kRackLocal) {
        locality_counter = counters::kRackLocalMaps;
      }
      job.counters.increment(counters::kJobGroup, locality_counter);
    } else {
      job.reduce_millis += report.millis;
    }
    // Job done?
    if (std::all_of(job.reduces.begin(), job.reduces.end(), [](const auto& t) {
          return t.state == TaskState::kSucceeded;
        })) {
      finishJobLocked(job, JobState::kSucceeded);
    }
    return;
  }

  // Failure path.
  logWarn(kLog) << "task " << report.job << (report.is_map ? "/m" : "/r")
                << report.task_index << " attempt " << report.attempt
                << " failed on " << tracker_host << ": " << report.error;
  attempts_failed_->add();
  tracer_->instant(
      TraceContext{job.trace_id, job.root_span_id, 0}, "jobtracker",
      std::string("ATTEMPT_FAIL ") + (report.is_map ? "m" : "r") +
          std::to_string(report.task_index) + " a" +
          std::to_string(report.attempt),
      {{"job", std::to_string(report.job)},
       {"tracker", tracker_host},
       {"error", report.error}});
  if (is_speculative) {
    // The backup died; the primary is still running — nothing else changes.
    task.has_speculative = false;
    task.speculative_tracker.clear();
    return;
  }
  if (task.has_speculative) {
    // The primary died but its backup lives: promote the backup.
    task.running_attempt = task.speculative_attempt;
    task.tracker = task.speculative_tracker;
    task.has_speculative = false;
    task.speculative_tracker.clear();
    ++task.failures;
    job.counters.increment(
        counters::kJobGroup,
        report.is_map ? counters::kFailedMaps : counters::kFailedReduces);
    return;
  }
  task.state = TaskState::kPending;
  task.tracker.clear();

  if (!report.is_map &&
      report.error.find(kFetchFailurePrefix) != std::string::npos) {
    // Shuffle could not pull a map output: re-execute that map rather than
    // charging the reduce with a real failure.
    const std::string& err = report.error;
    const auto host_pos = err.find("host=");
    const auto map_pos = err.find("map=");
    if (host_pos != std::string::npos && map_pos != std::string::npos) {
      const auto host_end = err.find(' ', host_pos);
      const std::string bad_host =
          err.substr(host_pos + 5, host_end - host_pos - 5);
      const auto map_end = err.find_first_of(" :", map_pos);
      const uint32_t map_index = static_cast<uint32_t>(
          std::stoul(err.substr(map_pos + 4, map_end - map_pos - 4)));
      if (map_index < job.maps.size() &&
          job.maps[map_index].state == TaskState::kSucceeded &&
          job.maps[map_index].tracker == bad_host) {
        job.maps[map_index].state = TaskState::kPending;
        job.maps[map_index].tracker.clear();
        emitMapEventLocked(job, map_index, /*invalidated=*/true);
        logWarn(kLog) << "re-executing map " << map_index << " of job "
                      << job.id << " (output lost on " << bad_host << ")";
      }
    }
    return;  // fetch failures don't count toward the reduce's attempts
  }

  ++task.failures;
  job.counters.increment(
      counters::kJobGroup,
      report.is_map ? counters::kFailedMaps : counters::kFailedReduces);
  const auto max_attempts =
      static_cast<uint32_t>(conf_.getInt("mapred.max.attempts", 4));
  if (task.failures >= max_attempts) {
    failJobLocked(job, "task " + std::string(report.is_map ? "map" : "reduce") +
                           std::to_string(report.task_index) + " failed " +
                           std::to_string(task.failures) +
                           " times; last error: " + report.error);
  }
}

void JobTracker::assignTasksLocked(const std::string& tracker_host,
                                   uint32_t free_map_slots,
                                   uint32_t free_reduce_slots,
                                   std::vector<TaskAssignment>& out) {
  // Map tasks: node-local, then rack-local, then remote — the Hadoop
  // scheduler's locality hierarchy. A split host's rack is the rack of the
  // co-located TaskTracker registered under the same host name.
  const auto tracker_it = trackers_.find(tracker_host);
  const std::string& tracker_rack = tracker_it != trackers_.end()
                                        ? tracker_it->second.rack
                                        : std::string("/default-rack");
  const auto localityOf = [&](const InputSplit& split) {
    for (const auto& host : split.hosts) {
      if (host == tracker_host) return Locality::kNodeLocal;
    }
    for (const auto& host : split.hosts) {
      const auto it = trackers_.find(host);
      if (it != trackers_.end() && it->second.rack == tracker_rack) {
        return Locality::kRackLocal;
      }
    }
    return Locality::kRemote;
  };

  for (auto& [id, job] : jobs_) {
    if (job.state != JobState::kRunning) continue;
    for (int pass = 0; pass < 3 && free_map_slots > 0; ++pass) {
      const auto want = static_cast<Locality>(pass);
      for (size_t i = 0; i < job.maps.size() && free_map_slots > 0; ++i) {
        TaskInProgress& task = job.maps[i];
        if (task.state != TaskState::kPending) continue;
        const Locality locality = localityOf(task.split);
        if (locality != want) continue;

        task.state = TaskState::kRunning;
        task.tracker = tracker_host;
        task.locality = locality;
        task.running_attempt = task.next_attempt++;
        task.started_ms = steadyMillis();
        openAttemptLocked(job, /*is_map=*/true, static_cast<uint32_t>(i),
                          task.running_attempt, tracker_host,
                          /*speculative=*/false);
        TaskAssignment assignment;
        assignment.kind = AssignmentKind::kMap;
        assignment.job = id;
        assignment.task_index = static_cast<uint32_t>(i);
        assignment.attempt = task.running_attempt;
        assignment.split = task.split;
        assignment.trace_id = job.trace_id;
        assignment.parent_span_id = job.root_span_id;
        out.push_back(std::move(assignment));
        job.counters.increment(counters::kJobGroup, counters::kLaunchedMaps);
        --free_map_slots;
      }
    }
  }

  // Speculative backups for straggler maps.
  if (conf_.getBool("mapred.speculative.execution", false)) {
    assignSpeculativeLocked(tracker_host, free_map_slots, out);
  }

  // Reduce tasks: launched once the job's succeeded-map count reaches the
  // slowstart threshold (mapred.reduce.slowstart.completed.maps, default
  // 0.05). The assignment carries the location list known NOW plus the
  // event-feed cursor it is current through; locations for maps that
  // finish later ride the heartbeat map-completion feed, so the reduce's
  // shuffle overlaps the rest of the map wave.
  for (auto& [id, job] : jobs_) {
    if (job.state != JobState::kRunning) continue;
    if (!reduceLaunchableLocked(job)) continue;
    for (size_t i = 0; i < job.reduces.size() && free_reduce_slots > 0; ++i) {
      TaskInProgress& task = job.reduces[i];
      if (task.state != TaskState::kPending) continue;
      task.state = TaskState::kRunning;
      task.tracker = tracker_host;
      task.running_attempt = task.next_attempt++;
      task.started_ms = steadyMillis();
      openAttemptLocked(job, /*is_map=*/false, static_cast<uint32_t>(i),
                        task.running_attempt, tracker_host,
                        /*speculative=*/false);
      TaskAssignment assignment;
      assignment.kind = AssignmentKind::kReduce;
      assignment.job = id;
      assignment.task_index = static_cast<uint32_t>(i);
      assignment.attempt = task.running_attempt;
      assignment.trace_id = job.trace_id;
      assignment.parent_span_id = job.root_span_id;
      assignment.total_maps = static_cast<uint32_t>(job.maps.size());
      assignment.event_cursor = job.next_event_id - 1;
      assignment.map_outputs.reserve(job.maps.size());
      for (size_t m = 0; m < job.maps.size(); ++m) {
        if (job.maps[m].state != TaskState::kSucceeded) continue;
        assignment.map_outputs.push_back(
            {static_cast<uint32_t>(m), job.maps[m].tracker});
      }
      out.push_back(std::move(assignment));
      job.counters.increment(counters::kJobGroup, counters::kLaunchedReduces);
      --free_reduce_slots;
    }
  }
}

void JobTracker::assignSpeculativeLocked(const std::string& tracker_host,
                                         uint32_t& free_map_slots,
                                         std::vector<TaskAssignment>& out) {
  const int64_t min_runtime = conf_.getInt("mapred.speculative.min.ms", 500);
  const int64_t now = steadyMillis();
  for (auto& [id, job] : jobs_) {
    if (job.state != JobState::kRunning || free_map_slots == 0) continue;
    // A straggler is judged against the average of completed maps; need a
    // sample to compare with.
    uint32_t completed = 0;
    for (const auto& t : job.maps) {
      if (t.state == TaskState::kSucceeded) ++completed;
    }
    if (completed == 0) continue;
    const int64_t avg_ms =
        job.map_millis / static_cast<int64_t>(completed);
    const int64_t threshold = std::max(min_runtime, 2 * avg_ms);

    for (size_t i = 0; i < job.maps.size() && free_map_slots > 0; ++i) {
      TaskInProgress& task = job.maps[i];
      if (task.state != TaskState::kRunning || task.has_speculative) continue;
      if (task.tracker == tracker_host) continue;  // back up elsewhere
      if (now - task.started_ms < threshold) continue;

      task.has_speculative = true;
      task.speculative_attempt = task.next_attempt++;
      task.speculative_tracker = tracker_host;
      openAttemptLocked(job, /*is_map=*/true, static_cast<uint32_t>(i),
                        task.speculative_attempt, tracker_host,
                        /*speculative=*/true);
      TaskAssignment assignment;
      assignment.kind = AssignmentKind::kMap;
      assignment.job = id;
      assignment.task_index = static_cast<uint32_t>(i);
      assignment.attempt = task.speculative_attempt;
      assignment.split = task.split;
      assignment.trace_id = job.trace_id;
      assignment.parent_span_id = job.root_span_id;
      out.push_back(std::move(assignment));
      job.counters.increment(counters::kJobGroup,
                             counters::kSpeculativeMaps);
      --free_map_slots;
      logInfo(kLog) << "speculative backup of map " << i << " (job " << id
                    << ", " << (now - task.started_ms) << " ms on "
                    << task.tracker << ") on " << tracker_host;
    }
  }
}

TrackerHeartbeatReply JobTracker::trackerHeartbeat(
    const std::string& host, uint32_t free_map_slots,
    uint32_t free_reduce_slots, const std::vector<TaskStatusReport>& reports,
    const std::vector<ShuffleEventCursor>& cursors) {
  std::lock_guard<std::mutex> guard(lock_);
  TrackerHeartbeatReply reply;
  const auto it = trackers_.find(host);
  if (it == trackers_.end()) {
    reply.reregister = true;
    return reply;
  }
  it->second.last_heartbeat_ms = steadyMillis();
  it->second.alive = true;

  for (const auto& report : reports) {
    processReportLocked(host, report);
  }

  assignTasksLocked(host, free_map_slots, free_reduce_slots,
                    reply.assignments);

  // Answer the tracker's event-feed subscriptions: everything newer than
  // its per-job cursor, replayed from the job's in-memory log (heartbeat
  // loss only delays delivery — the tracker re-presents the same cursor).
  for (const auto& cursor : cursors) {
    const auto job_it = jobs_.find(cursor.job);
    if (job_it == jobs_.end()) continue;
    for (const auto& event : job_it->second.map_events) {
      if (event.event_id > cursor.after) reply.map_events.push_back(event);
    }
  }

  for (const auto& [id, job] : jobs_) {
    if (job.state != JobState::kRunning) reply.purge_jobs.push_back(id);
  }
  return reply;
}

std::string JobTracker::mapLocation(JobId job, uint32_t map_index) const {
  std::lock_guard<std::mutex> guard(lock_);
  const auto it = jobs_.find(job);
  if (it == jobs_.end() || map_index >= it->second.maps.size()) return "";
  const TaskInProgress& task = it->second.maps[map_index];
  return task.state == TaskState::kSucceeded ? task.tracker : "";
}

void JobTracker::runMonitorOnce() {
  std::lock_guard<std::mutex> guard(lock_);
  expireTrackersLocked();
  timeoutTasksLocked();
}

void JobTracker::expireTrackersLocked() {
  const int64_t expiry = conf_.getInt("mapred.tasktracker.expiry.ms", 1000);
  const int64_t now = steadyMillis();
  for (auto& [host, info] : trackers_) {
    if (!info.alive || now - info.last_heartbeat_ms <= expiry) continue;
    info.alive = false;
    logWarn(kLog) << "tasktracker " << host << " lost";
    tracer_->instant("jobtracker", "TRACKER_LOST " + host);
    for (auto& [id, job] : jobs_) {
      if (job.state != JobState::kRunning) continue;
      // Close the journal on every attempt that died with the tracker.
      for (auto& record : job.attempts) {
        if (!record.finished && record.tracker == host) {
          record.finished = true;
          record.finish_ms = now - job.submit_ms;
          record.succeeded = false;
          record.error = "tracker lost";
        }
      }
      for (size_t i = 0; i < job.maps.size(); ++i) {
        TaskInProgress& task = job.maps[i];
        // Running tasks die with the tracker; succeeded maps lose their
        // outputs (they live in the tracker's MapOutputStore).
        if (task.has_speculative && task.speculative_tracker == host) {
          task.has_speculative = false;
          task.speculative_tracker.clear();
        }
        if (task.tracker == host && task.state != TaskState::kPending) {
          if (task.state == TaskState::kRunning && task.has_speculative) {
            // The backup survives the primary's tracker: promote it.
            task.running_attempt = task.speculative_attempt;
            task.tracker = task.speculative_tracker;
            task.has_speculative = false;
            task.speculative_tracker.clear();
          } else {
            const bool was_succeeded = task.state == TaskState::kSucceeded;
            task.state = TaskState::kPending;
            task.tracker.clear();
            if (was_succeeded) {
              // An announced output just vanished: pipelined reducers
              // holding its fetched run must discard and re-fetch.
              emitMapEventLocked(job, static_cast<uint32_t>(i),
                                 /*invalidated=*/true);
            }
          }
        }
      }
      for (auto& task : job.reduces) {
        if (task.tracker == host && task.state == TaskState::kRunning) {
          task.state = TaskState::kPending;
          task.tracker.clear();
        }
      }
    }
  }
}

void JobTracker::timeoutTasksLocked() {
  // A Running attempt can wedge without its tracker expiring: the
  // assignment rode a heartbeat reply that was lost in flight, so the
  // tracker never learned about the task yet keeps heartbeating happily.
  // Failing attempts older than the timeout reschedules them; stale
  // reports from the abandoned attempt are ignored by the attempt-number
  // check in processReportLocked.
  const int64_t timeout = conf_.getInt("mapred.task.timeout.ms", 600'000);
  if (timeout <= 0) return;
  const int64_t now = steadyMillis();
  const auto max_attempts =
      static_cast<uint32_t>(conf_.getInt("mapred.max.attempts", 4));
  for (auto& [id, job] : jobs_) {
    if (job.state != JobState::kRunning) continue;
    const auto sweep = [&](std::vector<TaskInProgress>& tasks, bool is_map) {
      for (size_t i = 0; i < tasks.size(); ++i) {
        if (job.state != JobState::kRunning) return;
        TaskInProgress& task = tasks[i];
        if (task.state != TaskState::kRunning) continue;
        if (now - task.started_ms <= timeout) continue;
        logWarn(kLog) << "task " << id << (is_map ? "/m" : "/r") << i
                      << " attempt " << task.running_attempt << " timed out ("
                      << (now - task.started_ms) << " ms on " << task.tracker
                      << "); rescheduling";
        closeAttemptLocked(job, is_map, static_cast<uint32_t>(i),
                           task.running_attempt, /*succeeded=*/false,
                           "task timeout");
        if (task.has_speculative) {
          closeAttemptLocked(job, is_map, static_cast<uint32_t>(i),
                             task.speculative_attempt, /*succeeded=*/false,
                             "task timeout");
          task.has_speculative = false;
          task.speculative_tracker.clear();
        }
        attempts_failed_->add();
        tracer_->instant(
            TraceContext{job.trace_id, job.root_span_id, 0}, "jobtracker",
            std::string("ATTEMPT_TIMEOUT ") + (is_map ? "m" : "r") +
                std::to_string(i) + " a" + std::to_string(task.running_attempt),
            {{"job", std::to_string(id)}, {"tracker", task.tracker}});
        task.state = TaskState::kPending;
        task.tracker.clear();
        ++task.failures;
        job.counters.increment(
            counters::kJobGroup,
            is_map ? counters::kFailedMaps : counters::kFailedReduces);
        if (task.failures >= max_attempts) {
          failJobLocked(job,
                        "task " + std::string(is_map ? "map" : "reduce") +
                            std::to_string(i) + " failed " +
                            std::to_string(task.failures) +
                            " times; last error: task timeout");
        }
      }
    };
    sweep(job.maps, /*is_map=*/true);
    sweep(job.reduces, /*is_map=*/false);
  }
}

void JobTracker::installRpc() {
  network_->bind(host_, kJobTrackerPort,
                 [this](const net::RpcRequest& req) -> BufferView {
    if (req.method == "registerTracker") {
      const auto [host, map_slots, reduce_slots, rack] =
          unpack<std::string, uint32_t, uint32_t, std::string>(req.body);
      registerTracker(host, map_slots, reduce_slots, rack);
      return {};
    }
    if (req.method == "heartbeat") {
      const auto [host, free_maps, free_reduces, reports, cursors] =
          unpack<std::string, uint32_t, uint32_t,
                 std::vector<TaskStatusReport>,
                 std::vector<ShuffleEventCursor>>(req.body);
      return pack(
          trackerHeartbeat(host, free_maps, free_reduces, reports, cursors));
    }
    throw InvalidArgumentError("jobtracker: unknown RPC method " + req.method);
  });
}

}  // namespace mh::mr
