#include "mh/mr/task_tracker.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "mh/common/codec.h"
#include "mh/common/error.h"
#include "mh/common/log.h"
#include "mh/common/rng.h"
#include "mh/common/stopwatch.h"
#include "mh/common/threadpool.h"
#include "mh/hdfs/dfs_client.h"
#include "mh/mr/kv_stream.h"
#include "mh/mr/merge.h"
#include "mh/mr/task_runner.h"

namespace mh::mr {

namespace {
constexpr const char* kLog = "tasktracker";
/// Cap on the exponential backoff between one fetch's retries.
constexpr int64_t kFetchBackoffMaxMs = 200;
}  // namespace

namespace {

/// Groups locations into fetch units: one per map, or (in-node combining)
/// one per host in first-appearance order.
std::vector<FetchOutcome> buildFetchUnits(
    const std::vector<MapOutputLocation>& locations, bool by_host) {
  std::vector<FetchOutcome> units;
  for (const MapOutputLocation& location : locations) {
    if (by_host) {
      const auto it = std::find_if(
          units.begin(), units.end(),
          [&](const FetchOutcome& unit) { return unit.host == location.host; });
      if (it != units.end()) {
        it->maps.push_back(location.map_index);
        continue;
      }
    }
    units.push_back({location.host, {location.map_index}});
  }
  return units;
}

/// Root seed for a reduce attempt's fetch-side randomness (host visit order,
/// backoff jitter). Derived by hashing stable task identity — never from
/// global state or the clock — so a chaos run with a given seed replays the
/// same delays and orders no matter how the fetch helpers interleave.
uint64_t fetchSeed(const TaskAssignment& assignment, uint64_t salt) {
  uint64_t x = (static_cast<uint64_t>(assignment.job) << 40) ^
               (static_cast<uint64_t>(assignment.task_index) << 20) ^
               static_cast<uint64_t>(assignment.attempt) ^ salt;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

uint32_t FetchOutcome::blamedMap() const {
  const std::optional<uint32_t> missing =
      error ? parseMissingMap(*error) : std::nullopt;
  if (missing && std::find(maps.begin(), maps.end(), *missing) != maps.end()) {
    return *missing;
  }
  return *std::min_element(maps.begin(), maps.end());
}

std::vector<FetchOutcome> fetchShuffleRuns(net::Network& network,
                                           const std::string& host,
                                           const TaskAssignment& assignment,
                                           const Config& conf,
                                           Counters& shuffle_counters,
                                           bool by_host) {
  std::vector<FetchOutcome> units =
      buildFetchUnits(assignment.map_outputs, by_host);
  const size_t n = units.size();
  if (n == 0) return units;

  TraceSpan span(&network.tracer(), "tasktracker." + host,
                 "SHUFFLE_FETCH r" + std::to_string(assignment.task_index) +
                     " a" + std::to_string(assignment.attempt));
  span.arg("job", std::to_string(assignment.job));
  span.arg("maps", std::to_string(assignment.map_outputs.size()));
  if (by_host) span.arg("units", std::to_string(n));
  Stopwatch watch;
  // Transient faults (a rebooting tracker, a dropped reply) deserve a few
  // bounded-backoff retries before the expensive path — declaring a
  // fetch-failure and making the JobTracker re-execute the source map.
  const size_t attempts = conf.get(keys::kShuffleFetchRetries);
  const int64_t backoff_ms = conf.get(keys::kShuffleFetchBackoffMs);
  std::atomic<int64_t> retries{0};
  // Visit units in a job-seeded random order: a wave of reducers starting
  // together would otherwise all hammer the first map host before moving on
  // in lockstep. Deterministic per seed, and results land at their
  // canonical slot regardless of visit order, so outputs are unchanged.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  Rng order_rng(fetchSeed(assignment, /*salt=*/0x0bdeu));
  for (size_t i = n - 1; i > 0; --i) {
    std::swap(order[i], order[order_rng.uniform(i + 1)]);
  }
  // Slot `slot` fetches unit order[slot]; distinct units are written by
  // distinct slots, so no lock is needed. Helpers run under this thread's
  // trace context, so getMapOutput calls (and any faults injected into
  // them) stay inside the reduce's SHUFFLE_FETCH subtree.
  forEachHelped(n, conf.get(keys::kReduceParallelCopies), [&](size_t slot) {
    const size_t i = order[slot];
    FetchOutcome& unit = units[i];
    for (size_t attempt = 0; attempt < attempts; ++attempt) {
      try {
        unit.run = network.call(
            host, unit.host, kTaskTrackerPort, "getMapOutput",
            pack(assignment.job, assignment.task_index, unit.maps),
            "shuffle");
        unit.error.reset();
        break;
      } catch (const std::exception& e) {
        unit.error = e.what();
        if (attempt + 1 == attempts) break;
        retries.fetch_add(1, std::memory_order_relaxed);
        // Full jitter: sleep uniform in [0, capped exponential backoff],
        // decorrelating retry storms when many reducers lose the same
        // host at once. Seeded per (task identity, unit, retry) so a
        // chaos seed replays the same delays.
        const int64_t cap = std::min(
            kFetchBackoffMaxMs, backoff_ms << std::min<size_t>(attempt, 20));
        Rng jitter(fetchSeed(assignment, /*salt=*/0x8acc0ffull) ^
                   (static_cast<uint64_t>(i) << 32) ^ attempt);
        const int64_t delay =
            cap > 0 ? static_cast<int64_t>(
                          jitter.uniform(static_cast<uint64_t>(cap) + 1))
                    : 0;
        if (delay > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(delay));
        }
      }
    }
  });

  int64_t total_bytes = 0;
  for (const FetchOutcome& unit : units) {
    if (!unit.error) total_bytes += static_cast<int64_t>(unit.run.size());
  }
  shuffle_counters.increment(counters::kShuffleGroup, counters::kShuffleBytes,
                             total_bytes);
  shuffle_counters.increment(counters::kShuffleGroup,
                             counters::kShuffleFetchMillis,
                             watch.elapsedMillis());
  if (const int64_t r = retries.load(); r > 0) {
    shuffle_counters.increment(counters::kShuffleGroup,
                               counters::kShuffleFetchRetries, r);
  }
  span.arg("bytes", std::to_string(total_bytes));
  return units;
}

TaskTracker::TaskTracker(Config conf, std::shared_ptr<net::Network> network,
                         std::string host,
                         std::shared_ptr<JobRegistry> registry,
                         std::string jobtracker_host,
                         std::string namenode_host)
    : conf_(std::move(conf)),
      network_(std::move(network)),
      host_(std::move(host)),
      registry_(std::move(registry)),
      jobtracker_host_(std::move(jobtracker_host)),
      namenode_host_(std::move(namenode_host)),
      map_slots_(conf_.get(keys::kTrackerMapSlots)),
      reduce_slots_(conf_.get(keys::kTrackerReduceSlots)),
      heap_budget_(conf_.get(keys::kTrackerMemoryBytes)),
      oom_crashes_tracker_(conf_.get(keys::kTrackerOomPolicy) ==
                           "crash-tracker") {
  conf_.validate(keys::Scope::kDaemon);
  network_->addHost(host_);
  metrics_ = &network_->metrics().child("tasktracker." + host_);
  tracer_ = &network_->tracer();
  maps_completed_ = &metrics_->counter("tasks.maps.completed");
  maps_failed_ = &metrics_->counter("tasks.maps.failed");
  reduces_completed_ = &metrics_->counter("tasks.reduces.completed");
  reduces_failed_ = &metrics_->counter("tasks.reduces.failed");
  // Satellite view of the job-level counters (MERGE_SEGMENTS,
  // SHUFFLE_FETCH_MILLIS, SHUFFLE_BYTES): bumped only for successful
  // reduces, mirroring the JobTracker's merge-on-success, so in a clean run
  // the registry sums equal the job counter totals.
  merge_segments_ = &metrics_->counter("merge_segments");
  shuffle_fetch_millis_ = &metrics_->counter("shuffle_fetch_millis");
  shuffle_bytes_ = &metrics_->counter("shuffle_bytes");
  map_spills_ = &metrics_->counter("map_spills");
  spilled_records_ = &metrics_->counter("spilled_records");
  pipelined_runs_ = &metrics_->counter("shuffle.pipelined.runs");
  pipelined_bytes_ = &metrics_->counter("shuffle.pipelined.bytes");
  pipelined_refetches_ = &metrics_->counter("shuffle.pipelined.refetches");
  map_micros_ = &metrics_->histogram("task.map.micros");
  reduce_micros_ = &metrics_->histogram("task.reduce.micros");
  shuffle_fetch_micros_ = &metrics_->histogram("shuffle.fetch.micros");
  map_sort_micros_ = &metrics_->histogram("map.sort.micros");
  metrics_->setGauge("heap.used_bytes", [this] {
    return static_cast<double>(heapUsed());
  });
  metrics_->setGauge("heap.peak_bytes", [this] {
    return static_cast<double>(heapPeak());
  });
  metrics_->setGauge("mapoutput.store.bytes", [this] {
    return static_cast<double>(outputs_.totalBytes());
  });
  outputs_.attach(registry_.get(), metrics_, tracer_, "tasktracker." + host_);
}

TaskTracker::~TaskTracker() {
  stop();
  // The registry (and any MetricsSnapshotter sampling it) outlives this
  // daemon; replace `this`-capturing gauges with their final values.
  for (const char* name :
       {"heap.used_bytes", "heap.peak_bytes", "mapoutput.store.bytes"}) {
    metrics_->setGauge(name, [v = metrics_->gaugeValue(name)] { return v; });
  }
}

void TaskTracker::start() {
  if (running_.load()) return;
  if (!port_bound_) {
    installRpc();
    port_bound_ = true;
  }
  crashed_.store(false);
  network_->setHostUp(host_, true);
  // A kind with zero slots (e.g. a reduce-only tracker) is never assigned,
  // but its pool still needs a thread to exist.
  map_pool_ = std::make_unique<ThreadPool>(std::max<uint32_t>(1, map_slots_));
  reduce_pool_ =
      std::make_unique<ThreadPool>(std::max<uint32_t>(1, reduce_slots_));
  heap_used_.store(0);
  running_.store(true);

  network_->call(host_, jobtracker_host_, kJobTrackerPort, "registerTracker",
                 pack(host_, map_slots_, reduce_slots_,
                      conf_.get(keys::kDatanodeRack)));

  heartbeat_thread_ = std::jthread(
      [this](std::stop_token token) { heartbeatLoop(token); });
  logInfo(kLog) << host_ << " started (" << map_slots_ << "M/"
                << reduce_slots_ << "R)";
}

void TaskTracker::stop() {
  if (!running_.load() && !port_bound_) return;
  running_.store(false);
  if (heartbeat_thread_.joinable()) {
    heartbeat_thread_.request_stop();
    heartbeat_thread_.join();
  }
  // Wake pipelined reduces waiting for completion events, then drain the
  // task pools (tasks may fail fast since the host may be down). Order
  // matters: the pool destructors join, and a reduce parked on its event
  // inbox would never return without the abort.
  abortPipelinedShuffles(0);
  map_pool_.reset();
  reduce_pool_.reset();
  if (port_bound_) {
    network_->unbind(host_, kTaskTrackerPort);
    port_bound_ = false;
  }
  outputs_.clear();
  logInfo(kLog) << host_ << " stopped";
}

void TaskTracker::abandon() {
  running_.store(false);
  if (heartbeat_thread_.joinable()) {
    heartbeat_thread_.request_stop();
    heartbeat_thread_.join();
  }
  abortPipelinedShuffles(0);
  map_pool_.reset();
  reduce_pool_.reset();
  logWarn(kLog) << host_ << " abandoned (port still bound)";
}

void TaskTracker::crash() {
  crashed_.store(true);
  network_->setHostUp(host_, false);
  running_.store(false);
  if (heartbeat_thread_.joinable()) {
    heartbeat_thread_.request_stop();
    heartbeat_thread_.join();
  }
  abortPipelinedShuffles(0);
  map_pool_.reset();
  reduce_pool_.reset();
  outputs_.clear();  // the process died; its map outputs are gone
  logWarn(kLog) << host_ << " crashed";
}

void TaskTracker::heartbeatLoop(std::stop_token token) {
  const auto interval =
      std::chrono::milliseconds(conf_.get(keys::kTrackerHeartbeatMs));
  // Whether the last call to the JobTracker got through (at first, the
  // registration in start()).
  bool reachable = true;
  while (!token.stop_requested()) {
    // Beat when rung (a slot freed, a reduce parked) or at the liveness
    // interval. A tracker that may wait beats again at once — the
    // JobTracker holds that beat until it has news — unless the JobTracker
    // was unreachable, which backs off a full interval.
    beat_waker_.waitFor(token, reachable && mayWait()
                                   ? std::chrono::milliseconds(0)
                                   : interval);
    if (token.stop_requested() || !running_.load()) return;
    reachable = false;
    try {
      heartbeatOnce();
      reachable = true;
    } catch (const NetworkError&) {
      // JobTracker unreachable; retry next beat.
    } catch (const std::exception& e) {
      logWarn(kLog) << host_ << " heartbeat error: " << e.what();
    }
  }
}

bool TaskTracker::mayWait() {
  {
    // An unsent report (a failed attempt's: successes ring at once) waits
    // for the periodic beat, so a task that fails fast is retried once per
    // interval rather than as fast as it can fail.
    std::lock_guard<std::mutex> lock(reports_mutex_);
    if (!pending_reports_.empty()) return false;
  }
  const uint32_t busy_reduces = busy_reduces_.load();
  if (busy_maps_.load() != 0) return false;
  uint32_t parked = 0;
  std::lock_guard<std::mutex> lock(shuffles_mutex_);
  for (const auto& shuffle : shuffles_) {
    std::lock_guard<std::mutex> state_lock(shuffle->mutex);
    if (shuffle->parked && shuffle->inbox.empty() && !shuffle->aborted) {
      ++parked;
    }
  }
  return parked == busy_reduces;
}

void TaskTracker::heartbeatOnce() {
  // Judged before taking the reports: a task queues its report before it
  // frees its slot, so a beat that counts the slot free carries the report.
  const bool may_wait = mayWait();
  std::vector<TaskStatusReport> reports;
  {
    std::lock_guard<std::mutex> lock(reports_mutex_);
    reports.swap(pending_reports_);
  }
  const uint32_t free_maps = map_slots_ - std::min(map_slots_, busy_maps_.load());
  const uint32_t free_reduces =
      reduce_slots_ - std::min(reduce_slots_, busy_reduces_.load());

  // Pipelined reduces subscribe to their job's map-completion feed: present
  // one cursor per job — the minimum across this tracker's active shuffles,
  // so no subscriber misses an event another already consumed. Every job
  // with stored outputs or a shuffle is presented as held, so the JobTracker
  // can say which of them have finished.
  std::vector<ShuffleEventCursor> cursors;
  std::vector<JobId> held_jobs = outputs_.jobIds();
  {
    std::lock_guard<std::mutex> lock(shuffles_mutex_);
    for (const auto& shuffle : shuffles_) {
      std::lock_guard<std::mutex> state_lock(shuffle->mutex);
      const auto it = std::find_if(
          cursors.begin(), cursors.end(),
          [&](const ShuffleEventCursor& c) { return c.job == shuffle->job; });
      if (it == cursors.end()) {
        cursors.push_back({shuffle->job, shuffle->cursor});
        if (std::find(held_jobs.begin(), held_jobs.end(), shuffle->job) ==
            held_jobs.end()) {
          held_jobs.push_back(shuffle->job);
        }
      } else {
        it->after = std::min(it->after, shuffle->cursor);
      }
    }
  }

  TrackerHeartbeatReply reply;
  try {
    const BufferView raw = network_->call(
        host_, jobtracker_host_, kJobTrackerPort, "heartbeat",
        pack(host_, free_maps, free_reduces, reports, cursors, held_jobs,
             may_wait));
    reply = std::get<0>(unpack<TrackerHeartbeatReply>(raw));
  } catch (...) {
    // Re-queue the reports so they are not lost.
    std::lock_guard<std::mutex> lock(reports_mutex_);
    pending_reports_.insert(pending_reports_.begin(), reports.begin(),
                            reports.end());
    throw;
  }

  if (reply.reregister) {
    network_->call(host_, jobtracker_host_, kJobTrackerPort,
                   "registerTracker",
                   pack(host_, map_slots_, reduce_slots_,
                        conf_.get(keys::kDatanodeRack)));
    return;
  }
  if (!reply.map_events.empty()) {
    // The reply concatenates replays for every cursor we presented; with
    // two subscribers at different positions the same job's ids can arrive
    // out of order. Sort so each inbox consumes ids ascending and the
    // `event_id > cursor` dedup below stays exact.
    std::vector<MapCompletionEvent> events(reply.map_events.begin(),
                                           reply.map_events.end());
    std::sort(events.begin(), events.end(),
              [](const MapCompletionEvent& a, const MapCompletionEvent& b) {
                return a.job != b.job ? a.job < b.job
                                      : a.event_id < b.event_id;
              });
    std::lock_guard<std::mutex> lock(shuffles_mutex_);
    for (const auto& shuffle : shuffles_) {
      std::lock_guard<std::mutex> state_lock(shuffle->mutex);
      bool delivered = false;
      for (const MapCompletionEvent& event : events) {
        if (event.job != shuffle->job || event.event_id <= shuffle->cursor) {
          continue;
        }
        shuffle->inbox.push_back(event);
        shuffle->cursor = event.event_id;
        delivered = true;
      }
      if (delivered) shuffle->cv.notify_all();
    }
  }
  for (const JobId job : reply.purge_jobs) {
    // A purged job is finished; a pipelined reduce still shuffling for it
    // (the job failed under it) will never complete — wake and abort it.
    abortPipelinedShuffles(job);
    outputs_.purgeJob(job);
  }
  for (const auto& assignment : reply.assignments) {
    runAssignment(assignment);
  }
}

void TaskTracker::abortPipelinedShuffles(JobId job) {
  std::lock_guard<std::mutex> lock(shuffles_mutex_);
  for (const auto& shuffle : shuffles_) {
    if (job != 0 && shuffle->job != job) continue;
    std::lock_guard<std::mutex> state_lock(shuffle->mutex);
    shuffle->aborted = true;
    shuffle->cv.notify_all();
  }
}

void TaskTracker::queueReport(TaskStatusReport report) {
  std::lock_guard<std::mutex> lock(reports_mutex_);
  pending_reports_.push_back(std::move(report));
}

void TaskTracker::chargeHeap(int64_t delta) {
  const int64_t used = heap_used_.fetch_add(delta) + delta;
  int64_t peak = heap_peak_.load();
  while (used > peak && !heap_peak_.compare_exchange_weak(peak, used)) {
  }
  // Only growth can bust the budget. Releases must never throw: they run
  // from destructors (e.g. ~MapOutputBuffer) during the unwind of a sibling
  // task's OOM, when the tracker may still be over budget — throwing there
  // would terminate() the process instead of failing the task.
  if (delta <= 0 || used <= heap_budget_) return;
  if (oom_crashes_tracker_) {
    // The heap-leak cascade: the whole daemon dies, taking its map outputs
    // (and, on the real cluster, the co-located DataNode) with it.
    logError(kLog) << host_ << " OOM (" << used << " > " << heap_budget_
                   << " bytes): crashing tracker";
    crashed_.store(true);
    network_->setHostUp(host_, false);
    running_.store(false);
    heartbeat_thread_.request_stop();  // loop exits on its next wake-up
    outputs_.clear();
  }
  throw OutOfMemoryError("task heap " + std::to_string(used) + " > budget " +
                         std::to_string(heap_budget_));
}

void TaskTracker::runAssignment(const TaskAssignment& assignment) {
  // The task queues its report, then frees its slot, then rings for a beat:
  // in that order the beat reports the task done AND its slot free. A failed
  // attempt does not ring; its report rides the periodic beat, which paces
  // retries — a task failing fast (say, while the NameNode is down) would
  // otherwise burn all its attempts within milliseconds (see mayWait()).
  if (assignment.kind == AssignmentKind::kMap) {
    ++busy_maps_;
    map_pool_->submit([this, assignment] {
      const bool succeeded = runMapAssignment(assignment);
      --busy_maps_;
      if (succeeded) beat_waker_.ring();
    });
  } else {
    ++busy_reduces_;
    reduce_pool_->submit([this, assignment] {
      const bool succeeded = runReduceAssignment(assignment);
      --busy_reduces_;
      if (succeeded) beat_waker_.ring();
    });
  }
}

bool TaskTracker::runMapAssignment(const TaskAssignment& assignment) {
  TaskStatusReport report;
  report.job = assignment.job;
  report.task_index = assignment.task_index;
  report.is_map = true;
  report.attempt = assignment.attempt;
  // Adopt the job's trace identity on this pool thread (the assignment
  // carried it over the heartbeat RPC), and give the attempt a stable,
  // readable chrome://tracing track.
  const TraceContextScope trace_scope(
      TraceContext{assignment.trace_id, assignment.parent_span_id, 0},
      "m" + std::to_string(assignment.task_index) + " a" +
          std::to_string(assignment.attempt));
  TraceSpan span(tracer_, "tasktracker." + host_,
                 "MAP m" + std::to_string(assignment.task_index) + " a" +
                     std::to_string(assignment.attempt));
  span.arg("job", std::to_string(assignment.job));
  Stopwatch watch;
  try {
    const auto spec = registry_->get(assignment.job);
    hdfs::DfsClient dfs(conf_, network_, host_, namenode_host_);
    HdfsFs fs(std::move(dfs));
    auto result = runMapTask(*spec, fs, assignment.split,
                             [this](int64_t d) { chargeHeap(d); }, tracer_,
                             "tasktracker." + host_, metrics_);
    outputs_.put(assignment.job, assignment.task_index,
                 std::move(result.partitions));
    report.succeeded = true;
    report.counters = result.counters.snapshot();
    report.millis = result.millis;
    maps_completed_->add();
    map_micros_->record(watch.elapsedMicros());
    map_sort_micros_->record(result.sort_micros);
    // Registry mirror of the map-side spill counters, success-only like the
    // shuffle/merge mirrors below.
    map_spills_->add(
        result.counters.value(counters::kTaskGroup, counters::kMapSpills));
    spilled_records_->add(result.counters.value(counters::kTaskGroup,
                                                counters::kSpilledRecords));
  } catch (const std::exception& e) {
    report.succeeded = false;
    report.error = e.what();
    maps_failed_->add();
    span.arg("error", e.what());
  }
  const bool succeeded = report.succeeded;
  queueReport(std::move(report));
  return succeeded;
}

bool TaskTracker::runReduceAssignment(const TaskAssignment& assignment) {
  TaskStatusReport report;
  report.job = assignment.job;
  report.task_index = assignment.task_index;
  report.is_map = false;
  report.attempt = assignment.attempt;
  const TraceContextScope trace_scope(
      TraceContext{assignment.trace_id, assignment.parent_span_id, 0},
      "r" + std::to_string(assignment.task_index) + " a" +
          std::to_string(assignment.attempt));
  TraceSpan span(tracer_, "tasktracker." + host_,
                 "REDUCE r" + std::to_string(assignment.task_index) + " a" +
                     std::to_string(assignment.attempt));
  span.arg("job", std::to_string(assignment.job));
  Stopwatch watch;
  try {
    const auto spec = registry_->get(assignment.job);
    Counters shuffle_counters;

    // The fetched runs are the reduce task's working set; the merger that
    // holds them charges them against the tracker memory budget while the
    // streaming merge runs. Unlike user allocateHeap() leaks, these buffers
    // really are freed when the task ends, so the merger releases its
    // charge when it goes, on failure too.
    IncrementalMerger merger({.heap = [this](int64_t d) { chargeHeap(d); }});

    // Shuffle: pull this partition's run from every map's tracker, several
    // fetches in flight at once, merging incrementally as runs arrive. When
    // slowstart fired before every map finished, the missing locations come
    // in as completion events; a complete location list (slowstart 1.0) is
    // simply fetched in the first round.
    runPipelinedShuffle(assignment, *spec, shuffle_counters, merger);

    hdfs::DfsClient dfs(conf_, network_, host_, namenode_host_);
    HdfsFs fs(std::move(dfs));
    auto result = runReduceTask(*spec, fs, assignment.task_index,
                                assignment.attempt, merger.assemble(),
                                [this](int64_t d) { chargeHeap(d); }, tracer_,
                                "tasktracker." + host_);
    result.counters.merge(shuffle_counters);
    report.succeeded = true;
    report.counters = result.counters.snapshot();
    report.millis = result.millis;
    reduces_completed_->add();
    reduce_micros_->record(watch.elapsedMicros());
    // Mirror the PR-1 shuffle/merge counters into the registry on success
    // only — the JobTracker also merges counters only from successful
    // attempts, so the two stay consistent in a clean run.
    merge_segments_->add(
        result.counters.value(counters::kTaskGroup, counters::kMergeSegments));
    shuffle_fetch_millis_->add(result.counters.value(
        counters::kShuffleGroup, counters::kShuffleFetchMillis));
    shuffle_bytes_->add(
        result.counters.value(counters::kShuffleGroup,
                              counters::kShuffleBytes));
  } catch (const std::exception& e) {
    report.succeeded = false;
    report.error = e.what();
    reduces_failed_->add();
    span.arg("error", e.what());
  }
  const bool succeeded = report.succeeded;
  queueReport(std::move(report));
  return succeeded;
}

void TaskTracker::runPipelinedShuffle(const TaskAssignment& assignment,
                                      const JobSpec& spec,
                                      Counters& shuffle_counters,
                                      IncrementalMerger& merger) {
  const bool innode =
      spec.combiner != nullptr && spec.conf.get(keys::kInnodeCombine);
  const uint32_t total_maps = assignment.total_maps;
  const std::string component = "tasktracker." + host_;
  const std::string task_tag = "r" + std::to_string(assignment.task_index) +
                               " a" + std::to_string(assignment.attempt);

  // Subscribe to the job's completion-event feed from the assignment's
  // snapshot cursor; the heartbeat thread routes events into the inbox.
  auto state = std::make_shared<PipelinedShuffleState>();
  state->job = assignment.job;
  state->task_index = assignment.task_index;
  state->cursor = assignment.event_cursor;
  {
    std::lock_guard<std::mutex> lock(shuffles_mutex_);
    shuffles_.push_back(state);
  }
  struct Unsubscribe {
    TaskTracker* tracker;
    const std::shared_ptr<PipelinedShuffleState>& state;
    ~Unsubscribe() {
      std::lock_guard<std::mutex> lock(tracker->shuffles_mutex_);
      std::erase(tracker->shuffles_, state);
    }
  } unsubscribe{this, state};

  // What this reducer knows about each map's location; whether its output
  // is fetched is the merger's to say (`covers`). `epoch` counts
  // invalidations; a batch launched before an invalidation is recognized by
  // its stale epoch on arrival and discarded, never merged.
  struct MapSource {
    bool known = false;  ///< a location has been announced
    std::string host;
    uint64_t epoch = 0;
  };
  std::vector<MapSource> sources(total_maps);
  for (const MapOutputLocation& location : assignment.map_outputs) {
    sources[location.map_index].known = true;
    sources[location.map_index].host = location.host;
  }

  const bool decode =
      codecFromName(spec.conf.get(keys::kMapOutputCodec)) != CodecKind::kNone;

  // Events arrive in ascending id order, and a map succeeds again only
  // after its invalidation event, so the latest event per map is the truth.
  const auto drain_inbox = [&] {
    std::deque<MapCompletionEvent> events;
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      if (state->aborted || !running_.load()) {
        throw IoError("pipelined shuffle aborted (tracker stopping or job "
                      "purged), job=" + std::to_string(assignment.job));
      }
      events.swap(state->inbox);
    }
    for (const MapCompletionEvent& event : events) {
      if (event.map_index >= total_maps) continue;
      MapSource& source = sources[event.map_index];
      if (!event.invalidated) {
        source.known = true;
        source.host = event.host;
        continue;
      }
      ++source.epoch;
      source.known = false;
      if (merger.covers(event.map_index)) {
        // Discard the stale run. In in-node mode the whole host run goes
        // with it, and its surviving members are fetched again.
        merger.invalidate(event.map_index);
        pipelined_refetches_->add();
        shuffle_counters.increment(counters::kShuffleGroup,
                                   counters::kShufflePipelinedRefetches, 1);
      }
    }
  };

  // The maps announced but not yet fetched. In-node combining fetches
  // only once every map's location is known, so each host's run covers all
  // of its maps: one fetch unit per host. Classic shuffle fetches each map
  // as soon as it is announced.
  const auto ready_maps = [&]() -> std::vector<MapOutputLocation> {
    std::vector<MapOutputLocation> ready;
    for (uint32_t m = 0; m < total_maps; ++m) {
      if (merger.covers(m)) continue;
      const MapSource& source = sources[m];
      if (!source.known) {
        if (innode) return {};
        continue;
      }
      ready.push_back({m, source.host});
    }
    return ready;
  };

  while (true) {
    drain_inbox();
    const std::vector<MapOutputLocation> ready = ready_maps();
    if (!ready.empty()) {
      std::vector<uint64_t> launch_epoch(total_maps, 0);
      for (const MapOutputLocation& location : ready) {
        launch_epoch[location.map_index] = sources[location.map_index].epoch;
      }
      TaskAssignment batch = assignment;
      batch.map_outputs = ready;
      const Stopwatch fetch_watch;
      const std::vector<FetchOutcome> outcomes = fetchShuffleRuns(
          *network_, host_, batch, conf_, shuffle_counters, innode);
      shuffle_fetch_micros_->record(fetch_watch.elapsedMicros());
      drain_inbox();
      // Settle the batch. A unit with a map invalidated while it was in
      // flight is dropped, fetched or not: the feed re-announces the map,
      // and a stale location fails just like a lost output, so failing the
      // attempt would make the JobTracker re-execute a healthy map. Any
      // other failure fails the attempt, blaming the lowest blamed map;
      // every other unit is taken in.
      std::vector<const FetchOutcome*> accepted;
      const FetchOutcome* failed = nullptr;
      for (const FetchOutcome& unit : outcomes) {
        const bool stale = std::any_of(
            unit.maps.begin(), unit.maps.end(), [&](uint32_t m) {
              return sources[m].epoch != launch_epoch[m];
            });
        if (stale) {
          if (!unit.error) {
            pipelined_refetches_->add();
            shuffle_counters.increment(
                counters::kShuffleGroup, counters::kShufflePipelinedRefetches,
                1);
          }
        } else if (unit.error) {
          if (failed == nullptr || unit.blamedMap() < failed->blamedMap()) {
            failed = &unit;
          }
        } else {
          accepted.push_back(&unit);
        }
      }
      if (failed != nullptr) {
        throw IoError(formatFetchFailure({failed->host, failed->blamedMap()},
                                         *failed->error));
      }
      for (const FetchOutcome* unit : accepted) {
        const auto bytes = static_cast<int64_t>(unit->run.size());
        merger.addSegments(unit->maps,
                           intakeMapOutput(unit->run, decode, shuffle_counters,
                                           metrics_, tracer_, component));
        pipelined_runs_->add();
        pipelined_bytes_->add(bytes);
        shuffle_counters.increment(counters::kShuffleGroup,
                                   counters::kShufflePipelinedRuns, 1);
        shuffle_counters.increment(counters::kShuffleGroup,
                                   counters::kShufflePipelinedBytes, bytes);
      }
      if (merger.pendingRuns() >= merger.foldFanin()) {
        TraceSpan fold_span(tracer_, component, "MERGE_FOLD " + task_tag);
        merger.foldOnce();
        fold_span.arg("segments", std::to_string(merger.segmentCount()));
        fold_span.arg("pending", std::to_string(merger.pendingRuns()));
      }
    }
    uint32_t fetched = 0;
    for (uint32_t m = 0; m < total_maps; ++m) {
      if (merger.covers(m)) ++fetched;
    }
    if (fetched == total_maps) return;
    if (!ready_maps().empty()) continue;
    // Membership incomplete and nothing fetchable: the map phase is ahead
    // of us. One REDUCE_SHUFFLE_WAIT span per wait episode (not per poll)
    // keeps the trace ring small while still attributing the overlap.
    TraceSpan wait_span(tracer_, component,
                        "REDUCE_SHUFFLE_WAIT " + task_tag);
    wait_span.arg("job", std::to_string(assignment.job));
    wait_span.arg("fetched", std::to_string(fetched));
    wait_span.arg("total", std::to_string(total_maps));
    std::unique_lock<std::mutex> lock(state->mutex);
    // Parked: with no map running either, the tracker may now wait on the
    // JobTracker, so ring for a beat that it will hold until news arrives.
    state->parked = true;
    if (busy_maps_.load() == 0) beat_waker_.ring();
    // The timeout is a backstop for wake-ups with no notifier (e.g. a
    // crash-tracker OOM elsewhere flips running_ without an abort).
    while (state->inbox.empty() && !state->aborted && running_.load()) {
      state->cv.wait_for(lock, std::chrono::milliseconds(20));
    }
    state->parked = false;
  }
}

void TaskTracker::installRpc() {
  // Serving lives in the MapOutputStore: one named map ships as stored,
  // several (in-node combining) merge through the job's combiner.
  network_->bind(host_, kTaskTrackerPort,
                 [this](const net::RpcRequest& req) -> BufferView {
    if (req.method == "getMapOutput") {
      auto [job, partition, maps] =
          unpack<uint32_t, uint32_t, std::vector<uint32_t>>(req.body);
      return outputs_.serve(job, partition, std::move(maps));
    }
    throw InvalidArgumentError("tasktracker: unknown RPC method " +
                               req.method);
  });
}

}  // namespace mh::mr
