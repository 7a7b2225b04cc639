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
#include "mh/hdfs/dfs_client.h"
#include "mh/mr/merge.h"
#include "mh/mr/task_runner.h"

namespace mh::mr {

namespace {
constexpr const char* kLog = "tasktracker";
}  // namespace

namespace {

/// One shuffle transfer: a single map's run (classic) or one host's
/// node-combined run covering every map that ran there (in-node combining).
struct FetchUnit {
  std::string host;
  std::vector<uint32_t> maps;
  uint32_t lowest = 0;  ///< fallback attribution for a failed node fetch
};

/// The map index a failed unit's fetch-failure should re-execute: the
/// specific map the server named ("missing map=<i>", and it must be one of
/// ours — a grouped fetch can fail because ONE member is absent while the
/// rest are fine), else the group's lowest index.
uint32_t attributedMap(const FetchUnit& unit, const std::string& error) {
  const std::string_view tag = "missing map=";
  const size_t pos = error.find(tag);
  if (pos != std::string::npos) {
    uint64_t value = 0;
    bool any = false;
    for (size_t i = pos + tag.size();
         i < error.size() && error[i] >= '0' && error[i] <= '9'; ++i) {
      value = value * 10 + static_cast<uint64_t>(error[i] - '0');
      any = true;
    }
    const auto index = static_cast<uint32_t>(value);
    if (any &&
        std::find(unit.maps.begin(), unit.maps.end(), index) !=
            unit.maps.end()) {
      return index;
    }
  }
  return unit.lowest;
}

/// The map index a thrown fetch-failure blames ("fetch-failure host=<h>
/// map=<i>: ..."); UINT32_MAX when the message names none.
uint32_t parseFetchFailureMap(std::string_view error) {
  const std::string_view tag = "map=";
  const size_t pos = error.find(tag);
  if (pos == std::string_view::npos) return UINT32_MAX;
  uint64_t value = 0;
  bool any = false;
  for (size_t i = pos + tag.size();
       i < error.size() && error[i] >= '0' && error[i] <= '9'; ++i) {
    value = value * 10 + static_cast<uint64_t>(error[i] - '0');
    any = true;
  }
  return any ? static_cast<uint32_t>(value) : UINT32_MAX;
}

/// Groups locations into fetch units: one per map, or (in-node combining)
/// one per host in first-appearance order. The grouping is a pure function
/// of the location list, so the pipelined shuffle can rebuild the exact
/// units fetchShuffleRuns derived from a batch it handed over.
std::vector<FetchUnit> buildFetchUnits(
    const std::vector<MapOutputLocation>& locations, bool innode) {
  std::vector<FetchUnit> units;
  for (const MapOutputLocation& location : locations) {
    if (innode && !units.empty()) {
      const auto it = std::find_if(
          units.begin(), units.end(),
          [&](const FetchUnit& unit) { return unit.host == location.host; });
      if (it != units.end()) {
        it->maps.push_back(location.map_index);
        it->lowest = std::min(it->lowest, location.map_index);
        continue;
      }
    }
    units.push_back({location.host, {location.map_index}, location.map_index});
  }
  return units;
}

/// Root seed for a reduce attempt's fetch-side randomness (host visit order,
/// backoff jitter). Derived by hashing stable task identity — never from
/// global state or the clock — so a chaos run with a given seed replays the
/// same delays and orders no matter how fetcher threads interleave.
uint64_t fetchSeed(const TaskAssignment& assignment, uint64_t salt) {
  uint64_t x = (static_cast<uint64_t>(assignment.job) << 40) ^
               (static_cast<uint64_t>(assignment.task_index) << 20) ^
               static_cast<uint64_t>(assignment.attempt) ^ salt;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

std::vector<BufferView> fetchShuffleRuns(net::Network& network,
                                         const std::string& host,
                                         const TaskAssignment& assignment,
                                         const Config& conf,
                                         Counters& shuffle_counters,
                                         const JobSpec* spec) {
  const bool innode = spec != nullptr && spec->combiner != nullptr &&
                      spec->conf.getBool("mapred.innode.combine", false);
  // In in-node mode maps are grouped by host in first-appearance order; the
  // serving tracker merges the whole group through the combiner into one run.
  const std::vector<FetchUnit> units =
      buildFetchUnits(assignment.map_outputs, innode);
  const size_t n = units.size();
  std::vector<BufferView> runs(n);
  if (n == 0) return runs;

  TraceSpan span(&network.tracer(), "tasktracker." + host,
                 "SHUFFLE_FETCH r" + std::to_string(assignment.task_index) +
                     " a" + std::to_string(assignment.attempt));
  span.arg("job", std::to_string(assignment.job));
  span.arg("maps", std::to_string(assignment.map_outputs.size()));
  if (innode) span.arg("units", std::to_string(n));
  Stopwatch watch;
  // Transient faults (a rebooting tracker, a dropped reply) deserve a few
  // bounded-backoff retries before the expensive path — declaring a
  // fetch-failure and making the JobTracker re-execute the source map.
  const auto attempts = static_cast<size_t>(
      std::max<int64_t>(1, conf.getInt("mapred.shuffle.fetch.retries", 3)));
  const int64_t backoff_ms = conf.getInt("mapred.shuffle.fetch.backoff.ms", 5);
  const int64_t backoff_max_ms =
      conf.getInt("mapred.shuffle.fetch.backoff.max.ms", 200);
  std::atomic<int64_t> retries{0};
  // Each slot holds an error message when that fetch failed; distinct slots
  // are written by distinct fetches, so no lock is needed.
  std::vector<std::unique_ptr<std::string>> errors(n);
  std::atomic<size_t> next{0};
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
  // The SHUFFLE_FETCH span is ambient on this thread; carry its context
  // into the parallel fetcher threads so getMapOutput calls (and any
  // faults injected into them) stay inside the reduce's trace subtree.
  const TraceContext fetch_ctx = currentTraceContext();
  const auto fetch_loop = [&] {
    const TraceContextScope trace_scope(fetch_ctx);
    for (size_t slot = next.fetch_add(1); slot < n;
         slot = next.fetch_add(1)) {
      const size_t i = order[slot];
      const FetchUnit& unit = units[i];
      for (size_t attempt = 0; attempt < attempts; ++attempt) {
        try {
          // In-node mode always speaks getNodeOutput — even for a
          // single-map host — so the protocol (and any fault rule matched
          // on it) is uniform across units.
          runs[i] =
              innode
                  ? network.call(host, unit.host, kTaskTrackerPort,
                                 "getNodeOutput",
                                 pack(assignment.job, assignment.task_index,
                                      unit.maps),
                                 "shuffle")
                  : network.call(host, unit.host, kTaskTrackerPort,
                                 "getMapOutput",
                                 pack(assignment.job, unit.maps[0],
                                      assignment.task_index),
                                 "shuffle");
          errors[i].reset();
          break;
        } catch (const std::exception& e) {
          errors[i] = std::make_unique<std::string>(e.what());
          if (attempt + 1 == attempts) break;
          retries.fetch_add(1, std::memory_order_relaxed);
          // Full jitter: sleep uniform in [0, capped exponential backoff],
          // decorrelating retry storms when many reducers lose the same
          // host at once. Seeded per (task identity, unit, retry) so a
          // chaos seed replays the same delays.
          const int64_t cap = std::min(
              backoff_max_ms, backoff_ms << std::min<size_t>(attempt, 20));
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
    }
  };

  const auto copies = static_cast<size_t>(
      std::max<int64_t>(1, conf.getInt("mapred.reduce.parallel.copies", 5)));
  if (const size_t workers = std::min(n, copies); workers <= 1) {
    fetch_loop();
  } else {
    std::vector<std::jthread> fetchers;
    fetchers.reserve(workers);
    for (size_t t = 0; t < workers; ++t) fetchers.emplace_back(fetch_loop);
  }

  const FetchUnit* failed_unit = nullptr;
  const std::string* failed_error = nullptr;
  uint32_t failed_map = 0;
  for (size_t i = 0; i < n; ++i) {
    if (errors[i] == nullptr) continue;
    const uint32_t map_index = attributedMap(units[i], *errors[i]);
    if (failed_unit == nullptr || map_index < failed_map) {
      failed_unit = &units[i];
      failed_error = errors[i].get();
      failed_map = map_index;
    }
  }
  if (failed_unit != nullptr) {
    // Formatted so the JobTracker re-executes the source map; the
    // attributed index leads the message because the JobTracker parses the
    // FIRST "map=" it finds (the cause text may contain its own).
    throw IoError("fetch-failure host=" + failed_unit->host +
                  " map=" + std::to_string(failed_map) + ": " + *failed_error);
  }

  int64_t total_bytes = 0;
  for (const BufferView& run : runs) {
    total_bytes += static_cast<int64_t>(run.size());
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
  network.metrics()
      .child("tasktracker." + host)
      .histogram("shuffle.fetch.micros")
      .record(watch.elapsedMicros());
  span.arg("bytes", std::to_string(total_bytes));
  return runs;
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
      map_slots_(static_cast<uint32_t>(
          conf_.getInt("mapred.tasktracker.map.tasks.maximum", 2))),
      reduce_slots_(static_cast<uint32_t>(
          conf_.getInt("mapred.tasktracker.reduce.tasks.maximum", 1))) {
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
  shuffle_raw_bytes_ = &metrics_->counter("shuffle.raw.bytes");
  shuffle_compressed_bytes_ = &metrics_->counter("shuffle.compressed.bytes");
  pipelined_runs_ = &metrics_->counter("shuffle.pipelined.runs");
  pipelined_bytes_ = &metrics_->counter("shuffle.pipelined.bytes");
  pipelined_refetches_ = &metrics_->counter("shuffle.pipelined.refetches");
  map_micros_ = &metrics_->histogram("task.map.micros");
  reduce_micros_ = &metrics_->histogram("task.reduce.micros");
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
  // The store's combined runs and encoded-serve caches are bounded by the
  // tracker heap budget, but through the non-throwing probe: a declined
  // cache degrades to serving uncached, never to a task failure.
  outputs_.attach(registry_.get(), metrics_, tracer_, "tasktracker." + host_,
                  [this](int64_t delta) { return tryChargeHeap(delta); });
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
  map_pool_ = std::make_unique<ThreadPool>(map_slots_);
  reduce_pool_ = std::make_unique<ThreadPool>(reduce_slots_);
  heap_used_.store(0);
  running_.store(true);

  network_->call(host_, jobtracker_host_, kJobTrackerPort, "registerTracker",
                 pack(host_, map_slots_, reduce_slots_,
                      conf_.get("dfs.datanode.rack", "/default-rack")));

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
  const auto interval = std::chrono::milliseconds(
      conf_.getInt("mapred.tasktracker.heartbeat.ms", 50));
  while (!token.stop_requested()) {
    interruptibleSleep(token, interval);
    if (token.stop_requested() || !running_.load()) return;
    try {
      heartbeatOnce();
    } catch (const NetworkError&) {
      // JobTracker unreachable; retry next beat.
    } catch (const std::exception& e) {
      logWarn(kLog) << host_ << " heartbeat error: " << e.what();
    }
  }
}

void TaskTracker::heartbeatOnce() {
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
  // so no subscriber misses an event another already consumed.
  std::vector<ShuffleEventCursor> cursors;
  {
    std::lock_guard<std::mutex> lock(shuffles_mutex_);
    for (const auto& shuffle : shuffles_) {
      std::lock_guard<std::mutex> state_lock(shuffle->mutex);
      const auto it = std::find_if(
          cursors.begin(), cursors.end(),
          [&](const ShuffleEventCursor& c) { return c.job == shuffle->job; });
      if (it == cursors.end()) {
        cursors.push_back({shuffle->job, shuffle->cursor});
      } else {
        it->after = std::min(it->after, shuffle->cursor);
      }
    }
  }

  TrackerHeartbeatReply reply;
  try {
    const BufferView raw = network_->call(
        host_, jobtracker_host_, kJobTrackerPort, "heartbeat",
        pack(host_, free_maps, free_reduces, reports, cursors));
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
                        conf_.get("dfs.datanode.rack", "/default-rack")));
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
  if (delta <= 0) return;
  const int64_t budget =
      conf_.getInt("mapred.tasktracker.memory.bytes",
                   std::numeric_limits<int64_t>::max());
  if (used <= budget) return;
  const std::string policy =
      conf_.get("mapred.tasktracker.oom.policy", "fail-task");
  if (policy == "crash-tracker") {
    // The heap-leak cascade: the whole daemon dies, taking its map outputs
    // (and, on the real cluster, the co-located DataNode) with it.
    logError(kLog) << host_ << " OOM (" << used << " > " << budget
                   << " bytes): crashing tracker";
    crashed_.store(true);
    network_->setHostUp(host_, false);
    running_.store(false);
    heartbeat_thread_.request_stop();  // loop exits on its next wake-up
    outputs_.clear();
  }
  throw OutOfMemoryError("task heap " + std::to_string(used) + " > budget " +
                         std::to_string(budget));
}

bool TaskTracker::tryChargeHeap(int64_t delta) {
  if (delta <= 0) {
    heap_used_.fetch_add(delta);
    return true;
  }
  const int64_t budget =
      conf_.getInt("mapred.tasktracker.memory.bytes",
                   std::numeric_limits<int64_t>::max());
  const int64_t used = heap_used_.fetch_add(delta) + delta;
  if (used > budget) {
    heap_used_.fetch_sub(delta);
    return false;
  }
  int64_t peak = heap_peak_.load();
  while (used > peak && !heap_peak_.compare_exchange_weak(peak, used)) {
  }
  return true;
}

void TaskTracker::runAssignment(const TaskAssignment& assignment) {
  if (assignment.kind == AssignmentKind::kMap) {
    ++busy_maps_;
    map_pool_->submit([this, assignment] {
      runMapAssignment(assignment);
      --busy_maps_;
    });
  } else {
    ++busy_reduces_;
    reduce_pool_->submit([this, assignment] {
      runReduceAssignment(assignment);
      --busy_reduces_;
    });
  }
}

void TaskTracker::runMapAssignment(const TaskAssignment& assignment) {
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
    // The put may trigger an in-node combine of everything this node holds
    // for the job; its INNODE_COMBINE_* counters land in this attempt's
    // counters (snapshot below), so attempt replacement keeps them
    // exactly-once.
    outputs_.put(assignment.job, assignment.task_index,
                 std::move(result.partitions), &result.counters);
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
  queueReport(std::move(report));
}

void TaskTracker::runReduceAssignment(const TaskAssignment& assignment) {
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

    // The fetched runs are the reduce task's working set; charge them
    // against the tracker memory budget while the streaming merge runs.
    // Unlike user allocateHeap() leaks, these buffers really are freed when
    // the task ends, so the charge is released even on failure.
    struct ShuffleHeapGuard {
      TaskTracker* tracker;
      int64_t amount;
      ~ShuffleHeapGuard() { tracker->heap_used_.fetch_sub(amount); }
    } guard{this, 0};

    // Shuffle: pull this partition's run from every map's tracker, several
    // fetches in flight at once, merging incrementally as runs arrive. When
    // slowstart fired before every map finished, the missing locations come
    // in as completion events; a complete location list (slowstart 1.0) is
    // simply fetched in the first round.
    const std::vector<BufferView> runs = runPipelinedShuffle(
        assignment, *spec, shuffle_counters, guard.amount);

    hdfs::DfsClient dfs(conf_, network_, host_, namenode_host_);
    HdfsFs fs(std::move(dfs));
    auto result = runReduceTask(*spec, fs, assignment.task_index,
                                assignment.attempt, runs,
                                [this](int64_t d) { chargeHeap(d); }, tracer_,
                                "tasktracker." + host_, metrics_);
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
  queueReport(std::move(report));
}

std::vector<BufferView> TaskTracker::runPipelinedShuffle(
    const TaskAssignment& assignment, const JobSpec& spec,
    Counters& shuffle_counters, int64_t& charged_bytes) {
  const bool innode = spec.combiner != nullptr &&
                      spec.conf.getBool("mapred.innode.combine", false);
  const uint32_t total_maps = assignment.total_maps;
  const auto fanin = static_cast<size_t>(std::max<int64_t>(
      2, spec.conf.getInt(
             "mapred.reduce.merge.fold.fanin",
             conf_.getInt("mapred.reduce.merge.fold.fanin", 8))));
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

  // What this reducer knows about each map output. `epoch` counts
  // invalidations; a batch launched before an invalidation is recognized by
  // its stale epoch on arrival and discarded, never merged.
  struct MapSource {
    bool known = false;    ///< a location has been announced
    bool fetched = false;  ///< accepted into the merger
    std::string host;
    uint64_t epoch = 0;
    uint64_t generation = 0;  ///< last announced output generation
  };
  std::vector<MapSource> sources(total_maps);
  for (const MapOutputLocation& location : assignment.map_outputs) {
    sources[location.map_index].known = true;
    sources[location.map_index].host = location.host;
  }

  IncrementalMerger merger(IncrementalMerger::Options{
      .fold_fanin = fanin,
      // In-node covers are host-grouped, not contiguous map ranges, so they
      // fold freely; classic runs fold adjacent-only to stay byte-identical
      // with the one-shot merge (see merge.h).
      .adjacent_only = !innode,
      .allow_decode =
          codecFromName(spec.conf.get("mapred.shuffle.compression",
                                      "none")) != CodecKind::kNone,
      .metrics = metrics_,
      .trace = tracer_,
      .component = component});

  const auto charge = [&](int64_t delta) {
    // Count before chargeHeap: an OOM throw has already grown heap_used_,
    // and the caller's guard must release exactly what was charged.
    charged_bytes += delta;
    chargeHeap(delta);
  };

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
      if (event.invalidated) {
        ++source.epoch;
        source.known = false;
        source.fetched = false;
        if (merger.covers(event.map_index)) {
          // Discard the stale run. In in-node mode the whole host run goes
          // with it, and its surviving members must be fetched again.
          for (const uint32_t m : merger.invalidate(event.map_index)) {
            sources[m].fetched = false;
          }
          pipelined_refetches_->add();
          shuffle_counters.increment(counters::kShuffleGroup,
                                     counters::kShufflePipelinedRefetches, 1);
        }
      } else if (event.map_generation >= source.generation) {
        source.known = true;
        source.host = event.host;
        source.generation = event.map_generation;
      }
    }
  };

  while (true) {
    drain_inbox();
    std::vector<MapOutputLocation> ready;
    for (uint32_t m = 0; m < total_maps; ++m) {
      if (sources[m].known && !sources[m].fetched) {
        ready.push_back({m, sources[m].host});
      }
    }
    if (!ready.empty()) {
      std::vector<uint64_t> launch_epoch(total_maps, 0);
      for (const MapOutputLocation& location : ready) {
        launch_epoch[location.map_index] = sources[location.map_index].epoch;
      }
      TaskAssignment batch = assignment;
      batch.map_outputs = ready;
      std::vector<BufferView> runs;
      try {
        runs = fetchShuffleRuns(*network_, host_, batch, conf_,
                                shuffle_counters, &spec);
      } catch (const IoError& e) {
        // A stale location fails exactly like a genuine fetch-failure. When
        // an invalidation for the blamed map raced in during the batch, the
        // feed will re-announce it — retry quietly instead of failing the
        // attempt and making the JobTracker re-execute a healthy map.
        drain_inbox();
        const uint32_t failed = parseFetchFailureMap(e.what());
        if (failed >= total_maps ||
            sources[failed].epoch == launch_epoch[failed]) {
          throw;
        }
        continue;
      }
      drain_inbox();
      const std::vector<FetchUnit> units = buildFetchUnits(ready, innode);
      for (size_t i = 0; i < units.size(); ++i) {
        const FetchUnit& unit = units[i];
        const bool stale = std::any_of(
            unit.maps.begin(), unit.maps.end(), [&](uint32_t m) {
              return sources[m].epoch != launch_epoch[m];
            });
        if (stale) {
          // Fetched, then invalidated before it could merge: drop the unit
          // (surviving members re-fetch next round alongside the feed's
          // re-announced generation).
          pipelined_refetches_->add();
          shuffle_counters.increment(counters::kShuffleGroup,
                                     counters::kShufflePipelinedRefetches, 1);
          continue;
        }
        const auto bytes = static_cast<int64_t>(runs[i].size());
        merger.addRun(unit.maps, runs[i]);
        charge(bytes);
        pipelined_runs_->add();
        pipelined_bytes_->add(bytes);
        shuffle_counters.increment(counters::kShuffleGroup,
                                   counters::kShufflePipelinedRuns, 1);
        shuffle_counters.increment(counters::kShuffleGroup,
                                   counters::kShufflePipelinedBytes, bytes);
        for (const uint32_t m : unit.maps) sources[m].fetched = true;
      }
      if (merger.pendingRuns() >= fanin) {
        const int64_t held_before = merger.heldBytes();
        TraceSpan fold_span(tracer_, component, "MERGE_FOLD " + task_tag);
        merger.foldOnce();
        fold_span.arg("segments", std::to_string(merger.segmentCount()));
        fold_span.arg("pending", std::to_string(merger.pendingRuns()));
        charge(merger.heldBytes() - held_before);
      }
    }
    uint32_t fetched = 0;
    bool have_ready = false;
    for (const MapSource& source : sources) {
      fetched += source.fetched ? 1 : 0;
      have_ready = have_ready || (source.known && !source.fetched);
    }
    if (fetched == total_maps) break;
    if (have_ready) continue;
    // Membership incomplete and nothing fetchable: the map phase is ahead
    // of us. One REDUCE_SHUFFLE_WAIT span per wait episode (not per poll)
    // keeps the trace ring small while still attributing the overlap.
    TraceSpan wait_span(tracer_, component,
                        "REDUCE_SHUFFLE_WAIT " + task_tag);
    wait_span.arg("job", std::to_string(assignment.job));
    wait_span.arg("fetched", std::to_string(fetched));
    wait_span.arg("total", std::to_string(total_maps));
    std::unique_lock<std::mutex> lock(state->mutex);
    // The timeout is a backstop for wake-ups with no notifier (e.g. a
    // crash-tracker OOM elsewhere flips running_ without an abort).
    while (state->inbox.empty() && !state->aborted && running_.load()) {
      state->cv.wait_for(lock, std::chrono::milliseconds(20));
    }
  }
  return merger.assemble();
}

void TaskTracker::installRpc() {
  // Shuffle seam (`mapred.shuffle.compression`, a job-level key). The
  // common fast path — map-output codec on, shuffle codec on — ships the
  // STORED frames with no re-encode at all; the reducer decodes at merge
  // input. The off-diagonal cases encode (once, cached) or decode at serve
  // time so each seam stays independently switchable. Serving itself lives
  // in the MapOutputStore; the handler resolves the seam and mirrors the
  // byte accounting into the registry.
  const auto shuffle_for = [this](JobId job) {
    try {
      return codecFromName(registry_->get(job)->conf.get(
          "mapred.shuffle.compression", "none"));
    } catch (const std::exception&) {
      // Unknown job spec (purged mid-serve): serve the bytes as stored.
      return CodecKind::kNone;
    }
  };
  network_->bind(host_, kTaskTrackerPort,
                 [this, shuffle_for](const net::RpcRequest& req)
                     -> BufferView {
    if (req.method == "getMapOutput") {
      const auto [job, map_index, partition] =
          unpack<uint32_t, uint32_t, uint32_t>(req.body);
      MapOutputStore::ServeStats stats;
      BufferView run = outputs_.serveMapOutput(job, map_index, partition,
                                               shuffle_for(job), &stats);
      shuffle_raw_bytes_->add(stats.raw_bytes);
      shuffle_compressed_bytes_->add(stats.compressed_bytes);
      return run;
    }
    if (req.method == "getNodeOutput") {
      // In-node combining: one reply covers every named map on this node,
      // merged through the job's combiner.
      const auto [job, partition, maps] =
          unpack<uint32_t, uint32_t, std::vector<uint32_t>>(req.body);
      MapOutputStore::ServeStats stats;
      BufferView run =
          outputs_.serveNodeOutput(job, partition, maps, shuffle_for(job),
                                   &stats);
      shuffle_raw_bytes_->add(stats.raw_bytes);
      shuffle_compressed_bytes_->add(stats.compressed_bytes);
      return run;
    }
    throw InvalidArgumentError("tasktracker: unknown RPC method " +
                               req.method);
  });
}

}  // namespace mh::mr
