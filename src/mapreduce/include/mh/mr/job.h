#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mh/common/config.h"
#include "mh/common/trace.h"
#include "mh/mr/api.h"
#include "mh/mr/counters.h"
#include "mh/mr/input_format.h"
#include "mh/mr/output_format.h"

/// \file job.h
/// Job description and results. A JobSpec is the moral equivalent of a
/// configured Hadoop Job + its jar: input/output paths, mapper/reducer/
/// combiner/partitioner factories, reducer count, and free-form conf.
/// The same JobSpec runs under the serial LocalJobRunner or a distributed
/// mini-cluster unchanged.

namespace mh::mr {

/// Most reducers a job may have. Each map returns one output per reducer
/// (MapOutputBuffer::finishSegments) and keeps a partition slot per
/// reducer, so a map's fixed cost grows with the count even when it feeds
/// only a few partitions. 2^28 is far above any real job and keeps those
/// tables addressable; a larger count (a negative int cast to uint32_t,
/// say) is refused at submit rather than by the first map's allocation.
inline constexpr uint32_t kMaxReducers = 1u << 28;

struct JobSpec {
  std::string name = "job";
  std::vector<std::string> input_paths;
  std::string output_dir;
  uint32_t num_reducers = 1;

  MapperFactory mapper;
  ReducerFactory reducer;
  /// Optional. Runs over each map task's sorted per-partition output —
  /// the §III-A lesson: more map-side work, less shuffle traffic.
  ReducerFactory combiner;
  /// Defaults to HashPartitioner.
  PartitionerFactory partitioner;
  /// Defaults to TextInputFormat / TextOutputFormat.
  InputFormatFactory input_format;
  OutputFormatFactory output_format;

  Config conf;

  /// Fills defaulted factories; throws InvalidArgumentError on an unusable
  /// spec (no mapper/reducer, no inputs, no output, zero reducers or more
  /// than kMaxReducers) or a conf the key table rejects (Config::validate).
  void validateAndDefault();
};

enum class JobState : uint8_t { kRunning = 0, kSucceeded = 1, kFailed = 2 };

const char* jobStateName(JobState state);

/// One task attempt as the JobTracker saw it — the unit of the Hadoop
/// JobHistory file. Times are milliseconds since job submission.
struct TaskAttemptRecord {
  bool is_map = true;
  uint32_t task_index = 0;
  uint32_t attempt = 0;
  std::string tracker;    ///< TaskTracker host the attempt ran on.
  int64_t start_ms = 0;
  int64_t finish_ms = 0;  ///< Meaningful only when `finished`.
  bool finished = false;  ///< false: still running at job end / tracker lost.
  bool succeeded = false;
  bool speculative = false;
  std::string error;      ///< Failure reason, empty on success.
};

/// Per-job event record, the mini JobHistory: every attempt the JobTracker
/// scheduled, with timing, placement, and outcome.
struct JobHistory {
  int64_t submit_ms = 0;  ///< Always 0 (times are relative to submission).
  int64_t finish_ms = 0;
  std::vector<TaskAttemptRecord> attempts;

  /// ASCII per-task Gantt chart over [0, finish_ms]: one row per attempt,
  /// `=` map bars, `#` reduce bars, `x` failures.
  std::string renderTimeline(size_t width = 60) const;
};

/// Final outcome of a job.
struct JobResult {
  JobState state = JobState::kFailed;
  Counters counters;
  int64_t map_millis = 0;     ///< summed across map tasks
  int64_t reduce_millis = 0;  ///< summed across reduce tasks
  int64_t elapsed_millis = 0; ///< wall clock submit -> finish
  std::string error;
  /// The job's causal trace id (0 when tracing was off at submit). Pass
  /// the cluster tracer's `snapshot()` to `computeCriticalPath()` /
  /// `criticalPathReport()` with this id for the "where the time went"
  /// view.
  uint64_t trace_id = 0;
  /// Attempt-level event record (empty under the LocalJobRunner, which has
  /// no attempts — only the distributed JobTracker schedules them).
  JobHistory history;

  bool succeeded() const { return state == JobState::kSucceeded; }

  /// Human-readable phase timeline next to the counter report: state,
  /// elapsed time, and the per-attempt Gantt from `history`.
  std::string historyReport() const;

  /// Critical-path "where the time went" report reconstructed from the
  /// cluster trace journal (see trace_analysis.h) — the causal sibling of
  /// historyReport(). Returns a one-line notice when tracing was off.
  std::string criticalPathReport(const TraceCollector& tracer) const;
};

/// Progress snapshot while a job runs (the JobTracker "web UI" data).
struct JobStatus {
  JobId id = 0;
  std::string name;
  JobState state = JobState::kRunning;
  uint32_t maps_total = 0;
  uint32_t maps_completed = 0;
  uint32_t reduces_total = 0;
  uint32_t reduces_completed = 0;
  std::string error;
};

}  // namespace mh::mr
