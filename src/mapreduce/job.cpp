#include "mh/mr/job.h"

#include <algorithm>
#include <sstream>

#include "mh/common/error.h"
#include "mh/common/trace_analysis.h"

namespace mh::mr {

void JobSpec::validateAndDefault() {
  if (!mapper) throw InvalidArgumentError("job needs a mapper");
  if (!reducer) throw InvalidArgumentError("job needs a reducer");
  if (input_paths.empty()) throw InvalidArgumentError("job needs input paths");
  if (output_dir.empty()) throw InvalidArgumentError("job needs an output dir");
  if (num_reducers == 0) throw InvalidArgumentError("job needs >= 1 reducer");
  if (num_reducers > kMaxReducers) {
    throw InvalidArgumentError("job needs <= " + std::to_string(kMaxReducers) +
                               " reducers");
  }
  conf.validate(keys::Scope::kJob);
  if (!partitioner) {
    partitioner = [] { return std::make_unique<HashPartitioner>(); };
  }
  if (!input_format) {
    input_format = [] { return std::make_unique<TextInputFormat>(); };
  }
  if (!output_format) {
    output_format = [] { return std::make_unique<TextOutputFormat>(); };
  }
}

const char* jobStateName(JobState state) {
  switch (state) {
    case JobState::kRunning: return "RUNNING";
    case JobState::kSucceeded: return "SUCCEEDED";
    case JobState::kFailed: return "FAILED";
  }
  return "UNKNOWN";
}

std::string JobHistory::renderTimeline(size_t width) const {
  if (attempts.empty()) return "(no task attempts recorded)\n";
  width = std::max<size_t>(width, 10);
  const int64_t span = std::max<int64_t>(finish_ms, 1);
  const auto column = [&](int64_t t) {
    t = std::clamp<int64_t>(t, 0, span);
    return static_cast<size_t>(static_cast<double>(t) /
                               static_cast<double>(span) *
                               static_cast<double>(width - 1));
  };

  // Stable display order: maps before reduces, then by task, then attempt.
  std::vector<const TaskAttemptRecord*> rows;
  rows.reserve(attempts.size());
  for (const auto& a : attempts) rows.push_back(&a);
  std::stable_sort(rows.begin(), rows.end(),
                   [](const TaskAttemptRecord* a, const TaskAttemptRecord* b) {
                     if (a->is_map != b->is_map) return a->is_map;
                     if (a->task_index != b->task_index) {
                       return a->task_index < b->task_index;
                     }
                     return a->attempt < b->attempt;
                   });

  std::ostringstream out;
  out << "task timeline (0.." << span << " ms, '=' map, '#' reduce, 'x' "
      << "failed):\n";
  for (const TaskAttemptRecord* a : rows) {
    std::ostringstream label;
    label << (a->is_map ? "m" : "r") << a->task_index << "." << a->attempt
          << (a->speculative ? "*" : "") << " @" << a->tracker;
    std::string tag = label.str();
    if (tag.size() < 24) tag.resize(24, ' ');
    const size_t lo = column(a->start_ms);
    const size_t hi =
        a->finished ? std::max(column(a->finish_ms), lo) : width - 1;
    std::string bar(width, ' ');
    const char fill = !a->finished || a->succeeded ? (a->is_map ? '=' : '#')
                                                   : 'x';
    for (size_t i = lo; i <= hi && i < width; ++i) bar[i] = fill;
    out << "  " << tag << " |" << bar << "| ";
    if (a->finished) {
      out << (a->finish_ms - a->start_ms) << "ms"
          << (a->succeeded ? "" : " FAILED");
      if (!a->error.empty()) out << " (" << a->error << ")";
    } else {
      out << "(unfinished)";
    }
    out << "\n";
  }
  return out.str();
}

std::string JobResult::historyReport() const {
  std::ostringstream out;
  out << "job " << jobStateName(state) << " in " << elapsed_millis << " ms"
      << " (map " << map_millis << " ms, reduce " << reduce_millis
      << " ms summed)\n";
  if (!error.empty()) out << "error: " << error << "\n";
  out << history.renderTimeline();
  return out.str();
}

std::string JobResult::criticalPathReport(const TraceCollector& tracer) const {
  if (trace_id == 0) {
    return "critical path: unavailable (tracing was off at submit)\n";
  }
  return computeCriticalPath(tracer.snapshot(), trace_id).renderAscii();
}

}  // namespace mh::mr
