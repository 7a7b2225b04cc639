#include "mh/common/trace_analysis.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace mh {

namespace {

bool startsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string formatMs(int64_t micros) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", static_cast<double>(micros) / 1000.0);
  return buf;
}

struct SpanNode {
  const TraceEvent* event = nullptr;
  std::vector<uint64_t> children;
  int64_t end() const { return event->ts_us + event->dur_us; }
};

struct TraceIndex {
  std::unordered_map<uint64_t, SpanNode> spans;  // span_id -> node

  explicit TraceIndex(const std::vector<TraceEvent>& events,
                      uint64_t trace_id) {
    for (const auto& e : events) {
      if (e.trace_id != trace_id || !e.span || e.span_id == 0) continue;
      spans[e.span_id].event = &e;
    }
    for (auto& [id, node] : spans) {
      const uint64_t parent = node.event->parent_span_id;
      if (parent != 0) {
        const auto it = spans.find(parent);
        if (it != spans.end()) it->second.children.push_back(id);
      }
    }
  }

  /// Classified spans reachable from `id` through unclassified spans
  /// (unclassified spans are transparent: their time folds upward).
  void collectClassified(uint64_t id, std::vector<uint64_t>& out) const {
    const auto it = spans.find(id);
    if (it == spans.end()) return;
    for (const uint64_t child : it->second.children) {
      const auto cit = spans.find(child);
      if (cit == spans.end()) continue;
      if (classifyTracePhase(cit->second.event->name).empty()) {
        collectClassified(child, out);
      } else {
        out.push_back(child);
      }
    }
  }
};

/// Total length of the union of [start, end) intervals.
int64_t unionLength(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_start = 0, cur_end = -1;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (e <= s) continue;
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

}  // namespace

std::string_view classifyTracePhase(std::string_view span_name) {
  if (startsWith(span_name, "MAP")) return "map";
  // Must precede the "REDUCE" prefix check: the pipelined reduce's idle
  // stretches waiting on map-completion events are shuffle time.
  if (startsWith(span_name, "REDUCE_SHUFFLE_WAIT")) return "shuffle";
  if (startsWith(span_name, "REDUCE")) return "reduce";
  // SHUFFLE_FETCH, and SHUFFLE_DECODE: the reducer's intake decoding what
  // it fetched.
  if (startsWith(span_name, "SHUFFLE_")) return "shuffle";
  if (startsWith(span_name, "SORT_SPILL")) return "spill";
  if (startsWith(span_name, "INNODE_COMBINE")) return "innode";
  if (startsWith(span_name, "MERGE")) return "merge";
  if (startsWith(span_name, "DFS_READ") || startsWith(span_name, "DFS_WRITE") ||
      startsWith(span_name, "READ_BLOCK") ||
      startsWith(span_name, "WRITE_BLOCK") ||
      startsWith(span_name, "REPLICATE")) {
    return "dfs";
  }
  return {};  // JOB, COMPRESS, ... fold into the enclosing phase.
}

TraceTreeStats analyzeTraceTree(const std::vector<TraceEvent>& events,
                                uint64_t trace_id) {
  TraceTreeStats stats;
  std::unordered_set<uint64_t> span_ids;
  for (const auto& e : events) {
    if (e.trace_id != trace_id) continue;
    if (e.span && e.span_id != 0) span_ids.insert(e.span_id);
  }
  std::set<std::string> kinds;
  for (const auto& e : events) {
    if (e.trace_id != trace_id) continue;
    if (e.span) {
      ++stats.span_count;
      if (e.parent_span_id == 0) stats.root_span_ids.push_back(e.span_id);
    } else {
      ++stats.instant_count;
    }
    if (e.parent_span_id != 0 && span_ids.count(e.parent_span_id) == 0) {
      ++stats.missing_parents;
    }
    kinds.insert(std::string(
        std::string_view(e.component).substr(0, e.component.find('.'))));
  }
  stats.daemon_kinds.assign(kinds.begin(), kinds.end());
  return stats;
}

std::string CriticalPathReport::dominantPhase() const {
  if (phases.empty() || phases.front().micros <= 0) return "";
  return phases.front().phase;
}

int64_t CriticalPathReport::phaseMicros(std::string_view phase) const {
  for (const auto& p : phases) {
    if (p.phase == phase) return p.micros;
  }
  return 0;
}

std::string CriticalPathReport::renderAscii() const {
  std::string out;
  if (!found) {
    out = "critical path: no root span for trace " + std::to_string(trace_id) +
          " (tracing disabled, or the ring dropped the JOB span)\n";
    return out;
  }
  out += "critical path (trace " + std::to_string(trace_id) + ", total " +
         formatMs(total_us) + " ms):\n";
  for (const auto& step : steps) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-22s %-28s @%8s ms  +%8s ms\n",
                  step.component.empty() ? "-" : step.component.c_str(),
                  step.name.c_str(), formatMs(step.start_us).c_str(),
                  formatMs(step.dur_us).c_str());
    out += line;
  }
  out += "where the time went:\n";
  int64_t max_micros = 1;
  for (const auto& p : phases) max_micros = std::max(max_micros, p.micros);
  for (const auto& p : phases) {
    const double pct =
        total_us > 0 ? 100.0 * static_cast<double>(p.micros) / total_us : 0.0;
    const int bar =
        static_cast<int>(30.0 * static_cast<double>(p.micros) / max_micros);
    char line[160];
    std::snprintf(line, sizeof(line), "  %-10s %10s ms %5.1f%%  %s\n",
                  p.phase.c_str(), formatMs(p.micros).c_str(), pct,
                  std::string(static_cast<size_t>(std::max(bar, 0)), '#')
                      .c_str());
    out += line;
  }
  return out;
}

std::string CriticalPathReport::exportJson() const {
  std::string out = "{\"trace_id\":" + std::to_string(trace_id) +
                    ",\"found\":" + (found ? "true" : "false") +
                    ",\"total_us\":" + std::to_string(total_us) +
                    ",\"phases\":{";
  for (size_t i = 0; i < phases.size(); ++i) {
    if (i) out += ",";
    out += "\"" + phases[i].phase +
           "\":" + std::to_string(phases[i].micros);
  }
  out += "},\"critical_path\":[";
  for (size_t i = 0; i < steps.size(); ++i) {
    if (i) out += ",";
    out += "{\"name\":\"" + steps[i].name + "\",\"component\":\"" +
           steps[i].component +
           "\",\"start_us\":" + std::to_string(steps[i].start_us) +
           ",\"dur_us\":" + std::to_string(steps[i].dur_us) + "}";
  }
  out += "]}";
  return out;
}

CriticalPathReport computeCriticalPath(const std::vector<TraceEvent>& events,
                                       uint64_t trace_id) {
  CriticalPathReport report;
  report.trace_id = trace_id;

  const TraceIndex index(events, trace_id);

  // The root is the (single) span with no parent — the JOB span the
  // JobTracker records at finish, backdated to submit time.
  const SpanNode* root = nullptr;
  for (const auto& [id, node] : index.spans) {
    if (node.event->parent_span_id == 0) {
      if (root == nullptr || startsWith(node.event->name, "JOB")) root = &node;
    }
  }
  std::map<std::string, int64_t> phase_micros;
  for (const char* phase : kTracePhases) phase_micros[phase] = 0;

  if (root == nullptr) {
    for (const auto& [phase, micros] : phase_micros) {
      report.phases.push_back({phase, micros});
    }
    return report;
  }
  report.found = true;
  report.total_us = root->event->dur_us;

  // Last-finishing reduce and map attempts anywhere in the trace: the
  // happens-before gates of the engine (all maps -> any reduce).
  const SpanNode* last_map = nullptr;
  const SpanNode* last_reduce = nullptr;
  for (const auto& [id, node] : index.spans) {
    const auto phase = classifyTracePhase(node.event->name);
    if (phase == "map" && (last_map == nullptr || node.end() > last_map->end()))
      last_map = &node;
    if (phase == "reduce" &&
        (last_reduce == nullptr || node.end() > last_reduce->end()))
      last_reduce = &node;
  }

  // Attributes a critical-path span's subtree, restricted to the clipped
  // window [win_start, win_end): classified descendants get their own
  // phases (recursively, each clipped to its visible stretch); the span
  // keeps the window length minus the union of its classified descendants'
  // clipped intervals (so overlapping parallel children are not subtracted
  // twice, and unclassified spans fold upward). The window matters under
  // slowstart: a pipelined reduce overlaps the map phase, and its
  // overlapped stretch is already on the path as map time — clipping keeps
  // the phase totals summing exactly to the job's wall clock.
  const std::function<void(const SpanNode&, const std::string&, int64_t,
                           int64_t)>
      attribute = [&](const SpanNode& node, const std::string& phase,
                      int64_t win_start, int64_t win_end) {
        const int64_t start = std::max(node.event->ts_us, win_start);
        const int64_t end = std::min(node.end(), win_end);
        if (end <= start) return;
        std::vector<uint64_t> classified;
        index.collectClassified(node.event->span_id, classified);
        std::vector<std::pair<int64_t, int64_t>> intervals;
        for (const uint64_t id : classified) {
          const SpanNode& child = index.spans.at(id);
          const int64_t child_start = std::max(child.event->ts_us, start);
          const int64_t child_end = std::min(child.end(), end);
          if (child_end <= child_start) continue;
          intervals.emplace_back(child_start, child_end);
          attribute(child, std::string(classifyTracePhase(child.event->name)),
                    child_start, child_end);
        }
        const int64_t covered = unionLength(std::move(intervals));
        phase_micros[phase] += std::max<int64_t>(end - start - covered, 0);
      };

  const auto addStep = [&](const SpanNode& node) {
    report.steps.push_back({node.event->name, node.event->component,
                            node.event->ts_us - root->event->ts_us,
                            node.event->dur_us});
  };
  const auto addGap = [&](int64_t start, int64_t end) {
    if (end <= start) return;
    report.steps.push_back(
        {"(scheduling gap)", "", start - root->event->ts_us, end - start});
    phase_micros["scheduling"] += end - start;
  };

  addStep(*root);
  int64_t cursor = root->event->ts_us;
  if (last_map != nullptr) {
    addGap(cursor, last_map->event->ts_us);
    addStep(*last_map);
    attribute(*last_map, "map", last_map->event->ts_us, last_map->end());
    cursor = std::max(cursor, last_map->end());
  }
  if (last_reduce != nullptr) {
    addGap(cursor, last_reduce->event->ts_us);
    addStep(*last_reduce);
    // With slowstart the reduce launches mid-map-phase; only its stretch
    // past the map gate (== `cursor`) is its own wall-clock contribution.
    attribute(*last_reduce, "reduce",
              std::max(cursor, last_reduce->event->ts_us),
              last_reduce->end());
    cursor = std::max(cursor, last_reduce->end());
  }
  addGap(cursor, root->end());

  for (const auto& [phase, micros] : phase_micros) {
    report.phases.push_back({phase, micros});
  }
  std::stable_sort(report.phases.begin(), report.phases.end(),
                   [](const CriticalPathPhase& a, const CriticalPathPhase& b) {
                     return a.micros > b.micros;
                   });
  return report;
}

}  // namespace mh
