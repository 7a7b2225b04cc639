#include "mh/common/trace_analysis.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace mh {
namespace {

TraceEvent makeSpan(uint64_t trace_id, uint64_t span_id, uint64_t parent,
                    std::string component, std::string name, int64_t ts_us,
                    int64_t dur_us) {
  TraceEvent e;
  e.component = std::move(component);
  e.name = std::move(name);
  e.span = true;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.trace_id = trace_id;
  e.span_id = span_id;
  e.parent_span_id = parent;
  return e;
}

TraceEvent makeInstant(uint64_t trace_id, uint64_t parent,
                       std::string component, std::string name,
                       int64_t ts_us) {
  TraceEvent e;
  e.component = std::move(component);
  e.name = std::move(name);
  e.ts_us = ts_us;
  e.trace_id = trace_id;
  e.parent_span_id = parent;
  return e;
}

/// A small but complete job trace: JOB root [0, 100ms], one map
/// [10ms, 40ms], one reduce [50ms, 95ms] with shuffle [50, 70] and merge
/// [70, 75] children. Gaps: 0-10, 40-50, 95-100 (25 ms of scheduling).
std::vector<TraceEvent> syntheticJob(uint64_t trace_id) {
  std::vector<TraceEvent> events;
  events.push_back(
      makeSpan(trace_id, 2, 0, "jobtracker", "JOB job 1", 0, 100'000));
  events.push_back(makeSpan(trace_id, 3, 2, "tasktracker.node01", "MAP m0 a0",
                            10'000, 30'000));
  events.push_back(makeSpan(trace_id, 4, 2, "tasktracker.node02",
                            "REDUCE r0 a0", 50'000, 45'000));
  events.push_back(makeSpan(trace_id, 5, 4, "tasktracker.node02",
                            "SHUFFLE_FETCH r0 m0", 50'000, 20'000));
  events.push_back(makeSpan(trace_id, 6, 4, "tasktracker.node02", "MERGE r0",
                            70'000, 5'000));
  events.push_back(
      makeInstant(trace_id, 2, "jobtracker", "JOB_FINISH job 1", 100'000));
  return events;
}

TEST(TracePhaseTest, ClassifiesSpanNamesByPrefix) {
  EXPECT_EQ(classifyTracePhase("MAP m3 a0"), "map");
  EXPECT_EQ(classifyTracePhase("REDUCE r1 a2"), "reduce");
  EXPECT_EQ(classifyTracePhase("SHUFFLE_FETCH r0 m2"), "shuffle");
  EXPECT_EQ(classifyTracePhase("SHUFFLE_DECODE"), "shuffle");
  EXPECT_EQ(classifyTracePhase("SORT_SPILL m0"), "spill");
  EXPECT_EQ(classifyTracePhase("MERGE r0"), "merge");
  EXPECT_EQ(classifyTracePhase("DFS_READ blk_7"), "dfs");
  EXPECT_EQ(classifyTracePhase("DFS_WRITE /user/x"), "dfs");
  EXPECT_EQ(classifyTracePhase("READ_BLOCK blk_7"), "dfs");
  EXPECT_EQ(classifyTracePhase("WRITE_BLOCK blk_7"), "dfs");
  EXPECT_EQ(classifyTracePhase("REPLICATE"), "dfs");
  // Container / infrastructure spans are transparent.
  EXPECT_EQ(classifyTracePhase("JOB job 1"), "");
  EXPECT_EQ(classifyTracePhase("COMPRESS"), "");
  EXPECT_EQ(classifyTracePhase("DECOMPRESS"), "");
}

TEST(TraceTreeTest, ConnectedTreeHasOneRootAndNoMissingParents) {
  const auto events = syntheticJob(1);
  const TraceTreeStats stats = analyzeTraceTree(events, 1);
  EXPECT_EQ(stats.span_count, 5u);
  EXPECT_EQ(stats.instant_count, 1u);
  EXPECT_EQ(stats.missing_parents, 0u);
  ASSERT_EQ(stats.root_span_ids.size(), 1u);
  EXPECT_EQ(stats.root_span_ids[0], 2u);
  EXPECT_TRUE(stats.connected());
  ASSERT_EQ(stats.daemon_kinds.size(), 2u);
  EXPECT_EQ(stats.daemon_kinds[0], "jobtracker");
  EXPECT_EQ(stats.daemon_kinds[1], "tasktracker");
}

TEST(TraceTreeTest, DetectsMissingParentsAndIgnoresOtherTraces) {
  auto events = syntheticJob(1);
  // An orphan: parent span 99 was never recorded.
  events.push_back(makeSpan(1, 7, 99, "tasktracker.node01", "MAP m1 a0",
                            20'000, 1'000));
  // A different trace entirely: must not count toward trace 1.
  events.push_back(makeSpan(8, 10, 0, "jobtracker", "JOB job 2", 0, 50'000));
  const TraceTreeStats stats = analyzeTraceTree(events, 1);
  EXPECT_EQ(stats.span_count, 6u);
  EXPECT_EQ(stats.missing_parents, 1u);
  EXPECT_FALSE(stats.connected());
}

TEST(CriticalPathTest, AttributesEveryMicrosecondOfTheRoot) {
  const auto events = syntheticJob(1);
  const CriticalPathReport report = computeCriticalPath(events, 1);
  ASSERT_TRUE(report.found);
  EXPECT_EQ(report.total_us, 100'000);

  // root, gap, map, gap, reduce, trailing gap.
  ASSERT_EQ(report.steps.size(), 6u);
  EXPECT_EQ(report.steps[0].name, "JOB job 1");
  EXPECT_EQ(report.steps[1].name, "(scheduling gap)");
  EXPECT_EQ(report.steps[1].dur_us, 10'000);
  EXPECT_EQ(report.steps[2].name, "MAP m0 a0");
  EXPECT_EQ(report.steps[3].dur_us, 10'000);
  EXPECT_EQ(report.steps[4].name, "REDUCE r0 a0");
  EXPECT_EQ(report.steps[5].dur_us, 5'000);

  EXPECT_EQ(report.phaseMicros("map"), 30'000);
  EXPECT_EQ(report.phaseMicros("shuffle"), 20'000);
  EXPECT_EQ(report.phaseMicros("merge"), 5'000);
  // Reduce keeps its duration minus its classified children (45 - 25 ms).
  EXPECT_EQ(report.phaseMicros("reduce"), 20'000);
  EXPECT_EQ(report.phaseMicros("scheduling"), 25'000);
  EXPECT_EQ(report.phaseMicros("spill"), 0);
  EXPECT_EQ(report.phaseMicros("dfs"), 0);
  EXPECT_EQ(report.dominantPhase(), "map");

  // The buckets partition the whole wall clock.
  int64_t sum = 0;
  for (const auto& p : report.phases) sum += p.micros;
  EXPECT_EQ(sum, report.total_us);
}

TEST(CriticalPathTest, OverlappingChildrenAreNotDoubleSubtracted) {
  std::vector<TraceEvent> events;
  events.push_back(makeSpan(1, 2, 0, "jobtracker", "JOB job 1", 0, 50'000));
  events.push_back(makeSpan(1, 3, 2, "tasktracker.node01", "REDUCE r0 a0", 0,
                            50'000));
  // Two parallel fetches covering [0, 30] between them (overlap 10-20).
  events.push_back(makeSpan(1, 4, 3, "tasktracker.node01",
                            "SHUFFLE_FETCH r0 m0", 0, 20'000));
  events.push_back(makeSpan(1, 5, 3, "tasktracker.node01",
                            "SHUFFLE_FETCH r0 m1", 10'000, 20'000));
  const CriticalPathReport report = computeCriticalPath(events, 1);
  ASSERT_TRUE(report.found);
  EXPECT_EQ(report.phaseMicros("shuffle"), 40'000);  // both spans' own time
  // Reduce self time subtracts the UNION [0, 30] once, not 40 ms.
  EXPECT_EQ(report.phaseMicros("reduce"), 20'000);
}

TEST(CriticalPathTest, UnclassifiedSpansAreTransparent) {
  std::vector<TraceEvent> events;
  events.push_back(makeSpan(1, 2, 0, "jobtracker", "JOB job 1", 0, 40'000));
  events.push_back(
      makeSpan(1, 3, 2, "tasktracker.node01", "MAP m0 a0", 0, 40'000));
  // COMPRESS under MAP is unclassified; the DFS_WRITE under it must still
  // surface as dfs time, seen through the transparent layer.
  events.push_back(
      makeSpan(1, 4, 3, "tasktracker.node01", "COMPRESS", 10'000, 20'000));
  events.push_back(makeSpan(1, 5, 4, "dfsclient.node01", "DFS_WRITE /spill",
                            15'000, 5'000));
  const CriticalPathReport report = computeCriticalPath(events, 1);
  EXPECT_EQ(report.phaseMicros("dfs"), 5'000);
  EXPECT_EQ(report.phaseMicros("map"), 35'000);
}

TEST(CriticalPathTest, MissingRootReportsNotFound) {
  std::vector<TraceEvent> events;
  events.push_back(
      makeSpan(1, 3, 2, "tasktracker.node01", "MAP m0 a0", 0, 1'000));
  const CriticalPathReport report = computeCriticalPath(events, 7);
  EXPECT_FALSE(report.found);
  EXPECT_EQ(report.dominantPhase(), "");
  EXPECT_NE(report.renderAscii().find("no root span"), std::string::npos);
}

TEST(CriticalPathTest, RendersAsciiAndJson) {
  const CriticalPathReport report = computeCriticalPath(syntheticJob(9), 9);
  const std::string ascii = report.renderAscii();
  EXPECT_NE(ascii.find("critical path (trace 9, total 100.0 ms):"),
            std::string::npos);
  EXPECT_NE(ascii.find("where the time went:"), std::string::npos);
  EXPECT_NE(ascii.find("map"), std::string::npos);
  EXPECT_NE(ascii.find("(scheduling gap)"), std::string::npos);
  const std::string json = report.exportJson();
  EXPECT_NE(json.find("\"trace_id\":9"), std::string::npos);
  EXPECT_NE(json.find("\"found\":true"), std::string::npos);
  EXPECT_NE(json.find("\"map\":30000"), std::string::npos);
  EXPECT_NE(json.find("\"critical_path\":["), std::string::npos);
}

}  // namespace
}  // namespace mh
