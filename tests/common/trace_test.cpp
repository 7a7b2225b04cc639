#include "mh/common/trace.h"

#include <gtest/gtest.h>

#include <string>

namespace mh {
namespace {

TEST(TraceCollectorTest, DisabledByDefaultAndRecordsNothing) {
  TraceCollector tc;
  EXPECT_FALSE(tc.enabled());
  tc.instant("jobtracker", "SUBMIT");
  {
    TraceSpan span(&tc, "tasktracker.node01", "MAP m0 a0");
    EXPECT_FALSE(span.active());
    span.arg("job", "1");  // must be a harmless no-op
  }
  TraceSpan null_span(nullptr, "x", "y");
  EXPECT_FALSE(null_span.active());
  EXPECT_EQ(tc.size(), 0u);
  EXPECT_EQ(tc.droppedEvents(), 0u);
}

TEST(TraceCollectorTest, InstantAndSpanLandWithArgs) {
  TraceCollector tc;
  tc.setEnabled(true);
  tc.instant("jobtracker", "SUBMIT", {{"name", "wordcount"}, {"maps", "4"}});
  {
    TraceSpan span(&tc, "tasktracker.node01", "MAP m0 a0");
    EXPECT_TRUE(span.active());
    span.arg("job", "1");
  }
  const auto events = tc.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].component, "jobtracker");
  EXPECT_EQ(events[0].name, "SUBMIT");
  EXPECT_FALSE(events[0].span);
  ASSERT_EQ(events[0].args.size(), 2u);
  EXPECT_EQ(events[0].args[0].first, "name");
  EXPECT_EQ(events[0].args[0].second, "wordcount");
  EXPECT_EQ(events[1].component, "tasktracker.node01");
  EXPECT_TRUE(events[1].span);
  EXPECT_GE(events[1].dur_us, 0);
  ASSERT_EQ(events[1].args.size(), 1u);
  EXPECT_EQ(events[1].args[0].second, "1");
}

TEST(TraceCollectorTest, SnapshotIsChronological) {
  TraceCollector tc;
  tc.setEnabled(true);
  for (int i = 0; i < 20; ++i) {
    std::string name = "e";
    name += std::to_string(i);
    tc.instant("c", name);
  }
  const auto events = tc.snapshot();
  ASSERT_EQ(events.size(), 20u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_us, events[i].ts_us);
  }
}

TEST(TraceCollectorTest, RingStaysBoundedAndCountsDrops) {
  TraceCollector tc(8);
  tc.setEnabled(true);
  EXPECT_EQ(tc.capacity(), 8u);
  for (int i = 0; i < 20; ++i) {
    std::string name = "e";
    name += std::to_string(i);
    tc.instant("c", name);
  }
  EXPECT_EQ(tc.size(), 8u);
  EXPECT_EQ(tc.droppedEvents(), 12u);
  // Survivors are the newest 8 events, oldest first.
  const auto events = tc.snapshot();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events.front().name, "e12");
  EXPECT_EQ(events.back().name, "e19");
}

TEST(TraceCollectorTest, ClearResetsEverything) {
  TraceCollector tc(4);
  tc.setEnabled(true);
  for (int i = 0; i < 10; ++i) tc.instant("c", "e");
  tc.clear();
  EXPECT_EQ(tc.size(), 0u);
  EXPECT_EQ(tc.droppedEvents(), 0u);
  tc.instant("c", "after");
  EXPECT_EQ(tc.size(), 1u);
  EXPECT_EQ(tc.snapshot().front().name, "after");
}

TEST(TraceCollectorTest, SpanStartedWhileEnabledLandsAfterDisable) {
  TraceCollector tc;
  tc.setEnabled(true);
  {
    TraceSpan span(&tc, "tasktracker.node01", "REDUCE r0 a0");
    ASSERT_TRUE(span.active());
    tc.setEnabled(false);  // the in-flight span must still land
  }
  tc.instant("c", "late");  // but new instants must not
  ASSERT_EQ(tc.size(), 1u);
  EXPECT_EQ(tc.snapshot().front().name, "REDUCE r0 a0");
}

TEST(TraceCollectorTest, ChromeJsonHasLanesSpansAndInstants) {
  TraceCollector tc;
  tc.setEnabled(true);
  tc.instant("jobtracker", "SUBMIT", {{"name", "wc"}});
  { TraceSpan span(&tc, "tasktracker.node01", "MAP m0 a0"); }
  const std::string json = tc.exportChromeJson();
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  // One process_name metadata record per component.
  EXPECT_NE(json.find("\"ph\":\"M\",\"name\":\"process_name\""),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"jobtracker\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"tasktracker.node01\"}"),
            std::string::npos);
  // The span exports as a complete event with a duration, the instant as
  // ph "i" with scope "p".
  EXPECT_NE(json.find("\"ph\":\"X\",\"name\":\"MAP m0 a0\""),
            std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\",\"name\":\"SUBMIT\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"p\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"wc\""), std::string::npos);
}

TEST(TraceCollectorTest, JsonlEmitsHeaderPlusOneLinePerEvent) {
  TraceCollector tc;
  tc.setEnabled(true);
  tc.instant("a", "one");
  tc.instant("b", "two");
  const std::string jsonl = tc.exportJsonl();
  size_t lines = 0;
  for (const char c : jsonl) lines += (c == '\n');
  EXPECT_EQ(lines, 3u);  // self-describing header + one line per event
  EXPECT_EQ(jsonl.find("{\"type\":\"header\""), 0u);
  EXPECT_NE(jsonl.find("\"dropped_events\":0"), std::string::npos);
  EXPECT_NE(jsonl.find("\"event_count\":2"), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"instant\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"component\":\"a\""), std::string::npos);
}

TEST(TraceContextTest, AmbientIsZeroOutsideAnySpan) {
  const TraceContext ctx = currentTraceContext();
  EXPECT_FALSE(ctx.valid());
  EXPECT_EQ(ctx.trace_id, 0u);
  EXPECT_EQ(ctx.span_id, 0u);
}

TEST(TraceContextTest, ScopeInstallsAndRestores) {
  const TraceContext before = currentTraceContext();
  {
    TraceContextScope scope(TraceContext{7, 8, 0});
    EXPECT_EQ(currentTraceContext().trace_id, 7u);
    EXPECT_EQ(currentTraceContext().span_id, 8u);
    {
      TraceContextScope inner(TraceContext{7, 9, 8});
      EXPECT_EQ(currentTraceContext().span_id, 9u);
    }
    EXPECT_EQ(currentTraceContext().span_id, 8u);
  }
  EXPECT_EQ(currentTraceContext().trace_id, before.trace_id);
  EXPECT_EQ(currentTraceContext().span_id, before.span_id);
}

TEST(TraceContextTest, SpansFormCausalTreeViaAmbientContext) {
  TraceCollector tc;
  tc.setEnabled(true);
  const uint64_t trace_id = tc.newId();
  const TraceContextScope root(TraceContext{trace_id, 0, 0});
  uint64_t outer_id = 0;
  uint64_t inner_id = 0;
  {
    TraceSpan outer(&tc, "jobtracker", "JOB job 1");
    outer_id = outer.context().span_id;
    ASSERT_NE(outer_id, 0u);
    {
      TraceSpan inner(&tc, "tasktracker.node01", "MAP m0 a0");
      inner_id = inner.context().span_id;
      tc.instant("dfsclient.node01", "READ_BLOCK blk_1");
    }
  }
  // Spans record at destruction, the instant immediately; snapshot()
  // orders by start time, so look events up by name rather than index.
  const auto events = tc.snapshot();
  ASSERT_EQ(events.size(), 3u);
  const auto byName = [&](const char* prefix) -> const TraceEvent& {
    for (const auto& e : events) {
      if (e.name.rfind(prefix, 0) == 0) return e;
    }
    ADD_FAILURE() << "no event named " << prefix;
    return events.front();
  };
  const TraceEvent& instant = byName("READ_BLOCK");
  const TraceEvent& inner = byName("MAP");
  const TraceEvent& outer = byName("JOB");
  EXPECT_EQ(outer.trace_id, trace_id);
  EXPECT_EQ(outer.parent_span_id, 0u);
  EXPECT_EQ(inner.trace_id, trace_id);
  EXPECT_EQ(inner.parent_span_id, outer_id);
  EXPECT_EQ(inner.span_id, inner_id);
  EXPECT_EQ(instant.trace_id, trace_id);
  EXPECT_EQ(instant.parent_span_id, inner_id);
  EXPECT_EQ(instant.span_id, 0u);  // instants are points, not spans
}

TEST(TraceContextTest, ExplicitContextInstantTargetsGivenTree) {
  TraceCollector tc;
  tc.setEnabled(true);
  tc.instant(TraceContext{42, 43, 0}, "jobtracker", "ATTEMPT_TIMEOUT");
  const auto events = tc.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].trace_id, 42u);
  EXPECT_EQ(events[0].parent_span_id, 43u);
}

TEST(TraceContextTest, DisabledCollectorAllocatesNoIds) {
  TraceCollector tc;
  ASSERT_FALSE(tc.enabled());
  for (int i = 0; i < 100; ++i) {
    tc.instant("c", "e");
    TraceSpan span(&tc, "c", "s");
  }
  EXPECT_EQ(tc.idsAllocated(), 0u);
  tc.setEnabled(true);
  { TraceSpan span(&tc, "c", "s"); }
  EXPECT_EQ(tc.idsAllocated(), 1u);
}

TEST(TraceCollectorTest, ChromeJsonNamesTracksAndReportsDrops) {
  TraceCollector tc(3);
  tc.setEnabled(true);
  tc.instant("jobtracker", "e1");  // will be overwritten below
  {
    TraceContextScope scope(TraceContext{1, 0, 0}, "m0 a0");
    TraceSpan span(&tc, "tasktracker.node01", "MAP m0 a0");
  }
  tc.instant("jobtracker", "e2");
  tc.instant("jobtracker", "e3");  // capacity 3: drops e1
  const std::string json = tc.exportChromeJson();
  // Named thread track for the task attempt; anonymous events fall back
  // to a per-thread tid track.
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"m0 a0\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"tid "), std::string::npos);
  EXPECT_NE(json.find("\"droppedEvents\":1"), std::string::npos);
}

TEST(TraceCollectorTest, ChromeJsonCarriesCausalIdsInArgs) {
  TraceCollector tc;
  tc.setEnabled(true);
  {
    TraceContextScope scope(TraceContext{5, 0, 0});
    TraceSpan span(&tc, "c", "s");
  }
  const std::string json = tc.exportChromeJson();
  EXPECT_NE(json.find("\"trace_id\":5"), std::string::npos);
  EXPECT_NE(json.find("\"span_id\":"), std::string::npos);
}

TEST(TraceCollectorTest, JsonEscapesSpecialCharacters) {
  TraceCollector tc;
  tc.setEnabled(true);
  tc.instant("c", "quote\"back\\slash", {{"k", "line\nbreak"}});
  const std::string json = tc.exportChromeJson();
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
  EXPECT_NE(json.find("line\\nbreak"), std::string::npos);
}

}  // namespace
}  // namespace mh
