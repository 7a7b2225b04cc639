#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "mh/common/rng.h"
#include "mh/common/trace_analysis.h"
#include "mh/mr/mini_mr_cluster.h"
#include "mh/net/fault_plan.h"
#include "mr_test_jobs.h"
#include "testutil/aggressive_timers.h"

/// \file observability_test.cpp
/// End-to-end acceptance for the observability layer: one WordCount on a
/// mini-cluster with tracing on must leave RPC latency histograms, a Chrome
/// trace with one lane per daemon and a span per task attempt, a per-job
/// attempt timeline, and registry counters consistent with the job report.

namespace mh::mr {
namespace {

using namespace testjobs;

Config fastConf() {
  Config conf = testutil::aggressiveTimers();
  conf.setInt("dfs.replication", 2);
  conf.setInt("dfs.blocksize", 512);
  return conf;
}

std::string makeCorpus(int lines, uint64_t seed) {
  static const char* kWords[] = {"data",  "local", "block", "shuffle",
                                 "merge", "sort",  "map",   "reduce"};
  Rng rng(seed);
  std::string corpus;
  for (int i = 0; i < lines; ++i) {
    const auto words = 1 + rng.uniform(8);
    for (uint64_t w = 0; w < words; ++w) {
      corpus += kWords[rng.uniform(8)];
      corpus.push_back(w + 1 == words ? '\n' : ' ');
    }
  }
  return corpus;
}

class ObservabilityTest : public ::testing::Test {
 protected:
  // One traced WordCount shared by every assertion in this file (cluster
  // startup dominates the test's cost).
  static void SetUpTestSuite() {
    cluster_ = new MiniMrCluster({.num_nodes = 3, .conf = fastConf()});
    cluster_->tracer().setEnabled(true);
    cluster_->client().writeFile("/in/corpus.txt", makeCorpus(300, 77));
    result_ = new JobResult(
        cluster_->runJob(wordCountSpec({"/in"}, "/out", false, 2)));
  }

  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
    delete cluster_;
    cluster_ = nullptr;
  }

  static MiniMrCluster* cluster_;
  static JobResult* result_;
};

MiniMrCluster* ObservabilityTest::cluster_ = nullptr;
JobResult* ObservabilityTest::result_ = nullptr;

TEST_F(ObservabilityTest, JobSucceeded) {
  ASSERT_TRUE(result_->succeeded()) << result_->error;
}

TEST_F(ObservabilityTest, RpcLatencyHistogramsAreNonzero) {
  auto& netm = cluster_->metrics().child("network");
  // Heartbeats run for the cluster's whole life; getMapOutput is the
  // shuffle fetch path.
  ASSERT_TRUE(netm.hasHistogram("rpc.heartbeat.micros"));
  ASSERT_TRUE(netm.hasHistogram("rpc.getMapOutput.micros"));
  EXPECT_GT(netm.histogram("rpc.heartbeat.micros").count(), 0u);
  EXPECT_GT(netm.histogram("rpc.getMapOutput.micros").count(), 0u);
  EXPECT_GE(netm.histogram("rpc.heartbeat.micros").max(), 0);
}

TEST_F(ObservabilityTest, DaemonRegistriesReportOps) {
  auto& m = cluster_->metrics();
  EXPECT_GT(m.child("namenode").counterValue("ops.heartbeat"), 0);
  EXPECT_GT(m.child("jobtracker").counterValue("jobs.submitted"), 0);
  EXPECT_GT(m.child("jobtracker").counterValue("jobs.succeeded"), 0);
  EXPECT_DOUBLE_EQ(m.child("jobtracker").gaugeValue("trackers.live"), 3.0);
  int64_t maps_completed = 0;
  for (const auto& host : cluster_->trackerHosts()) {
    auto& tt = m.child("tasktracker." + host);
    maps_completed += tt.counterValue("tasks.maps.completed");
  }
  EXPECT_GT(maps_completed, 0);
  const std::string dump = m.render();
  EXPECT_NE(dump.find("[network]"), std::string::npos);
  EXPECT_NE(dump.find("rpc.heartbeat.micros"), std::string::npos);
}

TEST_F(ObservabilityTest, ChromeTraceHasOneLanePerDaemonAndTaskSpans) {
  const std::string json = cluster_->tracer().exportChromeJson();
  // One process lane (process_name metadata) per daemon kind we expect.
  EXPECT_NE(json.find("\"args\":{\"name\":\"jobtracker\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"namenode\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"datanode."), std::string::npos);
  for (const auto& host : cluster_->trackerHosts()) {
    EXPECT_NE(json.find("\"args\":{\"name\":\"tasktracker." + host + "\"}"),
              std::string::npos)
        << host;
  }
  // A complete-event ("ph":"X") span for every map and reduce attempt.
  size_t map_spans = 0;
  size_t reduce_spans = 0;
  for (const auto& e : cluster_->tracer().snapshot()) {
    if (!e.span) continue;
    if (e.name.rfind("MAP m", 0) == 0) ++map_spans;
    if (e.name.rfind("REDUCE r", 0) == 0) ++reduce_spans;
  }
  using namespace counters;
  EXPECT_EQ(map_spans, static_cast<size_t>(result_->counters.value(
                           kJobGroup, kLaunchedMaps)));
  EXPECT_EQ(reduce_spans, 2u);
  EXPECT_NE(json.find("\"ph\":\"X\",\"name\":\"MAP m"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\",\"name\":\"REDUCE r"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\",\"name\":\"SHUFFLE_FETCH r"),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\",\"name\":\"SUBMIT"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\",\"name\":\"JOB_FINISH"),
            std::string::npos);
  EXPECT_EQ(cluster_->tracer().droppedEvents(), 0u);
}

TEST_F(ObservabilityTest, HistoryReportListsEveryAttempt) {
  ASSERT_FALSE(result_->history.attempts.empty());
  for (const auto& a : result_->history.attempts) {
    EXPECT_TRUE(a.finished);
    EXPECT_TRUE(a.succeeded) << a.error;
    EXPECT_LE(a.start_ms, a.finish_ms);
  }
  const std::string report = result_->historyReport();
  EXPECT_NE(report.find("SUCCEEDED"), std::string::npos);
  EXPECT_NE(report.find("m0.0"), std::string::npos);   // first map attempt
  EXPECT_NE(report.find("r0.0"), std::string::npos);   // first reduce attempt
  EXPECT_NE(report.find("r1.0"), std::string::npos);
  EXPECT_EQ(report.find("(unfinished)"), std::string::npos);
}

TEST_F(ObservabilityTest, RegistryShuffleCountersMatchJobCounters) {
  // Satellite 6: in a clean run, the per-tracker registry mirror of the
  // shuffle/merge counters sums to exactly the job's counter totals.
  int64_t merge_segments = 0;
  int64_t fetch_millis = 0;
  int64_t shuffle_bytes = 0;
  for (const auto& host : cluster_->trackerHosts()) {
    auto& tt = cluster_->metrics().child("tasktracker." + host);
    merge_segments += tt.counterValue("merge_segments");
    fetch_millis += tt.counterValue("shuffle_fetch_millis");
    shuffle_bytes += tt.counterValue("shuffle_bytes");
  }
  using namespace counters;
  EXPECT_EQ(merge_segments,
            result_->counters.value(kTaskGroup, kMergeSegments));
  EXPECT_EQ(fetch_millis,
            result_->counters.value(kShuffleGroup, kShuffleFetchMillis));
  EXPECT_EQ(shuffle_bytes,
            result_->counters.value(kShuffleGroup, kShuffleBytes));
  EXPECT_GT(merge_segments, 0);
  EXPECT_GT(shuffle_bytes, 0);
}

TEST_F(ObservabilityTest, TraceTreeIsConnectedAcrossDaemonKinds) {
  // Tentpole acceptance: the whole job — scheduling, tasks, shuffle, DFS
  // I/O — is one causally connected tree under a single JOB root span.
  ASSERT_NE(result_->trace_id, 0u);
  const auto events = cluster_->tracer().snapshot();
  const TraceTreeStats stats = analyzeTraceTree(events, result_->trace_id);
  EXPECT_GT(stats.span_count, 0u);
  EXPECT_GT(stats.instant_count, 0u);
  EXPECT_EQ(stats.missing_parents, 0u);
  ASSERT_EQ(stats.root_span_ids.size(), 1u);
  EXPECT_TRUE(stats.connected());
  // All four daemon kinds participate (plus the embedded DFS client).
  const auto& kinds = stats.daemon_kinds;
  const auto has = [&](const char* kind) {
    return std::find(kinds.begin(), kinds.end(), kind) != kinds.end();
  };
  EXPECT_TRUE(has("jobtracker"));
  EXPECT_TRUE(has("tasktracker"));
  EXPECT_TRUE(has("namenode"));
  EXPECT_TRUE(has("datanode"));
  EXPECT_TRUE(has("dfsclient"));
  // The root is the backdated JOB span on the "jobs" track.
  for (const auto& e : events) {
    if (e.span && e.span_id == stats.root_span_ids[0]) {
      EXPECT_EQ(e.name.rfind("JOB job", 0), 0u) << e.name;
      EXPECT_EQ(e.track, "jobs");
    }
  }
}

TEST_F(ObservabilityTest, CriticalPathAttributesTheWholeWallClock) {
  const CriticalPathReport report =
      computeCriticalPath(cluster_->tracer().snapshot(), result_->trace_id);
  ASSERT_TRUE(report.found);
  EXPECT_GT(report.total_us, 0);
  EXPECT_FALSE(report.steps.empty());
  EXPECT_FALSE(report.dominantPhase().empty());
  int64_t attributed = 0;
  for (const auto& p : report.phases) attributed += p.micros;
  EXPECT_EQ(attributed, report.total_us);

  const std::string ascii = result_->criticalPathReport(cluster_->tracer());
  EXPECT_NE(ascii.find("critical path (trace"), std::string::npos);
  EXPECT_NE(ascii.find("where the time went:"), std::string::npos);
}

TEST_F(ObservabilityTest, TaskSpansCarryReadableTrackNames) {
  // Satellite 2: task attempts render as stable named tracks ("m0 a0"),
  // not anonymous hashed-tid lanes.
  bool saw_map_track = false;
  bool saw_reduce_track = false;
  for (const auto& e : cluster_->tracer().snapshot()) {
    if (!e.span) continue;
    if (e.name.rfind("MAP m", 0) == 0 && e.track.rfind("m", 0) == 0) {
      saw_map_track = true;
    }
    if (e.name.rfind("REDUCE r", 0) == 0 && e.track.rfind("r", 0) == 0) {
      saw_reduce_track = true;
    }
  }
  EXPECT_TRUE(saw_map_track);
  EXPECT_TRUE(saw_reduce_track);
  const std::string json = cluster_->tracer().exportChromeJson();
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"droppedEvents\":0"), std::string::npos);
}

TEST(CriticalPathJobTest, SlowMapJobIsMapDominated) {
  // Planted bottleneck 1: a mapper that sleeps makes map compute the
  // dominant phase of the critical path.
  class SlowMapper : public testjobs::WordCountMapper {
   public:
    void cleanup(TaskContext&) override {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
    }
  };
  Config conf = testutil::aggressiveTimers();
  conf.setInt("dfs.replication", 2);
  MiniMrCluster cluster({.num_nodes = 2, .conf = conf});
  cluster.tracer().setEnabled(true);
  cluster.client().writeFile("/in/corpus.txt", makeCorpus(50, 3));

  JobSpec spec = wordCountSpec({"/in"}, "/out", false, 1);
  spec.name = "slow-map";
  spec.mapper = [] { return std::make_unique<SlowMapper>(); };
  const JobResult result = cluster.runJob(spec);
  ASSERT_TRUE(result.succeeded()) << result.error;

  const CriticalPathReport report =
      computeCriticalPath(cluster.tracer().snapshot(), result.trace_id);
  ASSERT_TRUE(report.found);
  EXPECT_EQ(report.dominantPhase(), "map") << report.renderAscii();
  EXPECT_GE(report.phaseMicros("map"), 150'000);
}

TEST(CriticalPathJobTest, ShuffleDelayJobIsShuffleDominated) {
  // Planted bottleneck 2: a FaultPlan that delays every shuffle fetch
  // makes shuffle wait the dominant phase — and the injected faults land
  // inside the job's trace tree.
  Config conf = testutil::aggressiveTimers();
  conf.setInt("dfs.replication", 2);
  MiniMrCluster cluster({.num_nodes = 2, .conf = conf});
  cluster.tracer().setEnabled(true);
  cluster.client().writeFile("/in/corpus.txt", makeCorpus(200, 4));

  // Big enough to dominate even when a loaded CI machine stretches map
  // compute and scheduling gaps to tens of milliseconds.
  auto plan = std::make_shared<net::FaultPlan>(11);
  plan->addRule({.match = {.tag = "shuffle"},
                 .action = net::FaultAction::kDelay,
                 .delay_micros = 250'000});
  cluster.network()->setFaultPlan(plan);

  const JobResult result =
      cluster.runJob(wordCountSpec({"/in"}, "/out", false, 2));
  ASSERT_TRUE(result.succeeded()) << result.error;
  ASSERT_GT(plan->injectedFaults(), 0u);

  const auto events = cluster.tracer().snapshot();
  const CriticalPathReport report =
      computeCriticalPath(events, result.trace_id);
  ASSERT_TRUE(report.found);
  EXPECT_EQ(report.dominantPhase(), "shuffle") << report.renderAscii();

  // FAULT_INJECT instants inherit the victim call's context: the delayed
  // fetches' faults belong to this job's trace.
  bool fault_in_tree = false;
  for (const auto& e : events) {
    if (e.name.rfind("FAULT_INJECT", 0) == 0 &&
        e.trace_id == result.trace_id && e.parent_span_id != 0) {
      fault_in_tree = true;
    }
  }
  EXPECT_TRUE(fault_in_tree);
}

TEST(MetricsTimeSeriesTest, FixedWindowAroundATracedJobSamplesEveryTick) {
  // The snapshotter samples a live cluster across a fixed window that
  // contains a whole traced job. The sample count depends on the window,
  // not on how long the job runs, and the series shows the job's progress
  // between a sample read before submit and one read after it finished.
  constexpr int64_t kIntervalMs = 50;
  constexpr int64_t kWindowMs = 10 * kIntervalMs;
  MiniMrCluster cluster({.num_nodes = 3, .conf = fastConf()});
  cluster.tracer().setEnabled(true);
  cluster.client().writeFile("/in/corpus.txt", makeCorpus(300, 78));

  const auto window_end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(kWindowMs);
  MetricsSnapshotter& snapshotter =
      cluster.network()->startSnapshotter({.interval_ms = kIntervalMs});
  const auto wait_for_samples = [&](size_t n) {
    while (snapshotter.size() < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  wait_for_samples(1);
  const JobResult result =
      cluster.runJob(wordCountSpec({"/in"}, "/out", false, 2));
  // The sampler is one thread: the sample after the next one to land was
  // read entirely after the job finished.
  const size_t after_finish = snapshotter.size() + 1;
  wait_for_samples(after_finish + 1);
  std::this_thread::sleep_until(window_end);
  cluster.network()->stopSnapshotter();
  ASSERT_TRUE(result.succeeded()) << result.error;

  const auto snaps = snapshotter.snapshots();
  EXPECT_GE(snaps.size(), static_cast<size_t>(kWindowMs / kIntervalMs - 1));
  const auto maps_completed = [](const MetricsSnapshotter::Snapshot& snap) {
    double total = 0;
    for (const auto& [name, value] : snap.values) {
      if (name.ends_with("/tasks.maps.completed")) total += value;
    }
    return total;
  };
  EXPECT_EQ(maps_completed(snaps.front()), 0.0);
  EXPECT_EQ(maps_completed(snaps[after_finish]),
            cluster.jobTracker().listJobs().front().maps_total);
}

TEST_F(ObservabilityTest, SignalCatalogMatchesDocs) {
  // Satellite 4: docs/OBSERVABILITY.md's signal catalog is kept honest by
  // the code — every metric and trace-event name a real traced job emits
  // must appear there (in its generic <host>/<method>/<tag> form).
  std::ifstream in(std::string(MH_SOURCE_DIR) + "/docs/OBSERVABILITY.md");
  ASSERT_TRUE(in.good()) << "docs/OBSERVABILITY.md not readable";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();

  // Normalizes one flattened metric name ("child/leaf", histograms
  // expanded to .count/.sum_us) to the catalog's generic spelling.
  const auto docKey = [](std::string name) {
    for (const char* suffix : {".count", ".sum_us"}) {
      if (name.ends_with(suffix)) {
        name.resize(name.size() - std::strlen(suffix));
      }
    }
    std::string leaf = name.substr(name.rfind('/') + 1);
    if (leaf.rfind("rpc.", 0) == 0 && leaf.ends_with(".micros")) {
      return std::string("rpc.<method>.micros");
    }
    if (leaf.rfind("ops.", 0) == 0) return std::string("ops.<method>");
    if (leaf.rfind("traffic.", 0) == 0) {
      return "traffic.<tag>" + leaf.substr(leaf.rfind('.'));
    }
    return leaf;
  };
  const auto registryKind = [](const std::string& segment) {
    for (const char* host_kind : {"tasktracker", "datanode", "dfsclient"}) {
      if (segment.rfind(std::string(host_kind) + ".", 0) == 0) {
        return std::string(host_kind) + ".<host>";
      }
    }
    if (segment.rfind("codec.", 0) == 0) return std::string("codec.<name>");
    return segment;
  };

  std::set<std::string> missing;
  for (const auto& [name, value] : cluster_->metrics().flattenValues()) {
    if (doc.find(docKey(name)) == std::string::npos) {
      missing.insert(docKey(name) + "  (from " + name + ")");
    }
    // Each registry path segment must be cataloged too.
    std::string path = name.substr(0, name.rfind('/') + 1);
    for (size_t from = 0; from < path.size();) {
      const size_t slash = path.find('/', from);
      const std::string kind = registryKind(path.substr(from, slash - from));
      if (doc.find(kind) == std::string::npos) {
        missing.insert(kind + "  (registry, from " + name + ")");
      }
      from = slash + 1;
    }
  }
  // Trace names: the leading token (MAP, SHUFFLE_FETCH, NN_OP, ...).
  for (const auto& e : cluster_->tracer().snapshot()) {
    const std::string token = e.name.substr(0, e.name.find(' '));
    if (doc.find(token) == std::string::npos) {
      missing.insert(token + "  (trace event \"" + e.name + "\")");
    }
  }
  std::string report;
  for (const auto& m : missing) report += "\n  " + m;
  EXPECT_TRUE(missing.empty())
      << "signals missing from docs/OBSERVABILITY.md:" << report;
}

TEST_F(ObservabilityTest, ExportsAreWellFormed) {
  const std::string prom = cluster_->metrics().exportPrometheus();
  EXPECT_NE(prom.find("mh_jobtracker_jobs_submitted_total"),
            std::string::npos);
  EXPECT_NE(prom.find("mh_network_rpc_heartbeat_micros_count"),
            std::string::npos);
  const std::string json = cluster_->metrics().exportJson();
  EXPECT_NE(json.find("\"jobtracker\""), std::string::npos);
  EXPECT_NE(json.find("\"rpc.heartbeat.micros\""), std::string::npos);
}

}  // namespace
}  // namespace mh::mr
