#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "mh/common/error.h"
#include "mh/common/rng.h"
#include "mh/common/trace_analysis.h"
#include "mh/mr/merge.h"
#include "mh/mr/mini_mr_cluster.h"
#include "mr_test_jobs.h"
#include "testutil/aggressive_timers.h"

/// \file pipelined_shuffle_test.cpp
/// The pipelined shuffle (slowstart reduce launch + incremental merge):
/// IncrementalMerger's byte-identity and re-execution contracts at the unit
/// level, and the end-to-end overlap/refetch behavior on a mini-cluster.

namespace mh::mr {
namespace {

using namespace testjobs;

// ------------------------------------------------- IncrementalMerger units

BufferView runOf(const std::vector<KeyValue>& records) {
  return BufferView(Buffer::fromString(encodeKvRun(records)));
}

/// Drains a KvRunMerger over `views` into (key, value) pairs.
std::vector<KeyValue> drainViews(const std::vector<BufferView>& views) {
  std::vector<std::string_view> sv(views.begin(), views.end());
  KvRunMerger merger(sv);
  std::vector<KeyValue> out;
  while (merger.nextGroup()) {
    while (const auto value = merger.values().next()) {
      out.push_back({Bytes(merger.key()), Bytes(*value)});
    }
  }
  return out;
}

TEST(IncrementalMergerTest, FoldedAssemblyMatchesOneShotMergeByteForByte) {
  // Ten single-map runs with heavily colliding keys, added out of order and
  // folded at arbitrary times: the assembled merge must reproduce the
  // one-shot merge over all runs in map order, record for record.
  Rng rng(97);
  std::vector<std::vector<KeyValue>> records(10);
  std::vector<BufferView> runs;
  for (size_t m = 0; m < 10; ++m) {
    const size_t n = 1 + rng.uniform(12);
    for (size_t i = 0; i < n; ++i) {
      records[m].push_back({"key" + std::to_string(rng.uniform(6)),
                            "m" + std::to_string(m) + "#" +
                                std::to_string(i)});
    }
    std::stable_sort(
        records[m].begin(), records[m].end(),
        [](const KeyValue& a, const KeyValue& b) { return a.key < b.key; });
    runs.push_back(runOf(records[m]));
  }
  const std::vector<KeyValue> one_shot = drainViews(runs);

  IncrementalMerger merger({.fold_fanin = 4, .adjacent_only = true});
  const uint32_t order[] = {3, 0, 7, 1, 9, 2, 8, 4, 6, 5};
  for (const uint32_t m : order) {
    merger.addRun({m}, runs[m]);
    if (merger.pendingRuns() >= 4) merger.foldOnce();
  }
  merger.foldOnce();
  EXPECT_GT(merger.segmentCount(), 0u);  // something actually folded
  EXPECT_EQ(drainViews(merger.assemble()), one_shot);
}

TEST(IncrementalMergerTest, ZeroLengthRunsStillCoverTheirMaps) {
  // An empty partition is a legal map output: it must count toward
  // membership (covers) and fold away without disturbing its neighbors.
  IncrementalMerger merger({.fold_fanin = 3, .adjacent_only = true});
  merger.addRun({0}, runOf({{"a", "0"}}));
  merger.addRun({1}, BufferView{});  // zero-length run
  merger.addRun({2}, runOf({{"a", "2"}, {"b", "2"}}));
  EXPECT_TRUE(merger.covers(1));
  ASSERT_TRUE(merger.foldOnce());
  EXPECT_EQ(merger.segmentCount(), 1u);
  EXPECT_EQ(merger.pendingRuns(), 0u);
  EXPECT_EQ(drainViews(merger.assemble()),
            (std::vector<KeyValue>{{"a", "0"}, {"a", "2"}, {"b", "2"}}));
}

TEST(IncrementalMergerTest, ReaddedCoverReplacesStalePendingRun) {
  // The same map delivered at two generations (re-execution landed between
  // fetch and merge): the second addRun must displace the stale bytes.
  IncrementalMerger merger({.fold_fanin = 8, .adjacent_only = true});
  merger.addRun({2}, runOf({{"k", "stale"}}));
  merger.addRun({2}, runOf({{"k", "fresh"}}));
  EXPECT_EQ(merger.pendingRuns(), 1u);
  EXPECT_EQ(drainViews(merger.assemble()),
            (std::vector<KeyValue>{{"k", "fresh"}}));
}

TEST(IncrementalMergerTest, InvalidateDissolvesSegmentAndReportsCollateral) {
  IncrementalMerger merger({.fold_fanin = 2, .adjacent_only = true});
  std::vector<BufferView> runs;
  for (uint32_t m = 0; m < 4; ++m) {
    runs.push_back(runOf({{"k" + std::to_string(m), std::to_string(m)}}));
    merger.addRun({m}, runs.back());
  }
  ASSERT_TRUE(merger.foldOnce());
  ASSERT_EQ(merger.segmentCount(), 1u);

  // Map 2 went stale: the whole segment dissolves and maps 0, 1, 3 are
  // collateral damage the caller must re-fetch.
  EXPECT_EQ(merger.invalidate(2), (std::vector<uint32_t>{0, 1, 3}));
  for (uint32_t m = 0; m < 4; ++m) EXPECT_FALSE(merger.covers(m));
  EXPECT_EQ(merger.heldBytes(), 0);

  for (uint32_t m = 0; m < 4; ++m) merger.addRun({m}, runs[m]);
  EXPECT_EQ(drainViews(merger.assemble()), drainViews(runs));
}

TEST(IncrementalMergerTest, AdjacentOnlyFoldRefusesGappedChains) {
  // {5, 6} is fold-eligible by size but {0..2} ∪ {5, 6} is not one block:
  // maps 3 and 4 could still arrive and canonically sort inside the gap.
  IncrementalMerger merger({.fold_fanin = 3, .adjacent_only = true});
  for (const uint32_t m : {0u, 1u, 2u, 5u, 6u}) {
    merger.addRun({m}, runOf({{"k" + std::to_string(m), "v"}}));
  }
  ASSERT_TRUE(merger.foldOnce());
  EXPECT_EQ(merger.segmentCount(), 1u);  // {0, 1, 2} folded...
  EXPECT_EQ(merger.pendingRuns(), 2u);   // ...{5}, {6} still pending
  EXPECT_FALSE(merger.foldOnce());       // and stay that way
}

TEST(IncrementalMergerTest, InnodeMembershipTopsUpWithDeltaCovers) {
  // In-node mode: a combined run fetched with membership-at-fetch-time
  // {0, 2, 4} is topped up later by delta covers {1, 3} and {5}; covers are
  // disjoint but not contiguous, so folds need adjacent_only = false.
  const std::vector<BufferView> runs{
      runOf({{"a", "024"}, {"c", "024"}}),  // combined, covers {0, 2, 4}
      runOf({{"a", "13"}, {"b", "13"}}),    // delta, covers {1, 3}
      runOf({{"b", "5"}}),                  // delta, covers {5}
  };
  IncrementalMerger merger({.fold_fanin = 2, .adjacent_only = false});
  merger.addRun({0, 2, 4}, runs[0]);
  merger.addRun({1, 3}, runs[1]);
  merger.addRun({5}, runs[2]);
  for (uint32_t m = 0; m < 6; ++m) EXPECT_TRUE(merger.covers(m));

  ASSERT_TRUE(merger.foldOnce());
  EXPECT_EQ(merger.segmentCount(), 1u);
  EXPECT_EQ(merger.pendingRuns(), 0u);
  // Canonical order is by lowest covered map, so the fold merges the runs
  // in exactly the order listed above.
  EXPECT_EQ(drainViews(merger.assemble()), drainViews(runs));
}

TEST(IncrementalMergerTest, AddRunIntersectingSegmentThrows) {
  IncrementalMerger merger({.fold_fanin = 2, .adjacent_only = true});
  merger.addRun({0}, runOf({{"a", "0"}}));
  merger.addRun({1}, runOf({{"b", "1"}}));
  ASSERT_TRUE(merger.foldOnce());
  EXPECT_THROW(merger.addRun({1}, runOf({{"b", "late"}})),
               InvalidArgumentError);
}

// ------------------------------------------------------ cluster behavior

Config fastConf() {
  Config conf = testutil::aggressiveTimers();
  conf.setInt("dfs.replication", 2);
  conf.setInt("dfs.blocksize", 512);
  conf.setInt("mapred.tasktracker.map.tasks.maximum", 1);
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

TEST(PipelinedShuffleTest, SlowstartOverlapsShuffleWithMapPhase) {
  // Slow maps + default slowstart (0.05): the reduce must launch while
  // most maps are still running, fetch their outputs as they complete, and
  // park in REDUCE_SHUFFLE_WAIT — all visible in the trace and counters.
  MiniMrCluster cluster({.num_nodes = 3, .conf = fastConf()});
  cluster.tracer().setEnabled(true);
  const std::string corpus = makeCorpus(150, 61);
  cluster.client().writeFile("/in/corpus.txt", corpus);

  const auto slow_mapper = mapperFromLambda(
      [](std::string_view, std::string_view value, TaskContext& ctx) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        for (const auto& w : splitWhitespace(value)) {
          ctx.emitTyped<std::string, int64_t>(toLowerAscii(w), 1);
        }
      });
  JobSpec spec = wordCountSpec({"/in"}, "/out", false, 1);
  spec.mapper = slow_mapper;
  const auto result = cluster.runJob(std::move(spec));
  ASSERT_TRUE(result.succeeded()) << result.error;
  HdfsFs fs(cluster.client());
  EXPECT_EQ(readCounts(fs, "/out"), referenceCounts(corpus));

  const auto status = cluster.jobTracker().listJobs().front();
  ASSERT_GE(status.maps_total, 4u);

  // Every map output was fetched by the pipelined path.
  using namespace counters;
  EXPECT_GE(result.counters.value(kShuffleGroup, kShufflePipelinedRuns),
            static_cast<int64_t>(status.maps_total));
  EXPECT_GT(result.counters.value(kShuffleGroup, kShufflePipelinedBytes), 0);

  // The reduce attempt started before the last map finished (overlap), and
  // parked at least once waiting for map-completion events.
  int64_t last_map_end = 0;
  int64_t reduce_start = -1;
  bool saw_wait_span = false;
  for (const auto& e : cluster.tracer().snapshot()) {
    if (e.trace_id != result.trace_id || !e.span) continue;
    const std::string_view name = e.name;
    if (name.rfind("MAP m", 0) == 0) {
      last_map_end = std::max(last_map_end, e.ts_us + e.dur_us);
    } else if (name.rfind("REDUCE_SHUFFLE_WAIT", 0) == 0) {
      saw_wait_span = true;
    } else if (name.rfind("REDUCE r", 0) == 0) {
      reduce_start = e.ts_us;
    }
  }
  ASSERT_GE(reduce_start, 0);
  EXPECT_LT(reduce_start, last_map_end);
  EXPECT_TRUE(saw_wait_span);

  // Overlap must not break the attribution invariant: phases still sum
  // exactly to the job's wall clock.
  const auto report =
      computeCriticalPath(cluster.tracer().snapshot(), result.trace_id);
  ASSERT_TRUE(report.found);
  int64_t sum = 0;
  for (const auto& p : report.phases) sum += p.micros;
  EXPECT_EQ(sum, report.total_us);

  // slowstart=1.0: the reduce launches with every location known and takes
  // the same path, fetching every run in its first round — one pipelined
  // run per map, and part files byte-identical to the overlapped run.
  JobSpec full = wordCountSpec({"/in"}, "/out-full", false, 1);
  full.mapper = slow_mapper;
  full.conf.setDouble("mapred.reduce.slowstart.completed.maps", 1.0);
  const auto full_result = cluster.runJob(std::move(full));
  ASSERT_TRUE(full_result.succeeded()) << full_result.error;
  EXPECT_EQ(full_result.counters.value(kShuffleGroup, kShufflePipelinedRuns),
            static_cast<int64_t>(status.maps_total));
  size_t parts = 0;
  for (const auto& file : fs.listFiles("/out")) {
    const std::string base = file.substr(file.find_last_of('/') + 1);
    if (base.rfind("part-", 0) != 0) continue;
    ++parts;
    const std::string twin = "/out-full/" + base;
    EXPECT_EQ(fs.readRange(twin, 0, fs.fileLength(twin)),
              fs.readRange(file, 0, fs.fileLength(file)))
        << base;
  }
  EXPECT_EQ(parts, 1u);
}

TEST(PipelinedShuffleTest, LostTrackerInvalidatesFetchedRunsAndRefetches) {
  // One straggler map keeps the map phase open while the pipelined reduce
  // fetches every other output; killing a tracker that served some of those
  // outputs must invalidate them (completion-feed events), force refetches,
  // and still finish with correct bytes.
  MiniMrCluster cluster({.num_nodes = 3, .conf = fastConf()});
  const std::string corpus = makeCorpus(150, 62);
  cluster.client().writeFile("/in/corpus.txt", corpus);

  static std::atomic<bool> straggler_taken{false};
  straggler_taken = false;
  JobSpec spec = wordCountSpec({"/in"}, "/out", false, 1);
  spec.mapper = mapperFromLambda(
      [](std::string_view, std::string_view value, TaskContext& ctx) {
        bool expected = false;
        if (straggler_taken.compare_exchange_strong(expected, true)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2500));
        }
        for (const auto& w : splitWhitespace(value)) {
          ctx.emitTyped<std::string, int64_t>(toLowerAscii(w), 1);
        }
      });
  const JobId id = cluster.jobTracker().submit(std::move(spec));
  const auto maps_total = cluster.jobTracker().status(id).maps_total;
  ASSERT_GE(maps_total, 4u);

  // Wait until the reduce (on tracker H) has fetched every non-straggler
  // output, then kill a different tracker that served at least one of them.
  std::string reduce_host, victim;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(2000);
  while (std::chrono::steady_clock::now() < deadline) {
    reduce_host.clear();
    for (const auto& host : cluster.trackerHosts()) {
      if (cluster.metrics()
              .child("tasktracker." + host)
              .counterValue("shuffle.pipelined.runs") >=
          static_cast<int64_t>(maps_total) - 1) {
        reduce_host = host;
        break;
      }
    }
    if (!reduce_host.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_FALSE(reduce_host.empty())
      << "pipelined reduce never fetched the non-straggler outputs";
  for (uint32_t m = 0; m < maps_total && victim.empty(); ++m) {
    const std::string host = cluster.jobTracker().mapLocation(id, m);
    if (!host.empty() && host != reduce_host) victim = host;
  }
  ASSERT_FALSE(victim.empty()) << "no fetched output on a killable tracker";
  cluster.killNode(victim);

  const auto result = cluster.jobTracker().wait(id);
  ASSERT_TRUE(result.succeeded()) << result.error;
  HdfsFs fs(cluster.client());
  EXPECT_EQ(readCounts(fs, "/out"), referenceCounts(corpus));
  EXPECT_GE(result.counters.value(counters::kShuffleGroup,
                                  counters::kShufflePipelinedRefetches),
            1);
}

}  // namespace
}  // namespace mh::mr
