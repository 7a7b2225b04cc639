#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "mh/common/error.h"
#include "mh/common/rng.h"
#include "mh/common/trace_analysis.h"
#include "mh/mr/merge.h"
#include "mh/mr/mini_mr_cluster.h"
#include "mh/mr/mr_wire.h"
#include "mh/net/fault_plan.h"
#include "merge_key_pools.h"
#include "mr_test_jobs.h"
#include "testutil/aggressive_timers.h"
#include "testutil/sanitizers.h"

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

  IncrementalMerger merger({.fold_fanin = 4});
  const uint32_t order[] = {3, 0, 7, 1, 9, 2, 8, 4, 6, 5};
  for (const uint32_t m : order) {
    merger.addRun({m}, runs[m]);
    if (merger.pendingRuns() >= 4) merger.foldOnce();
  }
  merger.foldOnce();
  EXPECT_GT(merger.segmentCount(), 0u);  // something actually folded
  EXPECT_EQ(drainViews(merger.assemble()), one_shot);
}

/// Every record of a merge over `views`, as its frames: the bytes a
/// one-shot merge would write.
Bytes mergedBytes(const std::vector<BufferView>& views) {
  KvRunMerger merger(std::vector<std::string_view>(views.begin(), views.end()));
  Bytes out;
  while (const auto frame = merger.nextFrame()) out.append(*frame);
  return out;
}

TEST(IncrementalMergerTest, AdversarialKeyFoldsMatchOneShotMergeByteForByte) {
  // Frame-copy folds over keys that tie on the 8-byte prefix and same-key
  // stretches split across maps: a fold of every run is the one-shot merge
  // itself, and folds at random times assemble to the same bytes.
  Rng rng(515);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t maps = 2 + rng.uniform(11);
    std::vector<BufferView> runs;
    for (Bytes& run : testkeys::adversarialRuns(rng, maps)) {
      runs.push_back(BufferView(Buffer::fromString(std::move(run))));
    }
    const Bytes one_shot = mergedBytes(runs);

    IncrementalMerger all({.fold_fanin = maps});
    for (uint32_t m = 0; m < maps; ++m) all.addRun({m}, runs[m]);
    ASSERT_TRUE(all.foldOnce());
    ASSERT_EQ(all.assemble().size(), 1u);
    EXPECT_EQ(all.assemble()[0].view(), one_shot) << "trial " << trial;

    const size_t fanin = 2 + rng.uniform(3);
    IncrementalMerger some({.fold_fanin = fanin});
    std::vector<uint32_t> order(maps);
    for (uint32_t m = 0; m < maps; ++m) order[m] = m;
    for (size_t i = maps - 1; i > 0; --i) {
      std::swap(order[i], order[rng.uniform(i + 1)]);
    }
    for (const uint32_t m : order) {
      some.addRun({m}, runs[m]);
      if (rng.chance(0.5)) some.foldOnce();
    }
    EXPECT_EQ(mergedBytes(some.assemble()), one_shot) << "trial " << trial;
  }
}

TEST(IncrementalMergerTest, MultiSegmentOutputsMergeInMapThenSpillOrder) {
  // Maps that ship several spill segments: one item per map output, folds
  // counted in items, and the assembled merge equal to a one-shot merge
  // over every segment in (map, spill) order, byte for byte.
  Rng rng(616);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t maps = 2 + rng.uniform(9);
    std::vector<std::vector<BufferView>> outputs(maps);
    std::vector<BufferView> in_order;
    for (auto& segments : outputs) {
      for (Bytes& run : testkeys::adversarialRuns(rng, 1 + rng.uniform(5))) {
        segments.push_back(BufferView(Buffer::fromString(std::move(run))));
        in_order.push_back(segments.back());
      }
    }
    const Bytes one_shot = mergedBytes(in_order);

    const size_t fanin = 2 + rng.uniform(3);
    IncrementalMerger merger({.fold_fanin = fanin});
    std::vector<uint32_t> order(maps);
    for (uint32_t m = 0; m < maps; ++m) order[m] = m;
    for (size_t i = maps - 1; i > 0; --i) {
      std::swap(order[i], order[rng.uniform(i + 1)]);
    }
    size_t added = 0;
    for (const uint32_t m : order) {
      merger.addSegments({m}, outputs[m]);
      ++added;
      if (merger.segmentCount() == 0) {
        // Nothing folded yet: every item is one map's output, however many
        // segments it holds, and folding needs `fanin` of them.
        EXPECT_EQ(merger.pendingRuns(), added) << "trial " << trial;
      }
      if (rng.chance(0.5)) merger.foldOnce();
    }
    EXPECT_EQ(mergedBytes(merger.assemble()), one_shot) << "trial " << trial;
  }
}

TEST(IncrementalMergerTest, FewerOutputsThanTheFaninNeverFold) {
  // bulk-wc's shape: 4 maps of 5 segments each are 4 items, below the
  // default fan-in of 8, so the reducer's only merge is the final one.
  IncrementalMerger merger({});
  for (uint32_t m = 0; m < 4; ++m) {
    std::vector<BufferView> segments;
    for (int s = 0; s < 5; ++s) {
      segments.push_back(
          runOf({{"k" + std::to_string(s), "m" + std::to_string(m)}}));
    }
    merger.addSegments({m}, std::move(segments));
  }
  EXPECT_EQ(merger.pendingRuns(), 4u);
  EXPECT_FALSE(merger.foldOnce());
  EXPECT_EQ(merger.assemble().size(), 20u);
}

TEST(IncrementalMergerTest, ZeroLengthRunsStillCoverTheirMaps) {
  // An empty partition is a legal map output: it must count toward
  // membership (covers) and fold away without disturbing its neighbors.
  IncrementalMerger merger({.fold_fanin = 3});
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

TEST(IncrementalMergerTest, ReaddedCoverIntersectingPendingRunThrows) {
  // A map succeeds again only after its invalidation event, so a cover
  // that meets a held item means the caller skipped invalidate(): an error,
  // for a pending run as for a folded segment, and the held run stays.
  IncrementalMerger merger({.fold_fanin = 8});
  merger.addRun({2}, runOf({{"k", "first"}}));
  EXPECT_THROW(merger.addRun({2}, runOf({{"k", "again"}})),
               InvalidArgumentError);
  EXPECT_THROW(merger.addRun({1, 2}, runOf({{"k", "host"}})),
               InvalidArgumentError);
  EXPECT_EQ(merger.pendingRuns(), 1u);
  EXPECT_EQ(drainViews(merger.assemble()),
            (std::vector<KeyValue>{{"k", "first"}}));
  merger.invalidate(2);
  merger.addRun({2}, runOf({{"k", "again"}}));
  EXPECT_EQ(drainViews(merger.assemble()),
            (std::vector<KeyValue>{{"k", "again"}}));
}

TEST(IncrementalMergerTest, HeapChargeEqualsHeldBytesAtEveryStep) {
  // The merger charges what it holds: an undecoded output at its whole
  // fetched buffer, segment table included (every segment is a slice of
  // it), separately decoded segments at their own buffers, a folded
  // segment at its size. After every add, fold and invalidation the net
  // charge equals heldBytes(), and evicting everything releases it all.
  int64_t charged = 0;
  IncrementalMerger merger(
      {.fold_fanin = 3, .heap = [&](int64_t delta) { charged += delta; }});
  const auto output = [](size_t segments, const std::string& tag) {
    std::vector<Bytes> runs;
    std::vector<std::string_view> views;
    for (size_t s = 0; s < segments; ++s) {
      runs.push_back(encodeKvRun({{"k" + std::to_string(s), tag}}));
    }
    for (const Bytes& run : runs) views.push_back(run);
    return BufferView(Buffer::fromString(joinSegments(views)));
  };
  int64_t expected = 0;
  const auto add = [&](uint32_t map, const BufferView& fetched) {
    merger.addSegments({map}, splitSegments(fetched));
    expected += static_cast<int64_t>(fetched.size());
    EXPECT_EQ(merger.heldBytes(), expected) << "map " << map;
    EXPECT_EQ(charged, merger.heldBytes()) << "map " << map;
  };
  add(0, output(1, "m0"));
  add(1, output(3, "m1"));
  add(2, output(1, "m2"));
  ASSERT_TRUE(merger.foldOnce());  // {0, 1, 2} fold into one segment
  EXPECT_EQ(merger.segmentCount(), 1u);
  // The segment holds the records alone: the three outputs' tables
  // (8 bytes per segment plus 8 for the count) went with their buffers.
  expected -= 8 * (2 + 4 + 2);
  EXPECT_EQ(merger.heldBytes(), expected);
  EXPECT_EQ(charged, merger.heldBytes());
  add(4, output(2, "m4"));
  add(5, output(1, "m5"));
  add(7, output(4, "m7"));
  // Two decoded segments: separate buffers, each counted whole.
  const std::vector<BufferView> decoded{runOf({{"a", "m6"}}),
                                        runOf({{"b", "m6"}})};
  merger.addSegments({6}, decoded);
  expected += static_cast<int64_t>(decoded[0].size() + decoded[1].size());
  EXPECT_EQ(merger.heldBytes(), expected);
  EXPECT_EQ(charged, merger.heldBytes());
  ASSERT_TRUE(merger.foldOnce());  // {4, 5, 6, 7} fold; map 3 never came
  EXPECT_EQ(merger.segmentCount(), 2u);
  EXPECT_EQ(charged, merger.heldBytes());
  for (uint32_t m = 0; m < 8; ++m) {
    merger.invalidate(m);
    EXPECT_EQ(charged, merger.heldBytes()) << "invalidate " << m;
  }
  EXPECT_EQ(merger.heldBytes(), 0);
  EXPECT_EQ(charged, 0);

  // What a merger still holds when it goes is released by its destructor.
  {
    IncrementalMerger held({.heap = [&](int64_t delta) { charged += delta; }});
    held.addSegments({0}, splitSegments(output(2, "late")));
    EXPECT_GT(charged, 0);
  }
  EXPECT_EQ(charged, 0);
}

TEST(IncrementalMergerTest, InvalidateDissolvesSegmentAndReportsCollateral) {
  IncrementalMerger merger({.fold_fanin = 2});
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
  IncrementalMerger merger({.fold_fanin = 3});
  for (const uint32_t m : {0u, 1u, 2u, 5u, 6u}) {
    merger.addRun({m}, runOf({{"k" + std::to_string(m), "v"}}));
  }
  ASSERT_TRUE(merger.foldOnce());
  EXPECT_EQ(merger.segmentCount(), 1u);  // {0, 1, 2} folded...
  EXPECT_EQ(merger.pendingRuns(), 2u);   // ...{5}, {6} still pending
  EXPECT_FALSE(merger.foldOnce());       // and stay that way
}

TEST(IncrementalMergerTest, InnodeMembershipTopsUpWithDeltaCovers) {
  // In-node mode: each host's run covers an interleaved map set — {0, 2, 4}
  // and {1, 3} — next to a single-map cover {5}. A cover with a hole never
  // folds (a later cover could canonically sort inside it), so the
  // interleaved covers stay unfolded even at fan-in 2, and assembly emits
  // every item by its lowest covered map.
  const std::vector<BufferView> runs{
      runOf({{"a", "024"}, {"c", "024"}}),  // host run, covers {0, 2, 4}
      runOf({{"a", "13"}, {"b", "13"}}),    // host run, covers {1, 3}
      runOf({{"b", "5"}}),                  // single map, covers {5}
  };
  IncrementalMerger merger({.fold_fanin = 2});
  merger.addRun({5}, runs[2]);
  merger.addRun({1, 3}, runs[1]);
  merger.addRun({0, 2, 4}, runs[0]);
  for (uint32_t m = 0; m < 6; ++m) EXPECT_TRUE(merger.covers(m));

  EXPECT_FALSE(merger.foldOnce());
  EXPECT_EQ(merger.segmentCount(), 0u);
  EXPECT_EQ(merger.pendingRuns(), 3u);
  // Canonical order is by lowest covered map: the runs as listed above,
  // whatever order they arrived in.
  const std::vector<BufferView> assembled = merger.assemble();
  ASSERT_EQ(assembled.size(), runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(std::string_view(assembled[i]), std::string_view(runs[i])) << i;
  }
}

TEST(IncrementalMergerTest, AddRunIntersectingSegmentThrows) {
  IncrementalMerger merger({.fold_fanin = 2});
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
  const auto parts = readPartFiles(fs, "/out");
  EXPECT_EQ(parts.size(), 1u);
  EXPECT_EQ(readPartFiles(fs, "/out-full"), parts);
}

TEST(PipelinedShuffleTest, LostTrackerInvalidatesFetchedRunsAndRefetches) {
  // One straggler map keeps the map phase open while the pipelined reduce
  // fetches every other output; killing a tracker that served some of those
  // outputs must invalidate them (completion-feed events), force refetches,
  // and still finish with correct bytes. The evicted outputs must also
  // leave the reduce's heap charge, or each refetch is charged twice.
  MiniMrCluster cluster({.num_nodes = 3, .conf = fastConf()});
  const std::string corpus = makeCorpus(150, 62);
  cluster.client().writeFile("/in/corpus.txt", corpus);

  static std::atomic<bool> straggler_taken{false};
  straggler_taken = false;
  // The reducer samples its tracker's heap charge on its first call: every
  // map has finished by then, so the charge is the shuffle's alone.
  static std::atomic<TaskTracker*> reduce_tracker{nullptr};
  static std::atomic<int64_t> heap_while_reducing{-1};
  reduce_tracker = nullptr;
  heap_while_reducing = -1;
  JobSpec spec = wordCountSpec({"/in"}, "/out", false, 1);
  spec.reducer = reducerFromLambda(
      [](std::string_view key, ValuesIterator& values, TaskContext& ctx) {
        if (heap_while_reducing.load() == -1) {
          const TaskTracker* tracker = reduce_tracker.load();
          heap_while_reducing = tracker != nullptr ? tracker->heapUsed() : -2;
        }
        SumReducer().reduce(key, values, ctx);
      });
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
  reduce_tracker = &cluster.taskTracker(reduce_host);
  cluster.killNode(victim);

  const auto result = cluster.jobTracker().wait(id);
  ASSERT_TRUE(result.succeeded()) << result.error;
  HdfsFs fs(cluster.client());
  EXPECT_EQ(readCounts(fs, "/out"), referenceCounts(corpus));
  EXPECT_GE(result.counters.value(counters::kShuffleGroup,
                                  counters::kShufflePipelinedRefetches),
            1);
  // SHUFFLE_BYTES counts each refetched output twice, once per arrival;
  // the reduce holds only the second copy, so its charge must stay below.
  ASSERT_GT(heap_while_reducing.load(), 0);
  EXPECT_LT(heap_while_reducing.load(),
            result.counters.value(counters::kShuffleGroup,
                                  counters::kShuffleBytes));
}

TEST(PipelinedShuffleTest, FetchFailureFailsTheAttemptBlamingOneMap) {
  // The reduce's intake is the one place a failed fetch becomes an
  // attempt-level error: "fetch-failure host=<h> map=<i>: <cause>", the
  // shape the JobTracker parses to re-execute map i. One tracker, one
  // fetch at a time, no retries: the first two getMapOutput calls fail,
  // so the first attempt fails, blaming one of the two maps, and only that
  // map re-runs before the next attempt succeeds.
  Config conf = fastConf();
  conf.setInt("dfs.replication", 1);
  conf.setInt("mapred.shuffle.fetch.retries", 1);
  conf.setInt("mapred.reduce.parallel.copies", 1);
  MiniMrCluster cluster({.num_nodes = 1, .conf = conf});
  cluster.tracer().setEnabled(true);
  const std::string corpus = makeCorpus(150, 63);
  cluster.client().writeFile("/in/corpus.txt", corpus);
  auto plan = std::make_shared<net::FaultPlan>(5);
  plan->addRule({.match = {.method = "getMapOutput"},
                 .action = net::FaultAction::kError,
                 .probability = 1.0,
                 .max_fires = 2});
  cluster.network()->setFaultPlan(plan);

  JobSpec spec = wordCountSpec({"/in"}, "/out", false, 1);
  spec.conf.setDouble("mapred.reduce.slowstart.completed.maps", 1.0);
  const auto result = cluster.runJob(std::move(spec));
  ASSERT_TRUE(result.succeeded()) << result.error;
  EXPECT_EQ(plan->injectedFaults(), 2u);
  HdfsFs fs(cluster.client());
  EXPECT_EQ(readCounts(fs, "/out"), referenceCounts(corpus));
  const uint32_t maps_total = cluster.jobTracker().listJobs().front().maps_total;
  ASSERT_GE(maps_total, 2u);

  const std::string host = cluster.trackerHosts().front();
  std::vector<std::string> errors;
  std::vector<uint32_t> rerun_maps;
  for (const auto& e : cluster.tracer().snapshot()) {
    if (e.trace_id != result.trace_id) continue;
    if (e.name.rfind("ATTEMPT_FAIL r0", 0) == 0) {
      for (const auto& [key, value] : e.args) {
        if (key == "error") errors.push_back(value);
      }
    }
    uint32_t map = 0;
    if (e.span && std::sscanf(e.name.c_str(), "MAP m%u a1", &map) == 1 &&
        e.name.ends_with(" a1")) {
      rerun_maps.push_back(map);
    }
  }
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("fetch-failure host=" + host + " map="),
            std::string::npos)
      << errors[0];
  const std::optional<FetchFailure> failure = parseFetchFailure(errors[0]);
  ASSERT_TRUE(failure.has_value()) << errors[0];
  EXPECT_EQ(failure->host, host);
  EXPECT_LT(failure->map_index, maps_total);
  EXPECT_EQ(rerun_maps, std::vector<uint32_t>{failure->map_index});
}

// ------------------------------------------------ slowstart wall clock

constexpr uint32_t kPacedReducers = 2;

struct PacedShuffleRun {
  JobResult result;
  uint32_t maps_total = 0;
  double shuffle_share = 0.0;  ///< of the critical-path wall clock
  std::map<std::string, Bytes> parts;
};

/// A slow-map zipfian WordCount on links paced at 512 KiB/s with one fetch
/// copy per reducer, so the shuffle is a visible phase (as on a congested
/// link). Both runs share every knob but `slowstart`, which alone decides
/// whether the shuffle runs under the map phase or after it.
PacedShuffleRun runPacedShuffle(double slowstart, const std::string& corpus) {
  Config conf;
  conf.setInt("dfs.replication", 2);
  conf.setInt("dfs.blocksize", 2048);
  conf.setInt("mapred.tasktracker.map.tasks.maximum", 1);
  conf.setInt("mapred.tasktracker.heartbeat.ms", 10);
  conf.setInt("mapred.jobtracker.monitor.interval.ms", 10);
  conf.setInt("mapred.reduce.parallel.copies", 1);
  conf.setDouble("mapred.reduce.slowstart.completed.maps", slowstart);
  MiniMrCluster cluster({.num_nodes = 3, .conf = conf});
  cluster.network()->setBandwidthBytesPerSec(512 * 1024);
  cluster.tracer().setEnabled(true);
  cluster.client().writeFile("/in/corpus.txt", corpus);

  // ~0.6 ms of "compute" per line keeps the map phase long enough to hide
  // the shuffle. 64 B of padding per token makes the shuffle ~1 MB; the
  // reducer only counts, so the output stays tiny.
  JobSpec spec;
  spec.name = "zipf-wordcount";
  spec.input_paths = {"/in"};
  spec.output_dir = "/out";
  spec.num_reducers = kPacedReducers;
  spec.mapper = mapperFromLambda(
      [](std::string_view, std::string_view value, TaskContext& ctx) {
        static const std::string kPad(64, 'x');
        std::this_thread::sleep_for(std::chrono::microseconds(600));
        for (const auto& w : splitWhitespace(value)) {
          ctx.emit(Bytes(w), Bytes(kPad));
        }
      });
  spec.reducer = reducerFromLambda(
      [](std::string_view key, ValuesIterator& values, TaskContext& ctx) {
        int64_t count = 0;
        while (values.next()) ++count;
        ctx.emitTyped<std::string, std::string>(std::string(key),
                                                std::to_string(count));
      });

  PacedShuffleRun run;
  run.result = cluster.runJob(std::move(spec));
  if (!run.result.succeeded()) return run;
  run.maps_total = cluster.jobTracker().listJobs().front().maps_total;
  const auto path =
      computeCriticalPath(cluster.tracer().snapshot(), run.result.trace_id);
  int64_t phase_sum = 0;
  for (const auto& p : path.phases) phase_sum += p.micros;
  EXPECT_TRUE(path.found);
  EXPECT_EQ(phase_sum, path.total_us) << "phases must partition wall clock";
  if (path.total_us > 0) {
    run.shuffle_share = static_cast<double>(path.phaseMicros("shuffle")) /
                        static_cast<double>(path.total_us);
  }
  HdfsFs fs(cluster.client());
  run.parts = readPartFiles(fs, "/out");
  return run;
}

TEST(PipelinedShuffleSpeedupTest, EarlyReducesHidePacedShuffleUnderSlowMaps) {
  const std::string corpus = zipfCorpus(2000, 17);
  const PacedShuffleRun serial = runPacedShuffle(1.0, corpus);
  const PacedShuffleRun overlapped = runPacedShuffle(0.05, corpus);
  ASSERT_TRUE(serial.result.succeeded()) << serial.result.error;
  ASSERT_TRUE(overlapped.result.succeeded()) << overlapped.result.error;

  EXPECT_EQ(serial.parts.size(), kPacedReducers);
  EXPECT_EQ(overlapped.parts, serial.parts);
  // Both runs fold every map's run through the one reduce-shuffle path.
  using namespace counters;
  const int64_t runs_expected =
      static_cast<int64_t>(serial.maps_total) * kPacedReducers;
  for (const PacedShuffleRun* run : {&serial, &overlapped}) {
    EXPECT_GE(run->result.counters.value(kShuffleGroup, kShufflePipelinedRuns),
              runs_expected);
  }
  EXPECT_GT(overlapped.result.counters.value(kShuffleGroup,
                                             kShufflePipelinedBytes),
            0);

  if (testutil::kSanitized) {
    GTEST_SKIP() << "wall-clock bounds are not checked in sanitizer builds";
  }
  EXPECT_LT(overlapped.shuffle_share, serial.shuffle_share);
  const double speedup = static_cast<double>(serial.result.elapsed_millis) /
                         static_cast<double>(overlapped.result.elapsed_millis);
  EXPECT_GE(speedup, 1.3) << serial.result.elapsed_millis << " ms at slowstart "
                          << "1.0 vs " << overlapped.result.elapsed_millis
                          << " ms at 0.05";
}

}  // namespace
}  // namespace mh::mr
