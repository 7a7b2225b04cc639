#include "mh/mr/merge.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "mh/common/error.h"
#include "mh/common/rng.h"
#include "merge_key_pools.h"

namespace mh::mr {
namespace {

std::vector<std::string_view> viewsOf(const std::vector<Bytes>& runs) {
  return {runs.begin(), runs.end()};
}

/// Drains the merger into (key, value) pairs, one per record.
std::vector<KeyValue> drain(KvRunMerger& merger) {
  std::vector<KeyValue> out;
  while (merger.nextGroup()) {
    while (const auto value = merger.values().next()) {
      out.push_back({Bytes(merger.key()), Bytes(*value)});
    }
  }
  return out;
}

/// Drains the merger frame by frame into one run.
Bytes drainFrames(KvRunMerger& merger) {
  Bytes out;
  while (const auto frame = merger.nextFrame()) out.append(*frame);
  return out;
}

/// The old reduce merge: concatenate in run order, stable-sort by key.
std::vector<KeyValue> concatResort(const std::vector<Bytes>& runs) {
  std::vector<KeyValue> records;
  for (const Bytes& run : runs) {
    for (auto& kv : decodeKvRun(run)) records.push_back(std::move(kv));
  }
  std::stable_sort(
      records.begin(), records.end(),
      [](const KeyValue& a, const KeyValue& b) { return a.key < b.key; });
  return records;
}

TEST(KvRunMergerTest, MergesRunsInKeyOrder) {
  const std::vector<Bytes> runs{
      encodeKvRun({{"apple", "1"}, {"cherry", "2"}, {"fig", "3"}}),
      encodeKvRun({{"banana", "4"}, {"cherry", "5"}}),
      encodeKvRun({{"apple", "6"}, {"grape", "7"}}),
  };
  KvRunMerger merger(viewsOf(runs));
  EXPECT_EQ(merger.segmentCount(), 3u);
  EXPECT_EQ(drain(merger), concatResort(runs));
  EXPECT_EQ(merger.recordsRead(), 7);
}

TEST(KvRunMergerTest, DuplicateKeysAcrossRunsPreserveRunOrder) {
  // Same key everywhere: values must come out in run order, and within one
  // run in record order — Hadoop's stable merge contract.
  const std::vector<Bytes> runs{
      encodeKvRun({{"k", "run0-a"}, {"k", "run0-b"}}),
      encodeKvRun({{"k", "run1-a"}}),
      encodeKvRun({{"k", "run2-a"}, {"k", "run2-b"}}),
  };
  KvRunMerger merger(viewsOf(runs));
  ASSERT_TRUE(merger.nextGroup());
  EXPECT_EQ(merger.key(), "k");
  std::vector<Bytes> values;
  while (const auto v = merger.values().next()) values.emplace_back(*v);
  EXPECT_EQ(values, (std::vector<Bytes>{"run0-a", "run0-b", "run1-a",
                                        "run2-a", "run2-b"}));
  EXPECT_FALSE(merger.nextGroup());
}

TEST(KvRunMergerTest, EmptyRunsAreSkipped) {
  const std::vector<Bytes> runs{
      Bytes{},
      encodeKvRun({{"a", "1"}}),
      Bytes{},
      encodeKvRun({{"b", "2"}}),
      Bytes{},
  };
  KvRunMerger merger(viewsOf(runs));
  EXPECT_EQ(merger.segmentCount(), 2u);
  EXPECT_EQ(drain(merger), (std::vector<KeyValue>{{"a", "1"}, {"b", "2"}}));
}

TEST(KvRunMergerTest, ZeroRunsYieldNoGroups) {
  // A reduce can legitimately receive no runs at all — e.g. after a chaos
  // re-execution leaves a partition with zero map outputs.
  const std::vector<Bytes> runs;
  KvRunMerger merger(viewsOf(runs));
  EXPECT_EQ(merger.segmentCount(), 0u);
  EXPECT_FALSE(merger.nextGroup());
  EXPECT_FALSE(merger.nextGroup());  // idempotent at end
  EXPECT_EQ(merger.recordsRead(), 0);
}

TEST(KvRunMergerTest, ManyAllEmptyRunsYieldNoGroups) {
  const std::vector<Bytes> runs(17, Bytes{});
  KvRunMerger merger(viewsOf(runs));
  EXPECT_EQ(merger.segmentCount(), 0u);
  EXPECT_FALSE(merger.nextGroup());
  EXPECT_EQ(merger.recordsRead(), 0);
}

TEST(KvRunMergerTest, SingleNonEmptyRunAmongEmptiesStreamsVerbatim) {
  const std::vector<KeyValue> records{{"k1", "v1"}, {"k2", "v2"}};
  std::vector<Bytes> runs(5, Bytes{});
  runs[2] = encodeKvRun(records);
  KvRunMerger merger(viewsOf(runs));
  EXPECT_EQ(merger.segmentCount(), 1u);
  EXPECT_EQ(drain(merger), records);
  EXPECT_EQ(merger.recordsRead(), 2);
}

TEST(KvRunMergerTest, AllRunsEmptyYieldsNoGroups) {
  const std::vector<Bytes> runs{Bytes{}, Bytes{}};
  KvRunMerger merger(viewsOf(runs));
  EXPECT_EQ(merger.segmentCount(), 0u);
  EXPECT_FALSE(merger.nextGroup());
  EXPECT_EQ(merger.recordsRead(), 0);
}

TEST(KvRunMergerTest, SingleRunFastPathStreamsVerbatim) {
  const std::vector<KeyValue> records{
      {"a", "1"}, {"a", "2"}, {"b", "3"}, {"c", ""}};
  const std::vector<Bytes> runs{encodeKvRun(records)};
  KvRunMerger merger(viewsOf(runs));
  EXPECT_EQ(merger.segmentCount(), 1u);
  EXPECT_EQ(drain(merger), records);
}

TEST(KvRunMergerTest, UnconsumedValuesAreSkippedOnNextGroup) {
  const std::vector<Bytes> runs{
      encodeKvRun({{"a", "1"}, {"a", "2"}, {"b", "3"}}),
      encodeKvRun({{"a", "4"}, {"c", "5"}}),
  };
  KvRunMerger merger(viewsOf(runs));
  ASSERT_TRUE(merger.nextGroup());
  EXPECT_EQ(merger.key(), "a");  // leave all of "a"'s values unread
  ASSERT_TRUE(merger.nextGroup());
  EXPECT_EQ(merger.key(), "b");
  EXPECT_EQ(merger.values().next(), "3");
  ASSERT_TRUE(merger.nextGroup());
  EXPECT_EQ(merger.key(), "c");
  EXPECT_FALSE(merger.nextGroup());
  EXPECT_EQ(merger.recordsRead(), 5);  // skipped values still count
}

TEST(KvRunMergerTest, TornFrameInFirstRecordThrowsAtConstruction) {
  Bytes torn = encodeKvRun({{"key", "value"}});
  torn.resize(torn.size() - 2);
  EXPECT_THROW(KvRunMerger({std::string_view(torn)}), InvalidArgumentError);
}

TEST(KvRunMergerTest, TornFrameMidRunPropagatesThroughIteration) {
  Bytes torn = encodeKvRun({{"a", "1"}, {"z", "2"}});
  torn.resize(torn.size() - 1);
  const Bytes good = encodeKvRun({{"m", "3"}});
  KvRunMerger merger({std::string_view(torn), std::string_view(good)});
  ASSERT_TRUE(merger.nextGroup());
  EXPECT_EQ(merger.key(), "a");
  // Consuming "a" advances the torn run onto the broken frame.
  EXPECT_THROW(drain(merger), InvalidArgumentError);
}

TEST(KvRunMergerTest, RandomizedMergeMatchesConcatResortProperty) {
  Rng rng(1234);
  for (int trial = 0; trial < 25; ++trial) {
    const size_t k = 1 + rng.uniform(9);
    std::vector<Bytes> runs;
    for (size_t r = 0; r < k; ++r) {
      std::vector<KeyValue> records;
      const size_t n = rng.uniform(60);
      for (size_t i = 0; i < n; ++i) {
        records.push_back({"key" + std::to_string(rng.uniform(20)),
                           "r" + std::to_string(r) + "#" + std::to_string(i)});
      }
      std::stable_sort(
          records.begin(), records.end(),
          [](const KeyValue& a, const KeyValue& b) { return a.key < b.key; });
      runs.push_back(encodeKvRun(records));
    }
    KvRunMerger merger(viewsOf(runs));
    EXPECT_EQ(drain(merger), concatResort(runs)) << "trial " << trial;
  }
}

TEST(KvRunMergerTest, RandomizedAdversarialKeysMatchConcatResortProperty) {
  // Keys that tie on the 8-byte prefix, embedded NUL and 0xFF bytes, and
  // same-key stretches split across runs: groups and frames must both
  // reproduce the concatenate-and-stable-sort oracle exactly.
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<Bytes> runs =
        testkeys::adversarialRuns(rng, 1 + rng.uniform(9));
    const std::vector<KeyValue> oracle = concatResort(runs);

    KvRunMerger groups(viewsOf(runs));
    EXPECT_EQ(drain(groups), oracle) << "trial " << trial;

    KvRunMerger frames(viewsOf(runs));
    EXPECT_EQ(drainFrames(frames), encodeKvRun(oracle)) << "trial " << trial;
    EXPECT_EQ(frames.recordsRead(), static_cast<int64_t>(oracle.size()));
  }
}

TEST(KvRunMergerTest, GroupEndingAtRunEndHandsOverToTheNextRun) {
  // Run 0's last records share the group key, so the replay is skipped
  // until the cursor runs dry; the exhausted cursor must then yield to run
  // 1, which continues the same group before moving on.
  const std::vector<Bytes> runs{
      encodeKvRun({{"k", "0a"}, {"k", "0b"}}),
      encodeKvRun({{"k", "1a"}, {"z", "1b"}}),
      encodeKvRun({{"m", "2a"}}),
  };
  KvRunMerger merger(viewsOf(runs));
  ASSERT_TRUE(merger.nextGroup());
  EXPECT_EQ(merger.key(), "k");
  std::vector<Bytes> values;
  while (const auto v = merger.values().next()) values.emplace_back(*v);
  EXPECT_EQ(values, (std::vector<Bytes>{"0a", "0b", "1a"}));
  ASSERT_TRUE(merger.nextGroup());
  EXPECT_EQ(merger.key(), "m");
  ASSERT_TRUE(merger.nextGroup());
  EXPECT_EQ(merger.key(), "z");
  EXPECT_FALSE(merger.nextGroup());

  KvRunMerger frames(viewsOf(runs));
  EXPECT_EQ(drainFrames(frames), encodeKvRun(concatResort(runs)));

  // One run whose only group runs to its end: no tree, and the group
  // closes when the cursor is exhausted.
  const std::vector<Bytes> single{encodeKvRun({{"a", "1"}, {"a", "2"}})};
  KvRunMerger solo(viewsOf(single));
  EXPECT_EQ(drain(solo), (std::vector<KeyValue>{{"a", "1"}, {"a", "2"}}));
  EXPECT_FALSE(solo.nextGroup());
}

TEST(KvRunMergerTest, TornFrameMidRunThrowsFromNextFrame) {
  Bytes torn = encodeKvRun({{"a", "1"}, {"a", "2"}});
  torn.resize(torn.size() - 1);
  const Bytes good = encodeKvRun({{"m", "3"}});
  KvRunMerger merger({std::string_view(torn), std::string_view(good)});
  EXPECT_THROW(drainFrames(merger), InvalidArgumentError);
}

}  // namespace
}  // namespace mh::mr
