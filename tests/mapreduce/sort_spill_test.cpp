#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <numeric>

#include "mh/common/rng.h"
#include "mh/mr/kv_stream.h"
#include "mh/mr/local_runner.h"
#include "mh/mr/map_output_buffer.h"
#include "mh/mr/task_runner.h"
#include "mr_test_jobs.h"

/// Map-side sort & spill under a tiny io.sort.mb budget: multiple spills,
/// byte-identical output vs the single-spill path, Hadoop-faithful counter
/// growth, and a bounded collect working set on the heap gauge.

namespace mh::mr {
namespace {

namespace stdfs = std::filesystem;
using namespace testjobs;
using namespace counters;

class SortSpillTest : public ::testing::Test {
 protected:
  SortSpillTest() {
    root_ = stdfs::temp_directory_path() /
            ("mh_spill_" + std::to_string(::getpid()));
    stdfs::remove_all(root_);
    // Splits far larger than any corpus here: every input file is exactly
    // one map task, so all spill pressure lands in a single buffer.
    local_ = std::make_unique<LocalFs>(8ull << 20);
  }
  ~SortSpillTest() override { stdfs::remove_all(root_); }

  std::string p(const std::string& name) { return (root_ / name).string(); }

  std::string makeCorpus(int lines, uint64_t seed) {
    static const char* kWords[] = {"the", "quick", "brown", "fox",
                                   "jumps", "over", "lazy", "dog"};
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

  /// Raw bytes of every part file under `dir`, in name order.
  std::vector<Bytes> partFileBytes(const std::string& dir) {
    std::vector<std::string> files = local_->listFiles(dir);
    std::sort(files.begin(), files.end());
    std::vector<Bytes> parts;
    for (const auto& f : files) {
      if (f.find("part-") == std::string::npos) continue;
      parts.push_back(local_->readRange(f, 0, local_->fileLength(f)));
    }
    return parts;
  }

  stdfs::path root_;
  std::unique_ptr<LocalFs> local_;
};

/// Squeeze a corpus through tiny spill thresholds (io.sort.mb=1 at 20% and
/// at 5%): the task spills several times yet commits byte-for-byte the same
/// part files as the default single-spill configuration. A combiner-less
/// map ships its spill segments unmerged — at 2-10 spills and at more than
/// 10 (Hadoop's io.sort.factor default) alike — so every record is written
/// once and the reducer merges every segment.
TEST_F(SortSpillTest, TinySortBudgetSpillsRepeatedlyWithIdenticalOutput) {
  const std::string corpus = makeCorpus(4000, 42);
  local_->writeFile(p("in.txt"), corpus);
  LocalJobRunner runner(*local_);

  const auto roomy_result =
      runner.run(wordCountSpec({p("in.txt")}, p("out_roomy"), false, 3));
  ASSERT_TRUE(roomy_result.succeeded()) << roomy_result.error;
  EXPECT_EQ(roomy_result.counters.value(kTaskGroup, kMapSpills), 1);
  const auto map_out =
      roomy_result.counters.value(kTaskGroup, kMapOutputRecords);
  EXPECT_EQ(roomy_result.counters.value(kTaskGroup, kSpilledRecords), map_out);
  const auto roomy_parts = partFileBytes(p("out_roomy"));
  ASSERT_EQ(roomy_parts.size(), 3u);

  for (const bool many : {false, true}) {
    SCOPED_TRACE(many ? "more than 10 spills" : "2-10 spills");
    const std::string out = p(many ? "out_many" : "out_few");
    auto tiny = wordCountSpec({p("in.txt")}, out, false, 3);
    tiny.conf.setInt("io.sort.mb", 1);
    tiny.conf.setDouble("io.sort.spill.percent", many ? 0.05 : 0.2);

    // The map's shipped output, segment counts per partition.
    tiny.validateAndDefault();
    const auto splits = local_->splitsForFile(p("in.txt"));
    ASSERT_EQ(splits.size(), 1u);
    const auto map = runMapTask(tiny, *local_, splits[0]);
    std::vector<size_t> segments;
    for (const Bytes& output : map.partitions) {
      segments.push_back(splitSegments(output).size());
    }
    const auto shipped = static_cast<int64_t>(
        std::accumulate(segments.begin(), segments.end(), size_t{0}));

    const auto result = runner.run(std::move(tiny));
    ASSERT_TRUE(result.succeeded()) << result.error;
    const auto spills = result.counters.value(kTaskGroup, kMapSpills);
    const auto spilled = result.counters.value(kTaskGroup, kSpilledRecords);
    ASSERT_EQ(result.counters.value(kTaskGroup, kMapOutputRecords), map_out);
    if (many) {
      EXPECT_GT(spills, 10);
    } else {
      EXPECT_GE(spills, 2);
      EXPECT_LE(spills, 10);
    }
    EXPECT_EQ(spilled, map_out);
    for (const size_t n : segments) {
      EXPECT_GE(n, 2u);
      EXPECT_LE(n, static_cast<size_t>(spills));
    }
    // The reducers merged exactly the segments the map shipped.
    EXPECT_EQ(result.counters.value(kTaskGroup, kMergeSegments), shipped);

    EXPECT_EQ(partFileBytes(out), roomy_parts);
    EXPECT_EQ(readCounts(*local_, out), referenceCounts(corpus));
  }
}

/// With a combiner, every spill runs its own combine pass and the final
/// merge combines once more — so COMBINE_INPUT_RECORDS grows with the spill
/// count while the answers stay identical.
TEST_F(SortSpillTest, CombineInputGrowsWithSpillCount) {
  const std::string corpus = makeCorpus(2000, 7);
  local_->writeFile(p("in.txt"), corpus);
  LocalJobRunner runner(*local_);

  auto multi = wordCountSpec({p("in.txt")}, p("out_multi"), true);
  multi.conf.setInt("io.sort.mb", 1);
  multi.conf.setDouble("io.sort.spill.percent", 0.05);
  auto single = wordCountSpec({p("in.txt")}, p("out_single"), true);

  const auto multi_result = runner.run(std::move(multi));
  const auto single_result = runner.run(std::move(single));
  ASSERT_TRUE(multi_result.succeeded()) << multi_result.error;
  ASSERT_TRUE(single_result.succeeded()) << single_result.error;

  ASSERT_GE(multi_result.counters.value(kTaskGroup, kMapSpills), 3);
  ASSERT_EQ(single_result.counters.value(kTaskGroup, kMapSpills), 1);

  // Single spill: the combiner sees each map output record exactly once.
  // Multi spill: per-spill combines see them all, then the final merge's
  // combine pass re-reads the per-spill survivors.
  const auto map_out = single_result.counters.value(kTaskGroup,
                                                    kMapOutputRecords);
  EXPECT_EQ(single_result.counters.value(kTaskGroup, kCombineInputRecords),
            map_out);
  EXPECT_GT(multi_result.counters.value(kTaskGroup, kCombineInputRecords),
            map_out);

  EXPECT_EQ(readCounts(*local_, p("out_multi")),
            readCounts(*local_, p("out_single")));
}

/// The collect working set is bounded by io.sort.mb regardless of input
/// size: drive one map task whose raw emissions far exceed the budget and
/// watch the heap gauge. (The combiner keeps retained spill runs tiny, so
/// the peak is dominated by the arena + index the budget governs.)
TEST_F(SortSpillTest, HeapPeakStaysNearSortBudgetNotInputSize) {
  const std::string corpus = makeCorpus(32000, 99);  // ~144K words
  local_->writeFile(p("in.txt"), corpus);

  JobSpec spec = wordCountSpec({p("in.txt")}, p("out"), true);
  spec.conf.setInt("io.sort.mb", 1);  // threshold = 80% of 1 MiB
  spec.validateAndDefault();

  int64_t cur = 0, peak = 0;
  auto heap = [&](int64_t delta) {
    cur += delta;
    peak = std::max(peak, cur);
  };

  const auto splits = local_->splitsForFile(p("in.txt"));
  ASSERT_EQ(splits.size(), 1u);
  const auto result = runMapTask(spec, *local_, splits[0], heap);

  // The task really was much bigger than the budget (records cost their
  // key+value bytes plus two varint length bytes, a 16-byte index entry and
  // its 16-byte radix-buffer slot in the buffer)...
  const auto arena_volume =
      result.counters.value(kTaskGroup, kMapOutputBytes) +
      result.counters.value(kTaskGroup, kMapOutputRecords) * 34;
  ASSERT_GT(arena_volume, 2 * (1 << 20));
  ASSERT_GE(result.counters.value(kTaskGroup, kMapSpills), 3);

  // ...yet the charged peak stays near the budget (2x covers vector
  // capacity doubling), nowhere near the unspilled working set.
  EXPECT_LT(peak, 2 * (1 << 20));
  EXPECT_LT(peak, arena_volume / 2);
  // Everything charged during the task was released with the buffer.
  EXPECT_EQ(cur, 0);
}

/// Every sort buffer is on the heap gauge: once a spill has run, the charge
/// covers the arena, the index, the radix sort's second buffer and the
/// retained run, and all of it is released with the buffer.
TEST_F(SortSpillTest, ChargeCoversSortBuffersAndRetainedRuns) {
  JobSpec spec = wordCountSpec({p("in.txt")}, p("out"));
  spec.conf.setInt("io.sort.mb", 1);
  spec.conf.setDouble("io.sort.spill.percent", 0.05);

  int64_t cur = 0;
  {
    Counters counters;
    MapOutputBuffer buffer(spec, counters, [&](int64_t delta) { cur += delta; },
                           nullptr, nullptr, {});
    // Collect until the first spill; it takes the records collected before
    // the call that triggered it.
    Bytes frames;  // kv_stream frames of the records collected so far
    int64_t records = 0;
    int64_t spilled_records = 0;
    size_t spilled_bytes = 0;
    int64_t charge_before = 0;
    while (buffer.spillCount() == 0) {
      spilled_records = records;
      spilled_bytes = frames.size();
      charge_before = buffer.chargedBytes();
      const std::string key = "key" + std::to_string(records++);
      KvWriter(frames).write(key, "1");
      buffer.collect(key, "1", 0);
    }
    ASSERT_GT(spilled_records, 1000);
    constexpr int64_t kEntry = 16;
    // The spill sized the radix buffer to the batch and retained its run.
    EXPECT_GE(buffer.chargedBytes() - charge_before,
              kEntry * spilled_records + static_cast<int64_t>(spilled_bytes));
    // Arena and index hold their capacity for the next batch.
    EXPECT_GE(buffer.chargedBytes(),
              2 * kEntry * spilled_records +
                  2 * static_cast<int64_t>(spilled_bytes));
    EXPECT_EQ(cur, buffer.chargedBytes());

    const auto runs = buffer.finish();
    ASSERT_EQ(runs.size(), 1u);
    // Only an empty arena's inline capacity is left charged...
    EXPECT_LE(buffer.chargedBytes(),
              static_cast<int64_t>(Bytes().capacity()));
    EXPECT_EQ(cur, buffer.chargedBytes());
  }
  // ...and the destructor releases that too.
  EXPECT_EQ(cur, 0);
}

/// The same with 3 reducers fed 1/2, 1/3 and 1/6 of the records: after the
/// first spill the charge covers every partition's arena and index, the
/// radix sort's buffer is sized to the largest partition (not the batch),
/// finish() releases everything, and nothing is left after destruction.
TEST_F(SortSpillTest, ChargeCoversEveryPartitionsBuffers) {
  JobSpec spec = wordCountSpec({p("in.txt")}, p("out"), false, 3);
  spec.conf.setInt("io.sort.mb", 1);
  spec.conf.setDouble("io.sort.spill.percent", 0.05);
  static const uint32_t kPartitionOf[] = {0, 0, 0, 1, 1, 2};

  int64_t cur = 0;
  {
    Counters counters;
    MapOutputBuffer buffer(spec, counters, [&](int64_t delta) { cur += delta; },
                           nullptr, nullptr, {});
    std::vector<int64_t> records(3, 0);  // per partition, so far
    std::vector<int64_t> spilled_records;
    size_t bytes = 0;  // frame bytes collected so far
    size_t spilled_bytes = 0;
    int64_t charge_before = 0;
    for (int64_t i = 0; buffer.spillCount() == 0; ++i) {
      spilled_records = records;
      spilled_bytes = bytes;
      charge_before = buffer.chargedBytes();
      const std::string key = "key" + std::to_string(i);
      Bytes frame;
      KvWriter(frame).write(key, "1");
      bytes += frame.size();
      const uint32_t partition = kPartitionOf[i % 6];
      ++records[partition];
      buffer.collect(key, "1", partition);
    }
    const int64_t batch = spilled_records[0] + spilled_records[1] +
                          spilled_records[2];
    const int64_t largest = spilled_records[0];
    ASSERT_GT(spilled_records[2], 100);
    constexpr int64_t kEntry = 16;
    const auto run = static_cast<int64_t>(spilled_bytes);
    // The spill added the radix buffer, one largest partition long, and
    // the retained runs — less than a batch-long radix buffer would.
    const int64_t spill_delta = buffer.chargedBytes() - charge_before;
    EXPECT_GE(spill_delta, kEntry * largest + run);
    EXPECT_LT(spill_delta, kEntry * batch + run);
    // Every arena and index holds its capacity for the next batch.
    EXPECT_GE(buffer.chargedBytes(), kEntry * (batch + largest) + 2 * run);
    EXPECT_EQ(cur, buffer.chargedBytes());

    const auto runs = buffer.finish();
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(buffer.chargedBytes(), 0);
    EXPECT_EQ(cur, 0);
  }
  EXPECT_EQ(cur, 0);
}

/// Each spill's retained segments hold their bytes and no more: with the
/// map-output codec on, a segment keeps the encoded buffer (not the raw
/// buffer it was written in), and the charge counts exactly the segments'
/// capacity. A twin buffer without the codec, fed the same records, spills
/// at the same points; the two charges differ by the segments alone.
TEST_F(SortSpillTest, EncodedSegmentsAreChargedAtTheirCapacity) {
  JobSpec plain_spec = wordCountSpec({p("in.txt")}, p("out"), false, 3);
  plain_spec.conf.setInt("io.sort.mb", 1);
  plain_spec.conf.setDouble("io.sort.spill.percent", 0.05);
  JobSpec packed_spec = plain_spec;
  packed_spec.conf.set("mapred.map.output.compression.codec", "mh-lz");

  Counters plain_counters;
  Counters packed_counters;
  MapOutputBuffer plain(plain_spec, plain_counters, [](int64_t) {}, nullptr,
                        nullptr, {});
  MapOutputBuffer packed(packed_spec, packed_counters, [](int64_t) {},
                         nullptr, nullptr, {});
  for (int64_t i = 0; packed.spillCount() < 4; ++i) {
    const std::string key = "word" + std::to_string(i % 500);
    const auto partition = static_cast<uint32_t>(i % 3);
    plain.collect(key, "1", partition);
    packed.collect(key, "1", partition);
    ASSERT_EQ(plain.spillCount(), packed.spillCount());
    if (i % 1000 != 999) continue;
    const int64_t raw = packed_counters.value(kTaskGroup, kSpillRawBytes);
    const int64_t encoded =
        packed_counters.value(kTaskGroup, kSpillCompressedBytes);
    ASSERT_EQ(packed.retainedSegmentBytes(), encoded);
    ASSERT_EQ(plain.retainedSegmentBytes(), raw);
    ASSERT_EQ(packed.chargedBytes() - plain.chargedBytes(), encoded - raw);
  }
  EXPECT_LT(packed_counters.value(kTaskGroup, kSpillCompressedBytes),
            packed_counters.value(kTaskGroup, kSpillRawBytes));
}

/// A map whose records move from partition to partition does not keep a
/// batch-sized arena and index for every partition it passed through. Each
/// of four phases feeds one partition until a spill, with a trickle into
/// the partitions fed before. After the last spill the retained arenas and
/// indexes are at most twice the batch just spilled; keeping every
/// partition's buffers would hold about four batches.
TEST_F(SortSpillTest, PartitionsAMapMovesAwayFromFreeTheirBuffers) {
  JobSpec spec = wordCountSpec({p("in.txt")}, p("out"), false, 4);
  spec.conf.setInt("io.sort.mb", 1);
  spec.conf.setDouble("io.sort.spill.percent", 0.05);
  constexpr int64_t kEntry = 16;

  int64_t cur = 0;
  {
    Counters counters;
    MapOutputBuffer buffer(spec, counters, [&](int64_t delta) { cur += delta; },
                           nullptr, nullptr, {});
    std::vector<int64_t> batch(4, 0);  // records per partition, this batch
    int64_t batch_bytes = 0;
    int64_t largest = 0;  // the largest partition any spill sorted
    int64_t spilled = 0;  // working set of the batch last spilled
    int64_t i = 0;
    for (int64_t phase = 0; phase < 4; ++phase) {
      while (buffer.spillCount() == phase) {
        const std::string key = "key" + std::to_string(i);
        const auto partition = static_cast<uint32_t>(
            phase > 0 && i % 32 == 0 ? (i / 32) % phase : phase);
        ++i;
        Bytes frame;
        KvWriter(frame).write(key, "1");
        buffer.collect(key, "1", partition);
        if (buffer.spillCount() > phase) {
          // The spill took the records collected before this one.
          largest = std::max(largest,
                             *std::max_element(batch.begin(), batch.end()));
          spilled = batch_bytes +
                    kEntry * std::accumulate(batch.begin(), batch.end(),
                                             int64_t{0});
          batch.assign(4, 0);
          batch_bytes = 0;
        }
        ++batch[partition];
        batch_bytes += static_cast<int64_t>(frame.size());
      }
    }
    ASSERT_GT(spilled, 0);
    const int64_t buffers = buffer.chargedBytes() -
                            buffer.retainedSegmentBytes() - kEntry * largest;
    EXPECT_GT(buffers, spilled / 2);
    EXPECT_LE(buffers, 2 * spilled);
    EXPECT_EQ(cur, buffer.chargedBytes());
  }
  EXPECT_EQ(cur, 0);
}

/// Map-output compression seam: spill runs are encoded at spill time, the
/// compressed (not raw) bytes are what the memory budget retains, and the
/// multi-spill merge — which must transiently decode each spill run —
/// commits byte-identical part files vs the uncompressed run.
TEST_F(SortSpillTest, CompressedSpillsMergeByteIdentically) {
  const std::string corpus = makeCorpus(2000, 11);
  local_->writeFile(p("in.txt"), corpus);
  LocalJobRunner runner(*local_);

  auto plain = wordCountSpec({p("in.txt")}, p("out_plain"), false, 3);
  plain.conf.setInt("io.sort.mb", 1);
  plain.conf.setDouble("io.sort.spill.percent", 0.05);
  auto packed = wordCountSpec({p("in.txt")}, p("out_packed"), false, 3);
  packed.conf.setInt("io.sort.mb", 1);
  packed.conf.setDouble("io.sort.spill.percent", 0.05);
  packed.conf.set("mapred.map.output.compression.codec", "mh-lz");

  const auto plain_result = runner.run(std::move(plain));
  const auto packed_result = runner.run(std::move(packed));
  ASSERT_TRUE(plain_result.succeeded()) << plain_result.error;
  ASSERT_TRUE(packed_result.succeeded()) << packed_result.error;
  ASSERT_GE(packed_result.counters.value(kTaskGroup, kMapSpills), 3);

  // Every spilled run was metered through the codec, and word-count text
  // compresses: the retained form is strictly smaller than the raw runs.
  const auto raw = packed_result.counters.value(kTaskGroup, kSpillRawBytes);
  const auto packed_bytes =
      packed_result.counters.value(kTaskGroup, kSpillCompressedBytes);
  ASSERT_GT(raw, 0);
  EXPECT_LT(packed_bytes, raw);
  EXPECT_EQ(plain_result.counters.value(kTaskGroup, kSpillRawBytes), 0);

  EXPECT_EQ(partFileBytes(p("out_packed")), partFileBytes(p("out_plain")));
  EXPECT_EQ(readCounts(*local_, p("out_packed")), referenceCounts(corpus));
}

/// Sanity for the comfortable case: a small task spills exactly once at
/// finish() and SPILLED_RECORDS degenerates to MAP_OUTPUT_RECORDS.
TEST_F(SortSpillTest, SingleSpillTaskWritesEachRecordOnce) {
  local_->writeFile(p("in.txt"), "apple banana apple\ncherry\n");
  LocalJobRunner runner(*local_);
  const auto result = runner.run(wordCountSpec({p("in.txt")}, p("out")));
  ASSERT_TRUE(result.succeeded()) << result.error;
  EXPECT_EQ(result.counters.value(kTaskGroup, kMapSpills), 1);
  EXPECT_EQ(result.counters.value(kTaskGroup, kSpilledRecords),
            result.counters.value(kTaskGroup, kMapOutputRecords));
  EXPECT_EQ(readCounts(*local_, p("out")).at("apple"), 2);
}

}  // namespace
}  // namespace mh::mr
