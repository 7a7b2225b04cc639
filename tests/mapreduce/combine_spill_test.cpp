#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <ostream>

#include "mh/common/rng.h"
#include "mh/mr/kv_stream.h"
#include "mh/mr/map_output_buffer.h"
#include "merge_key_pools.h"

/// Property test of the map-side combine. A spill runs the combiner over
/// its sorted index in place and frames the output straight into the
/// segment; a map that spilled more than once runs it again over the merged
/// spills. Both must produce exactly what a naive oracle does: stable-sort
/// the batch by key, group it, run the combiner over each group, stable-sort
/// the emissions by key and frame them. The oracle shares no code with the
/// buffer but the combiner classes, and it models the spill points from the
/// documented budget rule (the test checks MAP_SPILLS against it).
///
/// Keys are random bytes plus the adversarial pool (merge_key_pools.h):
/// the empty key, NUL and 0xFF bytes, keys of 7, 8 and 9+ bytes on one
/// prefix, collected in long same-key stretches. The combiners sum, read
/// only each group's first value (the rest are skipped), emit zero or two
/// records per group, or rewrite keys out of order (the re-sort fallback).

namespace mh::mr {
namespace {

using namespace counters;

enum class CombinerKind { kSum, kFirstValue, kZeroOrTwo, kRewriteKeys };

struct CombineCase {
  CombinerKind combiner;
  bool many_spills;
};

std::string caseName(const CombineCase& c) {
  static const char* kNames[] = {"Sum", "FirstValue", "ZeroOrTwo",
                                 "RewriteKeys"};
  return std::string(kNames[static_cast<int>(c.combiner)]) +
         (c.many_spills ? "_ManySpills" : "_OneSpill");
}

void PrintTo(const CombineCase& c, std::ostream* os) { *os << caseName(c); }

std::string complement(std::string_view key) {
  std::string out(key);
  for (char& ch : out) ch = static_cast<char>(~ch);
  return out;
}

class SumCombiner final : public Reducer {
 public:
  void reduce(std::string_view key, ValuesIterator& values,
              TaskContext& ctx) override {
    int64_t sum = 0;
    while (const auto value = values.next()) sum += std::stoll(Bytes(*value));
    ctx.emit(key, std::to_string(sum));
  }
};

/// Reads one value and leaves the rest of the group unread.
class FirstValueCombiner final : public Reducer {
 public:
  void reduce(std::string_view key, ValuesIterator& values,
              TaskContext& ctx) override {
    ctx.emit(key, *values.next());
  }
};

/// Nothing for a group whose size is a multiple of 3, else its first value
/// and its size under the group's key.
class ZeroOrTwoCombiner final : public Reducer {
 public:
  void reduce(std::string_view key, ValuesIterator& values,
              TaskContext& ctx) override {
    const Bytes first(*values.next());
    int64_t n = 1;
    while (values.next()) ++n;
    if (n % 3 == 0) return;
    ctx.emit(key, first);
    ctx.emit(key, "n=" + std::to_string(n));
  }
};

/// Emits each group's size under the byte-complemented key: roughly the
/// reverse of key order, so the output must be re-sorted.
class RewriteKeysCombiner final : public Reducer {
 public:
  void reduce(std::string_view key, ValuesIterator& values,
              TaskContext& ctx) override {
    int64_t n = 0;
    while (values.next()) ++n;
    ctx.emit(complement(key), std::to_string(n));
  }
};

ReducerFactory combinerFactory(CombinerKind kind) {
  switch (kind) {
    case CombinerKind::kSum:
      return [] { return std::make_unique<SumCombiner>(); };
    case CombinerKind::kFirstValue:
      return [] { return std::make_unique<FirstValueCombiner>(); };
    case CombinerKind::kZeroOrTwo:
      return [] { return std::make_unique<ZeroOrTwoCombiner>(); };
    case CombinerKind::kRewriteKeys:
      return [] { return std::make_unique<RewriteKeysCombiner>(); };
  }
  return {};
}

constexpr uint32_t kPartitions = 3;

/// io.sort.mb=1 for every case; the many-spill cases spill at 5% of it.
JobSpec caseSpec(const CombineCase& c) {
  JobSpec spec;
  spec.num_reducers = kPartitions;
  spec.combiner = combinerFactory(c.combiner);
  spec.conf.setInt("io.sort.mb", 1);
  if (c.many_spills) spec.conf.setDouble("io.sort.spill.percent", 0.05);
  return spec;
}

struct Record {
  KeyValue kv;
  uint32_t partition;
};

/// `count` records whose keys come in stretches of one key (sometimes
/// dozens long) drawn from the adversarial pool and from random keys of
/// 0-14 bytes over an alphabet with NUL, 0x7F, 0x80 and 0xFF. Values are
/// the record's index, so a reordering of equal keys shows.
std::vector<Record> caseRecords(uint64_t seed, size_t count) {
  static const char kAlphabet[] = {'\0', '\x01', 'a', 'b', '\x7f', '\x80',
                                   '\xfe', '\xff'};
  Rng rng(seed);
  std::vector<Bytes> pool = testkeys::adversarialKeys();
  for (int i = 0; i < 40; ++i) {
    Bytes key;
    const size_t len = rng.uniform(15);
    for (size_t j = 0; j < len; ++j) key.push_back(kAlphabet[rng.uniform(8)]);
    pool.push_back(std::move(key));
  }
  std::hash<std::string> hash;
  std::vector<Record> records;
  while (records.size() < count) {
    const Bytes& key = pool[rng.uniform(pool.size())];
    const size_t len =
        rng.chance(0.1) ? 20 + rng.uniform(60) : 1 + rng.uniform(3);
    for (size_t i = 0; i < len && records.size() < count; ++i) {
      records.push_back({{key, std::to_string(records.size())},
                         static_cast<uint32_t>(hash(key) % kPartitions)});
    }
  }
  return records;
}

/// The spill batches the documented budget rule cuts `records` into: a
/// record spills the batch before it when it would push the working set
/// (frame bytes plus two 16-byte index entries per record) past the
/// threshold, and a batch whose working set reaches the threshold spills
/// at once.
std::vector<std::vector<Record>> spillBatches(const std::vector<Record>& records,
                                              const JobSpec& spec) {
  const auto threshold = static_cast<size_t>(
      static_cast<double>(spec.conf.get(keys::kIoSortMb) << 20) *
      spec.conf.get(keys::kIoSortSpillPercent));
  std::vector<std::vector<Record>> batches(1);
  size_t working_set = 0;
  for (const Record& r : records) {
    const size_t bytes = kvFrameSize(r.kv.key.size(), r.kv.value.size()) + 32;
    if (!batches.back().empty() && working_set + bytes > threshold) {
      batches.emplace_back();
      working_set = 0;
    }
    batches.back().push_back(r);
    working_set += bytes;
    if (working_set >= threshold) {
      batches.emplace_back();
      working_set = 0;
    }
  }
  if (batches.back().empty()) batches.pop_back();
  return batches;
}

class VectorValues final : public ValuesIterator {
 public:
  VectorValues(const std::vector<KeyValue>& records, size_t begin, size_t end)
      : records_(records), next_(begin), end_(end) {}
  std::optional<std::string_view> next() override {
    if (next_ == end_) return std::nullopt;
    return records_[next_++].value;
  }

 private:
  const std::vector<KeyValue>& records_;
  size_t next_;
  size_t end_;
};

void stableSortByKey(std::vector<KeyValue>& records) {
  std::stable_sort(
      records.begin(), records.end(),
      [](const KeyValue& a, const KeyValue& b) { return a.key < b.key; });
}

/// What the oracle's counters should read.
struct OracleCounts {
  int64_t combine_in = 0;
  int64_t combine_out = 0;
  int64_t spilled = 0;
};

/// One combine pass: stable sort, group, combine, stable-sort the
/// emissions, frame.
Bytes naiveCombine(std::vector<KeyValue> records, const JobSpec& spec,
                   OracleCounts& counts) {
  stableSortByKey(records);
  std::vector<KeyValue> emitted;
  Counters scratch;
  TaskContext ctx(spec.conf, scratch,
                  [&](std::string_view key, std::string_view value) {
                    emitted.push_back({Bytes(key), Bytes(value)});
                  });
  const auto combiner = spec.combiner();
  combiner->setup(ctx);
  for (size_t i = 0; i < records.size();) {
    size_t j = i + 1;
    while (j < records.size() && records[j].key == records[i].key) ++j;
    VectorValues values(records, i, j);
    combiner->reduce(records[i].key, values, ctx);
    i = j;
  }
  combiner->cleanup(ctx);
  stableSortByKey(emitted);
  counts.combine_in += static_cast<int64_t>(records.size());
  counts.combine_out += static_cast<int64_t>(emitted.size());
  counts.spilled += static_cast<int64_t>(emitted.size());
  return encodeKvRun(emitted);
}

/// Each partition's shipped output: its one spill's combined segment, or,
/// after several spills, the combine of their outputs merged in spill
/// order; a non-empty one closes with its one-segment table.
std::vector<Bytes> oracle(const std::vector<std::vector<Record>>& batches,
                          const JobSpec& spec, OracleCounts& counts) {
  std::vector<std::vector<Bytes>> spilled(kPartitions);
  for (const auto& batch : batches) {
    std::vector<std::vector<KeyValue>> parts(kPartitions);
    for (const Record& r : batch) parts[r.partition].push_back(r.kv);
    for (uint32_t p = 0; p < kPartitions; ++p) {
      if (parts[p].empty()) continue;
      Bytes segment = naiveCombine(std::move(parts[p]), spec, counts);
      if (!segment.empty()) spilled[p].push_back(std::move(segment));
    }
  }
  std::vector<Bytes> out(kPartitions);
  for (uint32_t p = 0; p < kPartitions; ++p) {
    if (spilled[p].empty()) continue;
    if (batches.size() == 1) {
      out[p] = spilled[p][0];
    } else {
      std::vector<KeyValue> merged;
      for (const Bytes& segment : spilled[p]) {
        for (KeyValue& kv : decodeKvRun(segment)) merged.push_back(kv);
      }
      out[p] = naiveCombine(std::move(merged), spec, counts);
    }
    if (!out[p].empty()) appendSegmentTable(out[p], {out[p].size()});
  }
  return out;
}

class CombineSpillTest : public ::testing::TestWithParam<CombineCase> {};

TEST_P(CombineSpillTest, SegmentsAndCountersMatchNaiveOracle) {
  const CombineCase c = GetParam();
  const JobSpec spec = caseSpec(c);
  for (const uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto records = caseRecords(seed, c.many_spills ? 20'000 : 5'000);
    const auto batches = spillBatches(records, spec);
    if (c.many_spills) {
      ASSERT_GE(batches.size(), 10u);
    } else {
      ASSERT_EQ(batches.size(), 1u);
    }
    OracleCounts expected;
    const std::vector<Bytes> want = oracle(batches, spec, expected);

    Counters counters;
    MapOutputBuffer buffer(spec, counters, {}, nullptr, nullptr, {});
    for (const Record& r : records) {
      buffer.collect(r.kv.key, r.kv.value, r.partition);
    }
    const std::vector<Bytes> got = buffer.finishSegments();

    EXPECT_EQ(counters.value(kTaskGroup, kMapSpills),
              static_cast<int64_t>(batches.size()));
    EXPECT_EQ(counters.value(kTaskGroup, kCombineInputRecords),
              expected.combine_in);
    EXPECT_EQ(counters.value(kTaskGroup, kCombineOutputRecords),
              expected.combine_out);
    EXPECT_EQ(counters.value(kTaskGroup, kSpilledRecords), expected.spilled);
    ASSERT_EQ(got.size(), want.size());
    for (uint32_t p = 0; p < kPartitions; ++p) {
      EXPECT_EQ(got[p], want[p]) << "partition " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Combiners, CombineSpillTest,
    ::testing::Values(CombineCase{CombinerKind::kSum, false},
                      CombineCase{CombinerKind::kSum, true},
                      CombineCase{CombinerKind::kFirstValue, false},
                      CombineCase{CombinerKind::kFirstValue, true},
                      CombineCase{CombinerKind::kZeroOrTwo, false},
                      CombineCase{CombinerKind::kZeroOrTwo, true},
                      CombineCase{CombinerKind::kRewriteKeys, false},
                      CombineCase{CombinerKind::kRewriteKeys, true}),
    [](const auto& info) { return caseName(info.param); });

}  // namespace
}  // namespace mh::mr
