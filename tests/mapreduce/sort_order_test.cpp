#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <ostream>

#include "mh/common/rng.h"
#include "mh/mr/kv_stream.h"
#include "mh/mr/local_runner.h"
#include "mh/mr/map_output_buffer.h"
#include "mh/mr/merge.h"
#include "merge_key_pools.h"
#include "mr_test_jobs.h"

/// Differential test of the map-side sort: every run MapOutputBuffer
/// produces must equal an independent oracle — the records of each
/// partition put through std::stable_sort on the key bytes. The job-level
/// oracle (LocalJobRunner) runs the same map path as the cluster, so it
/// cannot catch a sort-order bug; this one shares no code with the buffer.
///
/// The key mix targets every place the buffer's ordering could go wrong:
/// empty keys, keys of exactly 8 bytes (the cached prefix width), longer
/// keys sharing an 8-byte prefix, embedded NULs ("ab" < "ab\0", which the
/// zero-padded prefix cannot tell apart), bytes >= 0x80 (unsigned order),
/// and many equal keys with distinct values (stability). Each partition is
/// sorted on its own: 300 partitions give every spill many small ones, and
/// 4096 with records in only 3 of them a few large ones among thousands of
/// idle ones.

namespace mh::mr {
namespace {

using namespace std::string_literals;
using namespace counters;

/// kShort: every key fits the 8-byte prefix. kLong: the short pool plus
/// longer keys on a few shared prefixes. kSharedPrefix: every key is a
/// prefix or an extension (up to 12 bytes, NUL-padded ones included) of one
/// 8-byte string, so the long-key tie-break sorts large groups.
enum class KeyMix { kShort, kLong, kSharedPrefix };

/// kRewriteKeys emits each group under a rewritten key, out of key order,
/// so the buffer must re-sort the combiner's output.
enum class CombinerKind { kNone, kConcat, kRewriteKeys };

/// `skewed`: every record lands in one of three partitions (the first,
/// the middle and the last), as when a job with many reducers feeds a map
/// only a few distinct keys.
struct SortCase {
  KeyMix mix;
  uint32_t partitions;
  CombinerKind combiner;
  bool multi_spill;
  bool skewed = false;
};

/// The kShort and kLong labels predate the single sort path (they named
/// the two paths the mixes once took) and are kept so test IDs stay stable.
std::string caseName(const SortCase& c) {
  static const char* kMixNames[] = {"Packed", "Comparator", "SharedPrefix"};
  static const char* kCombinerNames[] = {"_Plain", "_Combine",
                                         "_RewriteKeys"};
  return std::string(kMixNames[static_cast<int>(c.mix)]) + "_P" +
         std::to_string(c.partitions) +
         kCombinerNames[static_cast<int>(c.combiner)] +
         (c.multi_spill ? "_MultiSpill" : "_OneSpill") +
         (c.skewed ? "_Skewed" : "");
}

/// Keeps gtest from printing the struct's raw bytes (padding included)
/// into the test's listed name.
void PrintTo(const SortCase& c, std::ostream* os) { *os << caseName(c); }

std::vector<std::string> keyPool(KeyMix mix, Rng& rng) {
  static const char kAlphabet[] = {'\0', '\x01', 'a',    'b',
                                   '\x7f', '\x80', '\xfe', '\xff'};
  const auto randomBytes = [&](size_t n) {
    std::string s;
    for (size_t i = 0; i < n; ++i) s.push_back(kAlphabet[rng.uniform(8)]);
    return s;
  };
  if (mix == KeyMix::kSharedPrefix) {
    const std::string shared = "ab\0\x80z\0\0\0"s;
    std::vector<std::string> pool;
    for (size_t len = 0; len <= 12; ++len) {
      pool.push_back(shared.substr(0, len) +
                     std::string(len > 8 ? len - 8 : 0, '\0'));
    }
    for (int i = 0; i < 60; ++i) {
      pool.push_back(shared + randomBytes(1 + rng.uniform(4)));
    }
    return pool;
  }
  std::vector<std::string> pool = {
      ""s,         "\0"s,       "\0\0"s,     "a",         "ab",
      "ab\0"s,     "ab\0\0"s,   "ab\x01",    "abcdefgh",  "abcdefgi",
      "abcdefg",   "\x7f",      "\x80",      "\xff",      "\xff\xff",
      "a\x80",     "a\x7f",     "ABCDEFGH",  "\0\0\0\0\0\0\0\0"s,
      "\xff\xff\xff\xff\xff\xff\xff\xff"};
  for (int i = 0; i < 40; ++i) pool.push_back(randomBytes(rng.uniform(9)));
  if (mix == KeyMix::kLong) {
    // Longer than 8 bytes on a shared 8-byte prefix, including prefixes
    // equal to whole short keys already in the pool.
    static const char* kPrefixes[] = {"abcdefgh", "ABCDEFGH",
                                      "\xff\xff\xff\xff\xff\xff\xff\xff"};
    for (const char* prefix : kPrefixes) {
      pool.push_back(prefix + "\0"s);
      pool.push_back(prefix + "\0\0"s);
      pool.push_back(prefix + "\x01"s);
      pool.push_back(prefix + "\xff"s);
      for (int i = 0; i < 8; ++i) {
        pool.push_back(prefix + randomBytes(1 + rng.uniform(12)));
      }
    }
    pool.push_back("\0\0\0\0\0\0\0\0\0"s);
    pool.push_back("ab\0\0\0\0\0\0\0"s);
  }
  return pool;
}

std::string complement(std::string_view key) {
  std::string out(key);
  for (char& ch : out) ch = static_cast<char>(~ch);
  return out;
}

/// Joins a group's values in iteration order. Concatenation is
/// associative, so applying it per spill and again in the final merge gives
/// the same answer as applying it once — but only if every stage keeps
/// equal keys in insertion order. With `RewriteKeys`, each group is emitted
/// under its byte-complemented key: the complement is its own inverse and
/// roughly reverses key order, so the buffer must re-sort the output, and a
/// second pass (the multi-spill final merge) restores the original keys.
template <bool RewriteKeys>
class ConcatCombiner final : public Reducer {
 public:
  void reduce(std::string_view key, ValuesIterator& values,
              TaskContext& ctx) override {
    std::string joined;
    while (const auto value = values.next()) {
      if (!joined.empty()) joined.push_back(',');
      joined.append(*value);
    }
    ctx.emit(RewriteKeys ? complement(key) : std::string(key),
             std::move(joined));
  }
};

void stableSortByKey(std::vector<KeyValue>& records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const KeyValue& a, const KeyValue& b) {
                     return a.key < b.key;
                   });
}

/// Per partition: stable sort by key bytes; with a combiner, one record
/// per key whose value joins the group's values in insertion order. A key
/// rewrite applied once (one spill) leaves complemented keys, re-sorted;
/// applied twice (per spill, then the final merge) it cancels out.
std::vector<std::vector<KeyValue>> oracle(
    const std::vector<std::pair<KeyValue, uint32_t>>& records,
    uint32_t partitions, CombinerKind combiner, bool multi_spill) {
  std::vector<std::vector<KeyValue>> out(partitions);
  for (const auto& [kv, p] : records) out[p].push_back(kv);
  for (auto& part : out) {
    stableSortByKey(part);
    if (combiner == CombinerKind::kNone) continue;
    std::vector<KeyValue> combined;
    for (const KeyValue& kv : part) {
      if (!combined.empty() && combined.back().key == kv.key) {
        combined.back().value += "," + kv.value;
      } else {
        combined.push_back(kv);
      }
    }
    if (combiner == CombinerKind::kRewriteKeys && !multi_spill) {
      for (KeyValue& kv : combined) {
        kv.key = complement(kv.key);
      }
      stableSortByKey(combined);
    }
    part = std::move(combined);
  }
  return out;
}

/// The job a case runs: its reducer count and combiner, io.sort.mb=1, and
/// a 5% spill threshold for the multi-spill cases.
JobSpec caseSpec(const SortCase& c, uint32_t partitions) {
  JobSpec spec;
  spec.num_reducers = partitions;
  if (c.combiner == CombinerKind::kConcat) {
    spec.combiner = [] { return std::make_unique<ConcatCombiner<false>>(); };
  } else if (c.combiner == CombinerKind::kRewriteKeys) {
    spec.combiner = [] { return std::make_unique<ConcatCombiner<true>>(); };
  }
  spec.conf.setInt("io.sort.mb", 1);
  if (c.multi_spill) spec.conf.setDouble("io.sort.spill.percent", 0.05);
  return spec;
}

/// A skewed case's three live partitions.
std::vector<uint32_t> livePartitions(uint32_t partitions) {
  return {0, partitions / 2, partitions - 1};
}

/// `count` records drawn from the case's key pool. They are partitioned by key
/// (as a partitioner would), so equal keys meet in one partition; values
/// are unique, so any reordering of equal keys shows.
std::vector<std::pair<KeyValue, uint32_t>> caseRecords(const SortCase& c,
                                                        uint64_t seed,
                                                        int count = 12'000) {
  Rng rng(seed);
  const auto pool = keyPool(c.mix, rng);
  const std::vector<uint32_t> live = livePartitions(c.partitions);
  std::hash<std::string> hash;
  std::vector<std::pair<KeyValue, uint32_t>> records;
  for (int i = 0; i < count; ++i) {
    std::string key = pool[rng.uniform(pool.size())];
    const auto p = c.skewed ? live[hash(key) % live.size()]
                            : static_cast<uint32_t>(hash(key) % c.partitions);
    records.push_back({{std::move(key), "v" + std::to_string(i)}, p});
  }
  return records;
}

class SortOrderTest : public ::testing::TestWithParam<SortCase> {};

TEST_P(SortOrderTest, RunsMatchStableSortOracle) {
  const SortCase c = GetParam();
  const JobSpec spec = caseSpec(c, c.partitions);
  const auto records = caseRecords(c, 1000 + c.partitions);

  int64_t charged = 0;
  {
    Counters counters;
    MapOutputBuffer buffer(spec, counters,
                           [&](int64_t delta) { charged += delta; }, nullptr,
                           nullptr, {});
    for (const auto& [kv, p] : records) buffer.collect(kv.key, kv.value, p);
    EXPECT_EQ(charged, buffer.chargedBytes());
    const std::vector<Bytes> runs = buffer.finish();
    // finish() hands the output over and releases every buffer.
    EXPECT_EQ(buffer.chargedBytes(), 0);

    if (c.multi_spill) {
      EXPECT_GE(buffer.spillCount(), 3);
    } else {
      EXPECT_EQ(buffer.spillCount(), 1);
    }
    const auto expected =
        oracle(records, c.partitions, c.combiner, c.multi_spill);
    ASSERT_EQ(runs.size(), c.partitions);
    for (uint32_t p = 0; p < c.partitions; ++p) {
      const auto actual = decodeKvRun(runs[p]);
      ASSERT_EQ(actual.size(), expected[p].size()) << "partition " << p;
      for (size_t i = 0; i < actual.size(); ++i) {
        ASSERT_EQ(actual[i], expected[p][i])
            << "partition " << p << " record " << i;
      }
    }
  }
  EXPECT_EQ(charged, 0);
}

/// Reducers a map never feeds cost it nothing: with every record in 3 of
/// the case's partitions, the buffer's heap charge equals, after every
/// collect, that of a 3-reducer buffer fed the same records, and so do its
/// spill count and its live partitions' runs.
class SkewedPartitionTest : public SortOrderTest {};

TEST_P(SkewedPartitionTest, IdlePartitionsAreNotCharged) {
  const SortCase c = GetParam();
  const JobSpec spec = caseSpec(c, c.partitions);
  const JobSpec compact_spec = caseSpec(c, 3);
  const std::vector<uint32_t> live = livePartitions(c.partitions);
  Counters counters;
  MapOutputBuffer buffer(spec, counters, {}, nullptr, nullptr, {});
  MapOutputBuffer compact(compact_spec, counters, {}, nullptr, nullptr, {});
  for (const auto& [kv, p] : caseRecords(c, 3000 + c.partitions)) {
    buffer.collect(kv.key, kv.value, p);
    const auto slot = static_cast<uint32_t>(
        std::find(live.begin(), live.end(), p) - live.begin());
    compact.collect(kv.key, kv.value, slot);
    ASSERT_EQ(buffer.chargedBytes(), compact.chargedBytes());
  }
  const std::vector<Bytes> runs = buffer.finishSegments();
  const std::vector<Bytes> compact_runs = compact.finishSegments();
  EXPECT_EQ(buffer.spillCount(), compact.spillCount());
  ASSERT_EQ(runs.size(), c.partitions);
  for (uint32_t p = 0; p < c.partitions; ++p) {
    const auto it = std::find(live.begin(), live.end(), p);
    if (it == live.end()) {
      EXPECT_TRUE(runs[p].empty()) << "partition " << p;
    } else {
      EXPECT_EQ(runs[p], compact_runs[static_cast<size_t>(it - live.begin())])
          << "partition " << p;
    }
  }
}

/// Collects `records` into two buffers for `spec` and checks that a
/// KvRunMerger over each partition's shipped segments rebuilds finish()'s
/// merged run byte for byte. A combiner job that spilled more than once
/// ships one segment per partition. Returns the spill count.
int64_t expectSegmentsMergeToFinish(
    const JobSpec& spec,
    const std::vector<std::pair<KeyValue, uint32_t>>& records) {
  Counters counters;
  MapOutputBuffer merged(spec, counters, {}, nullptr, nullptr, {});
  MapOutputBuffer shipped(spec, counters, {}, nullptr, nullptr, {});
  for (const auto& [kv, p] : records) {
    merged.collect(kv.key, kv.value, p);
    shipped.collect(kv.key, kv.value, p);
  }
  const std::vector<Bytes> runs = merged.finish();
  const std::vector<Bytes> outputs = shipped.finishSegments();
  EXPECT_EQ(outputs.size(), runs.size());
  for (size_t p = 0; p < std::min(runs.size(), outputs.size()); ++p) {
    const std::vector<std::string_view> segments = splitSegments(outputs[p]);
    const int64_t most =
        spec.combiner && shipped.spillCount() > 1 ? 1 : shipped.spillCount();
    EXPECT_LE(segments.size(), static_cast<size_t>(most)) << "partition " << p;
    KvRunMerger merger(segments);
    Bytes rebuilt;
    while (const auto frame = merger.nextFrame()) rebuilt.append(*frame);
    EXPECT_EQ(rebuilt, runs[p]) << "partition " << p;
  }
  return shipped.spillCount();
}

/// The reducer merges a map's shipped segments; what it reads must be
/// exactly the run the map's own final merge would have written.
TEST_P(SortOrderTest, SegmentMergeEqualsFinish) {
  const SortCase c = GetParam();
  const int64_t spills = expectSegmentsMergeToFinish(
      caseSpec(c, c.partitions), caseRecords(c, 2000 + c.partitions));
  if (c.multi_spill) {
    EXPECT_GE(spills, 2);
  } else {
    EXPECT_EQ(spills, 1);
  }
}

/// The merge key pools' adversarial keys, in long same-key stretches, under
/// budgets that spill 2-10 times and more than 10 times (Hadoop's
/// io.sort.factor default): every segment ships either way.
TEST(SegmentMergeTest, AdversarialKeysMergeToFinish) {
  Rng rng(31);
  std::vector<std::pair<KeyValue, uint32_t>> records;
  for (const Bytes& run : testkeys::adversarialRuns(rng, 300)) {
    for (KeyValue& kv : decodeKvRun(run)) {
      const auto p = static_cast<uint32_t>(kv.key.size() % 3);
      records.push_back({std::move(kv), p});
    }
  }
  for (const auto& [percent, many] :
       {std::pair{0.25, false}, std::pair{0.05, true}}) {
    SCOPED_TRACE(percent);
    JobSpec spec;
    spec.num_reducers = 3;
    spec.conf.setInt("io.sort.mb", 1);
    spec.conf.setDouble("io.sort.spill.percent", percent);
    const int64_t spills = expectSegmentsMergeToFinish(spec, records);
    if (many) {
      EXPECT_GT(spills, 10);
    } else {
      EXPECT_GE(spills, 2);
      EXPECT_LE(spills, 10);
    }
  }
}

/// Partition 1's records all arrive after partition 0 has spilled several
/// times, so they land in the last spill only: one segment. A combiner job
/// still puts that partition through the final combining merge — the
/// rewrite-keys combiner's second pass restores its keys, and the combine
/// and spill counters count it — while a combiner-less map ships every
/// segment as it is. Partition 0's keys are unique, so each combine pass
/// over them passes every record through and the counters are exact.
TEST(SegmentMergeTest, PartitionOnlyInLastSpillGetsTheFinalPass) {
  std::vector<std::pair<KeyValue, uint32_t>> records;
  constexpr int64_t kUnique = 14'000;
  for (int64_t i = 0; i < kUnique; ++i) {
    records.push_back({{"k" + std::to_string(100'000 + i),
                        "v" + std::to_string(i)},
                       0});
  }
  const std::vector<std::string> late_keys = {""s, "\0"s, "a", "\xff", "zz"};
  constexpr int64_t kLate = 200;
  for (int64_t i = 0; i < kLate; ++i) {
    records.push_back({{late_keys[static_cast<size_t>(i) % late_keys.size()],
                        "w" + std::to_string(i)},
                       1});
  }
  const auto distinct_late = static_cast<int64_t>(late_keys.size());

  for (const CombinerKind combiner :
       {CombinerKind::kNone, CombinerKind::kRewriteKeys}) {
    for (const double percent : {0.2, 0.05}) {
      SCOPED_TRACE(testing::Message()
                   << (combiner == CombinerKind::kNone ? "plain" : "rewrite")
                   << " at " << percent);
      JobSpec spec;
      spec.num_reducers = 2;
      if (combiner == CombinerKind::kRewriteKeys) {
        spec.combiner = [] { return std::make_unique<ConcatCombiner<true>>(); };
      }
      spec.conf.setInt("io.sort.mb", 1);
      spec.conf.setDouble("io.sort.spill.percent", percent);

      Counters counters;
      MapOutputBuffer buffer(spec, counters, {}, nullptr, nullptr, {});
      for (const auto& [kv, p] : records) buffer.collect(kv.key, kv.value, p);
      const std::vector<Bytes> outputs = buffer.finishSegments();
      const int64_t spills = buffer.spillCount();
      if (percent < 0.1) {
        EXPECT_GT(spills, 10);
      } else {
        EXPECT_GE(spills, 3);
        EXPECT_LE(spills, 10);
      }
      ASSERT_EQ(outputs.size(), 2u);
      const auto segments0 = splitSegments(outputs[0]);
      const auto segments1 = splitSegments(outputs[1]);

      const auto expected = oracle(records, 2, combiner, true);
      for (uint32_t p = 0; p < 2; ++p) {
        KvRunMerger merger(splitSegments(outputs[p]));
        Bytes merged;
        while (const auto frame = merger.nextFrame()) merged.append(*frame);
        EXPECT_EQ(decodeKvRun(merged), expected[p]) << "partition " << p;
      }

      const int64_t combine_in = counters.value(kTaskGroup,
                                                kCombineInputRecords);
      const int64_t combine_out = counters.value(kTaskGroup,
                                                 kCombineOutputRecords);
      const int64_t spilled = counters.value(kTaskGroup, kSpilledRecords);
      EXPECT_EQ(counters.value(kTaskGroup, kMapSpills), spills);
      if (combiner == CombinerKind::kNone) {
        EXPECT_GE(segments0.size(), static_cast<size_t>(spills - 1));
        EXPECT_EQ(segments1.size(), 1u);
        EXPECT_EQ(spilled, kUnique + kLate);
        EXPECT_EQ(combine_in, 0);
        EXPECT_EQ(combine_out, 0);
      } else {
        EXPECT_EQ(segments0.size(), 1u);
        EXPECT_EQ(segments1.size(), 1u);
        // Per-spill pass, then the final pass over both partitions.
        const int64_t per_pass = kUnique + distinct_late;
        EXPECT_EQ(spilled, 2 * per_pass);
        EXPECT_EQ(combine_out, 2 * per_pass);
        EXPECT_EQ(combine_in, kUnique + kLate + per_pass);
      }
    }
  }
}

std::vector<SortCase> allCases() {
  std::vector<SortCase> cases;
  for (const KeyMix mix :
       {KeyMix::kShort, KeyMix::kLong, KeyMix::kSharedPrefix}) {
    for (const uint32_t partitions : {1u, 7u, 300u}) {
      for (const CombinerKind combiner :
           {CombinerKind::kNone, CombinerKind::kConcat,
            CombinerKind::kRewriteKeys}) {
        for (const bool multi : {false, true}) {
          cases.push_back({mix, partitions, combiner, multi});
        }
      }
    }
    // 4096 reducers, records in 3 of them: each spill sorts a few large
    // partitions among thousands of idle ones.
    for (const CombinerKind combiner :
         {CombinerKind::kNone, CombinerKind::kRewriteKeys}) {
      for (const bool multi : {false, true}) {
        cases.push_back({mix, 4096, combiner, multi, true});
      }
    }
  }
  return cases;
}

std::string paramName(const ::testing::TestParamInfo<SortCase>& info) {
  return caseName(info.param);
}

INSTANTIATE_TEST_SUITE_P(Paths, SortOrderTest,
                         ::testing::ValuesIn(allCases()), paramName);

std::vector<SortCase> skewedCases() {
  std::vector<SortCase> cases;
  for (const SortCase& c : allCases()) {
    if (c.skewed) cases.push_back(c);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Paths, SkewedPartitionTest,
                         ::testing::ValuesIn(skewedCases()), paramName);

/// A job with more than kMaxReducers reducers is refused at submit and by
/// the buffer, and an out-of-range partition at collect, rather than
/// written out of bounds.
TEST(SortIndexLimitTest, RejectsPartitionsTheIndexCannotAddress) {
  JobSpec spec = testjobs::wordCountSpec({"in.txt"}, "out", false, 1);
  spec.num_reducers = kMaxReducers;
  EXPECT_NO_THROW(spec.validateAndDefault());

  spec.num_reducers = kMaxReducers + 1;
  EXPECT_THROW(spec.validateAndDefault(), InvalidArgumentError);
  Counters counters;
  EXPECT_THROW(MapOutputBuffer(spec, counters, {}, nullptr, nullptr, {}),
               InvalidArgumentError);

  // A partitioner's answer outside [0, reducers) is refused, not packed.
  spec.num_reducers = 3;
  MapOutputBuffer buffer(spec, counters, {}, nullptr, nullptr, {});
  EXPECT_THROW(buffer.collect("k", "v", 3), InvalidArgumentError);
  spec.num_reducers = kMaxReducers + 1;

  LocalFs fs;
  const JobResult result = LocalJobRunner(fs).run(spec);
  EXPECT_FALSE(result.succeeded());
  EXPECT_NE(result.error.find("reducers"), std::string::npos) << result.error;
}

}  // namespace
}  // namespace mh::mr
