#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <ostream>

#include "mh/common/rng.h"
#include "mh/mr/kv_stream.h"
#include "mh/mr/map_output_buffer.h"

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
/// and many equal keys with distinct values (stability).

namespace mh::mr {
namespace {

using namespace std::string_literals;

/// All keys <= 8 bytes keep a batch on the packed-integer fast path; one
/// longer key in a batch sends it through the comparator path.
enum class KeyMix { kShort, kLong };

struct SortCase {
  KeyMix mix;
  uint32_t partitions;
  bool combiner;
  bool multi_spill;
};

std::string caseName(const SortCase& c) {
  return std::string(c.mix == KeyMix::kShort ? "Packed" : "Comparator") +
         "_P" + std::to_string(c.partitions) +
         (c.combiner ? "_Combine" : "_Plain") +
         (c.multi_spill ? "_MultiSpill" : "_OneSpill");
}

/// Keeps gtest from printing the struct's raw bytes (padding included)
/// into the test's listed name.
void PrintTo(const SortCase& c, std::ostream* os) { *os << caseName(c); }

std::vector<std::string> keyPool(KeyMix mix, Rng& rng) {
  std::vector<std::string> pool = {
      ""s,         "\0"s,       "\0\0"s,     "a",         "ab",
      "ab\0"s,     "ab\0\0"s,   "ab\x01",    "abcdefgh",  "abcdefgi",
      "abcdefg",   "\x7f",      "\x80",      "\xff",      "\xff\xff",
      "a\x80",     "a\x7f",     "ABCDEFGH",  "\0\0\0\0\0\0\0\0"s,
      "\xff\xff\xff\xff\xff\xff\xff\xff"};
  static const char kAlphabet[] = {'\0', '\x01', 'a',    'b',
                                   '\x7f', '\x80', '\xfe', '\xff'};
  const auto randomBytes = [&](size_t n) {
    std::string s;
    for (size_t i = 0; i < n; ++i) s.push_back(kAlphabet[rng.uniform(8)]);
    return s;
  };
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

/// Joins a group's values in iteration order. Concatenation is
/// associative, so applying it per spill and again in the final merge gives
/// the same answer as applying it once — but only if every stage keeps
/// equal keys in insertion order.
class ConcatCombiner final : public Reducer {
 public:
  void reduce(std::string_view key, ValuesIterator& values,
              TaskContext& ctx) override {
    std::string joined;
    while (const auto value = values.next()) {
      if (!joined.empty()) joined.push_back(',');
      joined.append(*value);
    }
    ctx.emit(std::string(key), std::move(joined));
  }
};

/// Per partition: stable sort by key bytes; with the combiner, one record
/// per key whose value joins the group's values in insertion order.
std::vector<std::vector<KeyValue>> oracle(
    const std::vector<std::pair<KeyValue, uint32_t>>& records,
    uint32_t partitions, bool combiner) {
  std::vector<std::vector<KeyValue>> out(partitions);
  for (const auto& [kv, p] : records) out[p].push_back(kv);
  for (auto& part : out) {
    std::stable_sort(part.begin(), part.end(),
                     [](const KeyValue& a, const KeyValue& b) {
                       return a.key < b.key;
                     });
    if (!combiner) continue;
    std::vector<KeyValue> combined;
    for (const KeyValue& kv : part) {
      if (!combined.empty() && combined.back().key == kv.key) {
        combined.back().value += "," + kv.value;
      } else {
        combined.push_back(kv);
      }
    }
    part = std::move(combined);
  }
  return out;
}

class SortOrderTest : public ::testing::TestWithParam<SortCase> {};

TEST_P(SortOrderTest, RunsMatchStableSortOracle) {
  const SortCase c = GetParam();
  Rng rng(1000 + c.partitions);
  const auto pool = keyPool(c.mix, rng);

  JobSpec spec;
  spec.num_reducers = c.partitions;
  if (c.combiner) {
    spec.combiner = [] { return std::make_unique<ConcatCombiner>(); };
  }
  spec.conf.setInt("io.sort.mb", 1);
  if (c.multi_spill) spec.conf.setDouble("io.sort.spill.percent", 0.05);

  // Partition by key (as a partitioner would), so equal keys meet in one
  // partition; values are unique, so any reordering of equal keys shows.
  std::hash<std::string> hash;
  std::vector<std::pair<KeyValue, uint32_t>> records;
  for (int i = 0; i < 12'000; ++i) {
    std::string key = pool[rng.uniform(pool.size())];
    const auto p = static_cast<uint32_t>(hash(key) % c.partitions);
    records.push_back({{std::move(key), "v" + std::to_string(i)}, p});
  }

  Counters counters;
  MapOutputBuffer buffer(spec, counters, {}, nullptr, nullptr, {});
  for (const auto& [kv, p] : records) buffer.collect(kv.key, kv.value, p);
  const std::vector<Bytes> runs = buffer.finish();

  if (c.multi_spill) {
    EXPECT_GE(buffer.spillCount(), 3);
  } else {
    EXPECT_EQ(buffer.spillCount(), 1);
  }
  const auto expected = oracle(records, c.partitions, c.combiner);
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

std::vector<SortCase> allCases() {
  std::vector<SortCase> cases;
  for (const KeyMix mix : {KeyMix::kShort, KeyMix::kLong}) {
    for (const uint32_t partitions : {1u, 7u}) {
      for (const bool combiner : {false, true}) {
        for (const bool multi : {false, true}) {
          cases.push_back({mix, partitions, combiner, multi});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Paths, SortOrderTest, ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<SortCase>& info) {
      return caseName(info.param);
    });

}  // namespace
}  // namespace mh::mr
