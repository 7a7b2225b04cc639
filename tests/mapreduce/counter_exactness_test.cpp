#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "mh/apps/wordcount.h"
#include "mh/common/rng.h"
#include "mh/mr/local_runner.h"
#include "mh/mr/mini_mr_cluster.h"
#include "testutil/aggressive_timers.h"
#include "testutil/wordcount_reference.h"

/// Map tasks tally their record counters locally and publish them once the
/// attempt succeeds. These tests pin every record counter of the shipped
/// WordCount — serial and distributed, with and without its combiner — to
/// values computed straight from the corpus, and check that an attempt
/// which throws midway adds nothing to the job's totals.

namespace mh::mr {
namespace {

namespace stdfs = std::filesystem;
using namespace counters;

constexpr int kFiles = 3;

/// Lines mixing case, punctuation, tabs, blank lines and lines with no
/// word at all. Every file stays far below one block and one split, so
/// each file is exactly one map task.
std::string makeFile(int lines, uint64_t seed) {
  static const char* kWords[] = {"Data",  "local,", "BLOCK", "shuffle.",
                                 "merge", "don't", "--",    "Map"};
  Rng rng(seed);
  std::string text;
  for (int i = 0; i < lines; ++i) {
    const auto words = rng.uniform(7);
    for (uint64_t w = 0; w < words; ++w) {
      text += kWords[rng.uniform(8)];
      text.push_back(w + 1 == words ? '\n' : (w % 3 == 2 ? '\t' : ' '));
    }
    if (words == 0) text.push_back('\n');
  }
  return text;
}

/// What each record counter must read, computed from the corpus alone.
struct Expected {
  int64_t map_input = 0;
  int64_t map_output = 0;
  int64_t map_output_bytes = 0;
  int64_t combine_input = 0;
  int64_t combine_output = 0;
  int64_t reduce_input = 0;
  int64_t reduce_output = 0;
  int64_t spilled = 0;
  int64_t spills = 0;
};

Expected expectedCounters(const std::vector<std::string>& files,
                          bool with_combiner) {
  // Every emitted value is the encoded count 1.
  const auto value_bytes =
      static_cast<int64_t>(MrCodec<int64_t>::enc(1).size());
  Expected e;
  std::set<std::string> all_keys;
  for (const std::string& text : files) {
    e.map_input += static_cast<int64_t>(
        std::count(text.begin(), text.end(), '\n'));
    const auto keys = testutil::referenceWordCountKeys(text);
    e.map_output += static_cast<int64_t>(keys.size());
    for (const auto& key : keys) {
      e.map_output_bytes += static_cast<int64_t>(key.size()) + value_bytes;
    }
    // One spill per map: the combiner sees every map output record once
    // and emits one record per distinct key of the file.
    const std::set<std::string> distinct(keys.begin(), keys.end());
    if (with_combiner) {
      e.combine_input += static_cast<int64_t>(keys.size());
      e.combine_output += static_cast<int64_t>(distinct.size());
    }
    all_keys.insert(distinct.begin(), distinct.end());
    ++e.spills;
  }
  e.spilled = with_combiner ? e.combine_output : e.map_output;
  e.reduce_input = e.spilled;
  e.reduce_output = static_cast<int64_t>(all_keys.size());
  return e;
}

void expectCounters(const Counters& c, const Expected& e) {
  EXPECT_EQ(c.value(kTaskGroup, kMapInputRecords), e.map_input);
  EXPECT_EQ(c.value(kTaskGroup, kMapOutputRecords), e.map_output);
  EXPECT_EQ(c.value(kTaskGroup, kMapOutputBytes), e.map_output_bytes);
  EXPECT_EQ(c.value(kTaskGroup, kCombineInputRecords), e.combine_input);
  EXPECT_EQ(c.value(kTaskGroup, kCombineOutputRecords), e.combine_output);
  EXPECT_EQ(c.value(kTaskGroup, kReduceInputRecords), e.reduce_input);
  EXPECT_EQ(c.value(kTaskGroup, kReduceOutputRecords), e.reduce_output);
  EXPECT_EQ(c.value(kTaskGroup, kSpilledRecords), e.spilled);
  EXPECT_EQ(c.value(kTaskGroup, kMapSpills), e.spills);
}

std::vector<std::string> makeCorpus() {
  std::vector<std::string> files;
  for (int f = 0; f < kFiles; ++f) files.push_back(makeFile(400, 31 + f));
  return files;
}

class CounterExactnessTest : public ::testing::TestWithParam<bool> {};

TEST_P(CounterExactnessTest, LocalRunnerCountersMatchCorpus) {
  const bool with_combiner = GetParam();
  const auto files = makeCorpus();
  const stdfs::path root =
      stdfs::temp_directory_path() /
      ("mh_counters_" + std::to_string(::getpid()) +
       (with_combiner ? "_c" : "_p"));
  stdfs::remove_all(root);
  LocalFs local(8ull << 20);
  std::vector<std::string> inputs;
  for (int f = 0; f < kFiles; ++f) {
    inputs.push_back((root / ("in" + std::to_string(f) + ".txt")).string());
    local.writeFile(inputs.back(), files[f]);
  }
  LocalJobRunner runner(local);
  const auto result = runner.run(apps::makeWordCountJob(
      inputs, (root / "out").string(), with_combiner, 3));
  ASSERT_TRUE(result.succeeded()) << result.error;
  expectCounters(result.counters, expectedCounters(files, with_combiner));
  stdfs::remove_all(root);
}

TEST_P(CounterExactnessTest, ClusterCountersMatchCorpus) {
  const bool with_combiner = GetParam();
  const auto files = makeCorpus();
  MiniMrCluster cluster({.num_nodes = 3, .conf = testutil::aggressiveTimers()});
  auto client = cluster.client();
  for (int f = 0; f < kFiles; ++f) {
    client.writeFile("/in/part" + std::to_string(f) + ".txt", files[f]);
  }
  const auto result =
      cluster.runJob(apps::makeWordCountJob({"/in"}, "/out", with_combiner, 3));
  ASSERT_TRUE(result.succeeded()) << result.error;
  expectCounters(result.counters, expectedCounters(files, with_combiner));
}

INSTANTIATE_TEST_SUITE_P(Combiner, CounterExactnessTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "WithCombiner" : "Plain";
                         });

/// The shipped WordCount mapper, except that the first attempt to reach
/// the poison line throws — after it has already emitted and counted the
/// records before it.
class ThrowOnceMapper final : public Mapper {
 public:
  static constexpr std::string_view kPoison = "poison line";
  static std::atomic<bool> thrown;

  void map(std::string_view key, std::string_view value,
           TaskContext& ctx) override {
    ctx.counters().increment("app", "LINES_SEEN");
    if (value == kPoison && !thrown.exchange(true)) {
      throw std::runtime_error("injected map failure");
    }
    inner_.map(key, value, ctx);
  }

 private:
  apps::WordCountMapper inner_;
};

std::atomic<bool> ThrowOnceMapper::thrown{false};

/// A distributed attempt that throws midway is discarded whole: the retry
/// alone supplies the task's record counters (and user counters), so the
/// job totals still equal the corpus-derived values exactly.
TEST(CounterExactnessFailureTest, FailedAttemptAddsNothingToJobTotals) {
  auto files = makeCorpus();
  // Midway through the second file: the failed attempt has emitted about
  // half its records by then.
  const size_t mid = files[1].find('\n', files[1].size() / 2) + 1;
  files[1].insert(mid, std::string(ThrowOnceMapper::kPoison) + "\n");
  ThrowOnceMapper::thrown = false;

  MiniMrCluster cluster({.num_nodes = 3, .conf = testutil::aggressiveTimers()});
  auto client = cluster.client();
  for (int f = 0; f < kFiles; ++f) {
    client.writeFile("/in/part" + std::to_string(f) + ".txt", files[f]);
  }
  auto spec = apps::makeWordCountJob({"/in"}, "/out", true, 2);
  spec.mapper = [] { return std::make_unique<ThrowOnceMapper>(); };
  const auto result = cluster.runJob(std::move(spec));
  ASSERT_TRUE(result.succeeded()) << result.error;
  ASSERT_TRUE(ThrowOnceMapper::thrown.load());

  EXPECT_EQ(result.counters.value(kJobGroup, kFailedMaps), 1);
  const Expected e = expectedCounters(files, true);
  expectCounters(result.counters, e);
  EXPECT_EQ(result.counters.value("app", "LINES_SEEN"), e.map_input);
}

/// The serial runner has no retries: a throwing map fails the job, and no
/// record counter of the failed task reaches the job's counters.
TEST(CounterExactnessFailureTest, LocalRunnerFailedJobReportsNoTaskCounts) {
  const stdfs::path root = stdfs::temp_directory_path() /
                           ("mh_counters_fail_" + std::to_string(::getpid()));
  stdfs::remove_all(root);
  LocalFs local(8ull << 20);
  const std::string input = (root / "in.txt").string();
  local.writeFile(input, "alpha beta\n" + std::string(ThrowOnceMapper::kPoison) +
                             "\ngamma\n");
  ThrowOnceMapper::thrown = false;
  auto spec = apps::makeWordCountJob({input}, (root / "out").string(), false);
  spec.mapper = [] { return std::make_unique<ThrowOnceMapper>(); };
  LocalJobRunner runner(local);
  const auto result = runner.run(std::move(spec));
  EXPECT_FALSE(result.succeeded());
  for (const char* name : {kMapInputRecords, kMapOutputRecords,
                           kMapOutputBytes, kSpilledRecords}) {
    EXPECT_EQ(result.counters.value(kTaskGroup, name), 0) << name;
  }
  EXPECT_EQ(result.counters.value("app", "LINES_SEEN"), 0);
  stdfs::remove_all(root);
}

}  // namespace
}  // namespace mh::mr
