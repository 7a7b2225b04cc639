#include "mh/mr/local_runner.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "mh/common/rng.h"
#include "mr_test_jobs.h"

namespace mh::mr {
namespace {

namespace fs = std::filesystem;
using namespace testjobs;

class LocalRunnerTest : public ::testing::Test {
 protected:
  LocalRunnerTest() {
    root_ = fs::temp_directory_path() /
            ("mh_local_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    local_ = std::make_unique<LocalFs>(256);  // small splits
  }
  ~LocalRunnerTest() override { fs::remove_all(root_); }

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

  fs::path root_;
  std::unique_ptr<LocalFs> local_;
};

TEST_F(LocalRunnerTest, WordCountEndToEnd) {
  const std::string corpus = "the cat and the hat\nthe end\n";
  local_->writeFile(p("in/corpus.txt"), corpus);

  LocalJobRunner runner(*local_);
  const auto result = runner.run(wordCountSpec({p("in")}, p("out")));
  ASSERT_TRUE(result.succeeded()) << result.error;

  const auto counts = readCounts(*local_, p("out"));
  EXPECT_EQ(counts, referenceCounts(corpus));
  EXPECT_EQ(counts.at("the"), 3);
}

TEST_F(LocalRunnerTest, OutputIsKeySorted) {
  local_->writeFile(p("in.txt"), "zebra apple mango apple\n");
  LocalJobRunner runner(*local_);
  ASSERT_TRUE(runner.run(wordCountSpec({p("in.txt")}, p("out"))).succeeded());
  const auto body =
      local_->readRange(p("out") + "/part-00000", 0, 1 << 20);
  EXPECT_EQ(body, "apple\t2\nmango\t1\nzebra\t1\n");
}

TEST_F(LocalRunnerTest, CountersMatchWorkload) {
  const std::string corpus = "a b\nc\n";
  local_->writeFile(p("in.txt"), corpus);
  LocalJobRunner runner(*local_);
  const auto result = runner.run(wordCountSpec({p("in.txt")}, p("out")));
  ASSERT_TRUE(result.succeeded());
  using namespace counters;
  EXPECT_EQ(result.counters.value(kTaskGroup, kMapInputRecords), 2);
  EXPECT_EQ(result.counters.value(kTaskGroup, kMapOutputRecords), 3);
  EXPECT_EQ(result.counters.value(kTaskGroup, kReduceInputRecords), 3);
  EXPECT_EQ(result.counters.value(kTaskGroup, kReduceInputGroups), 3);
  EXPECT_EQ(result.counters.value(kTaskGroup, kReduceOutputRecords), 3);
  EXPECT_EQ(result.counters.value(kJobGroup, kLaunchedMaps), 1);
  EXPECT_EQ(result.counters.value(kJobGroup, kLaunchedReduces), 1);
}

TEST_F(LocalRunnerTest, CombinerShrinksSpillButKeepsResults) {
  const std::string corpus = makeCorpus(500, 42);
  local_->writeFile(p("in.txt"), corpus);
  LocalJobRunner runner(*local_);

  const auto plain =
      runner.run(wordCountSpec({p("in.txt")}, p("out_plain"), false));
  const auto combined =
      runner.run(wordCountSpec({p("in.txt")}, p("out_comb"), true));
  ASSERT_TRUE(plain.succeeded());
  ASSERT_TRUE(combined.succeeded());

  // Identical answers...
  EXPECT_EQ(readCounts(*local_, p("out_plain")),
            readCounts(*local_, p("out_comb")));
  // ...but far fewer records spilled and shuffled (8-word vocabulary).
  using namespace counters;
  EXPECT_LT(combined.counters.value(kTaskGroup, kSpilledRecords),
            plain.counters.value(kTaskGroup, kSpilledRecords) / 4);
  EXPECT_LT(combined.counters.value(kShuffleGroup, kShuffleBytes),
            plain.counters.value(kShuffleGroup, kShuffleBytes) / 4);
  EXPECT_GT(combined.counters.value(kTaskGroup, kCombineInputRecords), 0);
}

TEST_F(LocalRunnerTest, MultipleReducersCoverAllKeys) {
  const std::string corpus = makeCorpus(200, 7);
  local_->writeFile(p("in.txt"), corpus);
  LocalJobRunner runner(*local_);
  const auto result =
      runner.run(wordCountSpec({p("in.txt")}, p("out"), false, 4));
  ASSERT_TRUE(result.succeeded());
  // Four part files exist; their union is the full answer.
  int parts = 0;
  for (const auto& f : local_->listFiles(p("out"))) {
    if (f.find("part-") != std::string::npos) ++parts;
  }
  EXPECT_EQ(parts, 4);
  EXPECT_EQ(readCounts(*local_, p("out")), referenceCounts(corpus));
}

TEST_F(LocalRunnerTest, ThrowingReducerFailsJobWithMessage) {
  local_->writeFile(p("in.txt"), makeCorpus(50, 3));
  JobSpec spec = wordCountSpec({p("in.txt")}, p("out"), false, 4);
  spec.reducer = reducerFromLambda(
      [](std::string_view, ValuesIterator&, TaskContext&) {
        throw IoError("reducer exploded");
      });
  LocalJobRunner runner(*local_);
  const auto result = runner.run(std::move(spec));
  EXPECT_FALSE(result.succeeded());
  EXPECT_NE(result.error.find("reducer exploded"), std::string::npos);
}

TEST_F(LocalRunnerTest, ThrowingMapperFailsJobWithMessage) {
  local_->writeFile(p("in.txt"), "boom\n");
  JobSpec spec = wordCountSpec({p("in.txt")}, p("out"));
  spec.mapper = mapperFromLambda(
      [](std::string_view, std::string_view, TaskContext&) {
        throw IoError("user code exploded");
      });
  LocalJobRunner runner(*local_);
  const auto result = runner.run(std::move(spec));
  EXPECT_FALSE(result.succeeded());
  EXPECT_NE(result.error.find("user code exploded"), std::string::npos);
}

TEST_F(LocalRunnerTest, InvalidSpecsFailCleanly) {
  LocalJobRunner runner(*local_);
  JobSpec no_mapper;
  no_mapper.reducer = [] { return std::make_unique<SumReducer>(); };
  no_mapper.input_paths = {p("x")};
  no_mapper.output_dir = p("out");
  EXPECT_FALSE(runner.run(std::move(no_mapper)).succeeded());

  JobSpec zero_reducers = wordCountSpec({p("x")}, p("out"));
  zero_reducers.num_reducers = 0;
  EXPECT_FALSE(runner.run(std::move(zero_reducers)).succeeded());

  // Values outside the key table's range fail validation, naming the key,
  // before any task runs.
  for (const char* sort_mb : {"0", "2048"}) {
    JobSpec spec = wordCountSpec({p("x")}, p("out"));
    spec.conf.set("io.sort.mb", sort_mb);
    const JobResult result = runner.run(std::move(spec));
    EXPECT_FALSE(result.succeeded());
    EXPECT_NE(result.error.find("io.sort.mb"), std::string::npos)
        << result.error;
  }
}

TEST_F(LocalRunnerTest, MissingInputFailsJob) {
  LocalJobRunner runner(*local_);
  const auto result = runner.run(wordCountSpec({p("nonexistent")}, p("out")));
  EXPECT_FALSE(result.succeeded());
}

// Property: an identity job is a (sorted, partition-stable) permutation —
// nothing is lost or duplicated across arbitrary binary records.
TEST_F(LocalRunnerTest, IdentityJobPreservesRecordsProperty) {
  Rng rng(1234);
  std::string body;
  std::map<std::string, int64_t> expected;
  for (int i = 0; i < 300; ++i) {
    std::string line = "key" + std::to_string(rng.uniform(50));
    ++expected[line];
    body += line;
    body.push_back('\n');
  }
  local_->writeFile(p("in.txt"), body);

  JobSpec spec;
  spec.name = "identity";
  spec.input_paths = {p("in.txt")};
  spec.output_dir = p("out");
  spec.num_reducers = 3;
  spec.mapper = mapperFromLambda(
      [](std::string_view, std::string_view value, TaskContext& ctx) {
        ctx.emit(Bytes(value), "1");
      });
  spec.reducer = reducerFromLambda(
      [](std::string_view key, ValuesIterator& values, TaskContext& ctx) {
        int64_t n = 0;
        while (values.next()) ++n;
        ctx.emit(Bytes(key), std::to_string(n));
      });
  LocalJobRunner runner(*local_);
  ASSERT_TRUE(runner.run(std::move(spec)).succeeded());
  EXPECT_EQ(readCounts(*local_, p("out")), expected);
}

TEST_F(LocalRunnerTest, CleanupHookRunsForInMapperCombining) {
  // In-mapper combining (the third §III-A variant): aggregate in the mapper,
  // flush at cleanup(). The engine must call cleanup exactly once per task.
  local_->writeFile(p("in.txt"), "x x x\nx x\n");

  class InMapperCombiningMapper : public Mapper {
   public:
    void map(std::string_view, std::string_view value,
             TaskContext& ctx) override {
      for (const auto& w : splitWhitespace(value)) {
        ++counts_[std::string(w)];
        ctx.allocateHeap(16);
      }
    }
    void cleanup(TaskContext& ctx) override {
      for (const auto& [word, n] : counts_) {
        ctx.emitTyped<std::string, int64_t>(word, n);
      }
      ctx.allocateHeap(-16 * 5);
      counts_.clear();
    }

   private:
    std::map<std::string, int64_t> counts_;
  };

  JobSpec spec = wordCountSpec({p("in.txt")}, p("out"));
  spec.mapper = [] { return std::make_unique<InMapperCombiningMapper>(); };
  LocalJobRunner runner(*local_);
  const auto result = runner.run(std::move(spec));
  ASSERT_TRUE(result.succeeded());
  EXPECT_EQ(readCounts(*local_, p("out")).at("x"), 5);
  // Only one record left the mapper (pre-aggregated).
  EXPECT_EQ(result.counters.value(counters::kTaskGroup,
                                  counters::kMapOutputRecords),
            1);
}

}  // namespace
}  // namespace mh::mr
