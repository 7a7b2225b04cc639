#include "mh/apps/wordcount.h"

#include <gtest/gtest.h>

#include "apps_test_util.h"
#include "mh/apps/select_max.h"
#include "mh/common/rng.h"
#include "mh/data/text_corpus.h"
#include "testutil/ctype_locales.h"
#include "testutil/wordcount_reference.h"

namespace mh::apps {
namespace {

using testutil::LocalFsFixture;

class WordCountTest : public LocalFsFixture {};

/// The keys and values WordCountMapper emits for one line.
std::vector<mr::KeyValue> mapLine(std::string_view line) {
  Config conf;
  mr::Counters counters;
  std::vector<mr::KeyValue> emitted;
  mr::TaskContext ctx(conf, counters,
                      [&](std::string_view key, std::string_view value) {
                        emitted.push_back({Bytes(key), Bytes(value)});
                      });
  WordCountMapper mapper;
  mapper.map("", line, ctx);
  return emitted;
}

/// Split and trim agree with a hand-written ASCII reference on a line
/// holding every whitespace byte, apostrophes, punctuation, a NUL and
/// high bytes, under every LC_CTYPE locale the host has.
TEST(WordCountTokenizerTest, MatchesAsciiReferenceUnderAnyLocale) {
  using namespace std::string_literals;
  const std::string line =
      "\tThe\vQUICK,\r\"fox's\"  --don't--\f'tis ''  caf\xc3\xa9 "
      "\xa0na\xefve\xa0 x\x85y \xc0\xde\xdf mid\0nul (42) ...\n end."s;
  const auto expected = ::mh::testutil::referenceWordCountKeys(line);
  // The reference itself, spelled out for this line.
  ASSERT_EQ(expected, (std::vector<std::string>{
                          "the", "quick", "fox's", "don't", "'tis", "''",
                          "caf", "na\xefve", "x\x85y", "mid\0nul"s, "42",
                          "end"}));
  ::mh::testutil::forEachCtypeLocale([&](const std::string& locale) {
    const auto emitted = mapLine(line);
    std::vector<std::string> keys;
    for (const auto& kv : emitted) {
      keys.push_back(kv.key);
      EXPECT_EQ(mr::MrCodec<int64_t>::dec(kv.value), 1) << locale;
    }
    EXPECT_EQ(keys, expected) << "under " << locale;
  });
}

/// 10k random lines over all 256 byte values: the mapper's keys equal the
/// reference's on every one. Half the bytes are drawn uniformly; the other
/// half from whitespace, word bytes and trimmed bytes, so lines hold many
/// short tokens as well as long runs of arbitrary bytes.
TEST(WordCountTokenizerTest, RandomLinesMatchReference) {
  using namespace std::string_literals;
  static const std::string kBoundaryBytes =
      " \t\n\v\f\r'Az09.-\x80\xff\x00\x1f\x7f"s;
  Rng rng(24);
  for (int i = 0; i < 10'000; ++i) {
    std::string line(rng.uniform(64), '\0');
    for (char& c : line) {
      c = rng.chance(0.5)
              ? static_cast<char>(rng.uniform(256))
              : kBoundaryBytes[rng.uniform(kBoundaryBytes.size())];
    }
    std::vector<std::string> keys;
    for (const auto& kv : mapLine(line)) keys.push_back(kv.key);
    ASSERT_EQ(keys, ::mh::testutil::referenceWordCountKeys(line))
        << "line " << i << ": " << ::testing::PrintToString(line);
  }
}

TEST_F(WordCountTest, NormalizesCaseAndPunctuation) {
  fs_->writeFile(p("in.txt"), "The quick, QUICK fox. Don't stop... don't!\n");
  ASSERT_TRUE(run(makeWordCountJob({p("in.txt")}, p("out"))).succeeded());
  const auto out = readOutput(p("out"));
  EXPECT_EQ(out.at("the"), "1");
  EXPECT_EQ(out.at("quick"), "2");
  EXPECT_EQ(out.at("fox"), "1");
  EXPECT_EQ(out.at("don't"), "2");
  EXPECT_FALSE(out.contains("fox."));
}

TEST_F(WordCountTest, MatchesGeneratorGroundTruth) {
  data::TextCorpusGenerator gen(
      {.seed = 21, .vocabulary_size = 200, .target_bytes = 100'000});
  fs_->writeFile(p("corpus.txt"), gen.generate());

  const auto result =
      run(makeWordCountJob({p("corpus.txt")}, p("out"), true, 3));
  ASSERT_TRUE(result.succeeded()) << result.error;

  const auto out = readOutput(p("out"));
  uint64_t checked = 0;
  for (size_t rank = 0; rank < gen.vocabularySize(); ++rank) {
    const auto expected = gen.lastCounts()[rank];
    if (expected == 0) continue;
    ASSERT_TRUE(out.contains(gen.word(rank))) << gen.word(rank);
    EXPECT_EQ(out.at(gen.word(rank)), std::to_string(expected));
    ++checked;
  }
  EXPECT_GT(checked, 100u);
}

TEST_F(WordCountTest, CombinerPreservesAnswerCutsShuffle) {
  data::TextCorpusGenerator gen(
      {.seed = 22, .vocabulary_size = 100, .target_bytes = 60'000});
  fs_->writeFile(p("corpus.txt"), gen.generate());

  const auto plain =
      run(makeWordCountJob({p("corpus.txt")}, p("out_p"), false));
  const auto combined =
      run(makeWordCountJob({p("corpus.txt")}, p("out_c"), true));
  ASSERT_TRUE(plain.succeeded());
  ASSERT_TRUE(combined.succeeded());
  EXPECT_EQ(readOutput(p("out_p")), readOutput(p("out_c")));
  EXPECT_LT(combined.counters.value(mr::counters::kShuffleGroup,
                                    mr::counters::kShuffleBytes),
            plain.counters.value(mr::counters::kShuffleGroup,
                                 mr::counters::kShuffleBytes));
}

TEST_F(WordCountTest, TopWordViaSelectMaxChain) {
  // The Fall-2012 assignment: wordcount, then select the max — a job chain.
  data::TextCorpusGenerator gen(
      {.seed = 23, .vocabulary_size = 500, .zipf_exponent = 1.2,
       .target_bytes = 80'000});
  fs_->writeFile(p("corpus.txt"), gen.generate());
  ASSERT_TRUE(run(makeWordCountJob({p("corpus.txt")}, p("counts"))).succeeded());
  ASSERT_TRUE(run(makeSelectMaxJob({p("counts")}, p("top"))).succeeded());

  const auto out = readOutput(p("top"));
  ASSERT_EQ(out.size(), 1u);
  const auto [word, count] = gen.topWord();
  ASSERT_TRUE(out.contains(word)) << "expected top word " << word;
  EXPECT_EQ(out.at(word), std::to_string(count));
}

TEST_F(WordCountTest, EmptyInputFileYieldsEmptyOutput) {
  fs_->writeFile(p("in.txt"), "\n\n\n");
  ASSERT_TRUE(run(makeWordCountJob({p("in.txt")}, p("out"))).succeeded());
  EXPECT_TRUE(readOutput(p("out")).empty());
}

TEST_F(WordCountTest, SelectMaxTieBreaksBySmallerKey) {
  fs_->writeFile(p("counts.txt"), "b\t5\na\t5\nc\t4\n");
  ASSERT_TRUE(run(makeSelectMaxJob({p("counts.txt")}, p("top"))).succeeded());
  const auto out = readOutput(p("top"));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.contains("a"));
}

TEST_F(WordCountTest, SelectMaxIgnoresMalformedLines) {
  fs_->writeFile(p("counts.txt"), "good\t3\nnotab\nbad\tNaNish?\nx\t7\n");
  ASSERT_TRUE(run(makeSelectMaxJob({p("counts.txt")}, p("top"))).succeeded());
  const auto out = readOutput(p("top"));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.contains("x"));
}

}  // namespace
}  // namespace mh::apps
