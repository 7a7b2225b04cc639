#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "mh/common/crc32.h"
#include "mh/common/strings.h"
#include "mh/data/airline.h"
#include "mh/data/gtrace.h"
#include "mh/data/movies.h"
#include "mh/data/music.h"
#include "mh/data/text_corpus.h"

namespace mh::data {
namespace {

// ------------------------------------------------------------ text corpus

TEST(TextCorpusTest, DeterministicForSeed) {
  TextCorpusGenerator a({.seed = 9, .target_bytes = 10'000});
  TextCorpusGenerator b({.seed = 9, .target_bytes = 10'000});
  EXPECT_EQ(a.generate(), b.generate());
}

TEST(TextCorpusTest, DifferentSeedsDiffer) {
  TextCorpusGenerator a({.seed = 1, .target_bytes = 10'000});
  TextCorpusGenerator b({.seed = 2, .target_bytes = 10'000});
  EXPECT_NE(a.generate(), b.generate());
}

TEST(TextCorpusTest, SizeAndLineShape) {
  TextCorpusOptions options;
  options.target_bytes = 50'000;
  options.min_words_per_line = 3;
  options.max_words_per_line = 6;
  TextCorpusGenerator gen(options);
  const Bytes corpus = gen.generate();
  EXPECT_GE(corpus.size(), options.target_bytes);
  EXPECT_LE(corpus.size(), options.target_bytes + 200);
  EXPECT_EQ(corpus.back(), '\n');
  std::istringstream lines{corpus};
  std::string line;
  while (std::getline(lines, line)) {
    const auto words = splitWhitespace(line).size();
    EXPECT_GE(words, 3u);
    EXPECT_LE(words, 6u);
  }
}

TEST(TextCorpusTest, CountsMatchCorpusExactly) {
  TextCorpusGenerator gen({.seed = 4, .vocabulary_size = 50,
                           .target_bytes = 20'000});
  const Bytes corpus = gen.generate();
  std::map<std::string, uint64_t> recount;
  for (const auto& w : splitWhitespace(corpus)) ++recount[std::string(w)];
  uint64_t total = 0;
  for (size_t r = 0; r < gen.vocabularySize(); ++r) {
    const auto expected = gen.lastCounts()[r];
    total += expected;
    if (expected > 0) {
      EXPECT_EQ(recount.at(gen.word(r)), expected) << gen.word(r);
    }
  }
  EXPECT_EQ(total, splitWhitespace(corpus).size());
}

TEST(TextCorpusTest, ZipfMakesRank0TheTopWord) {
  TextCorpusGenerator gen({.seed = 3, .vocabulary_size = 1000,
                           .zipf_exponent = 1.1,
                           .target_bytes = 200'000});
  gen.generate();
  const auto [word, count] = gen.topWord();
  EXPECT_EQ(word, gen.word(0));
  EXPECT_GT(count, 0u);
}

TEST(TextCorpusTest, PseudoWordsAreDistinct) {
  std::set<std::string> seen;
  for (uint64_t i = 0; i < 5000; ++i) {
    EXPECT_TRUE(seen.insert(pseudoWord(i)).second) << i;
  }
}

TEST(TextCorpusTest, TopWordBeforeGenerateThrows) {
  TextCorpusGenerator gen;
  EXPECT_THROW(gen.topWord(), IllegalStateError);
}

// ---------------------------------------------------------------- airline

TEST(AirlineTest, SchemaAndDeterminism) {
  AirlineGenerator a({.seed = 5, .rows = 2'000});
  AirlineGenerator b({.seed = 5, .rows = 2'000});
  const Bytes csv = a.generateCsv();
  EXPECT_EQ(csv, b.generateCsv());

  std::istringstream lines{csv};
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_TRUE(line.starts_with("Year,Month"));
  size_t rows = 0;
  while (std::getline(lines, line)) {
    ++rows;
    EXPECT_EQ(splitString(line, ',').size(), 13u) << line;
  }
  EXPECT_EQ(rows, 2'000u);
}

TEST(AirlineTest, GroundTruthMatchesRecount) {
  AirlineGenerator gen({.seed = 6, .rows = 5'000, .num_carriers = 5});
  const Bytes csv = gen.generateCsv();
  std::map<std::string, std::pair<double, uint64_t>> recount;
  std::istringstream lines{csv};
  std::string line;
  std::getline(lines, line);  // header
  while (std::getline(lines, line)) {
    const auto f = splitString(line, ',');
    if (f[12] == "1") continue;
    auto& [sum, n] = recount[f[5]];
    sum += std::stod(f[9]);
    ++n;
  }
  for (const auto& [carrier, truth_mean] : gen.truth().mean_arr_delay) {
    const auto& [sum, n] = recount.at(carrier);
    EXPECT_NEAR(sum / static_cast<double>(n), truth_mean, 1e-9) << carrier;
    EXPECT_EQ(n, gen.truth().flights.at(carrier));
  }
  EXPECT_FALSE(gen.truth().worst_carrier.empty());
}

TEST(AirlineTest, CancelledRowsHaveNaDelay) {
  AirlineGenerator gen({.seed = 7, .rows = 3'000, .cancelled_fraction = 0.3});
  const Bytes csv = gen.generateCsv();
  std::istringstream lines{csv};
  std::string line;
  std::getline(lines, line);
  size_t cancelled = 0;
  while (std::getline(lines, line)) {
    const auto f = splitString(line, ',');
    if (f[12] == "1") {
      ++cancelled;
      EXPECT_EQ(f[9], "NA");
    }
  }
  EXPECT_GT(cancelled, 600u);  // ~30% of 3000
}

// ----------------------------------------------------------------- movies

TEST(MoviesTest, GenresAreFromTheCanonicalList) {
  MoviesGenerator gen({.seed = 8, .num_movies = 100});
  const auto& genres = movieGenres();
  for (uint32_t m = 1; m <= 100; ++m) {
    const auto& assigned = gen.genresOf(m);
    EXPECT_GE(assigned.size(), 1u);
    EXPECT_LE(assigned.size(), 3u);
    for (const auto& g : assigned) {
      EXPECT_NE(std::find(genres.begin(), genres.end(), g), genres.end());
    }
  }
}

TEST(MoviesTest, TruthMatchesRecount) {
  MoviesGenerator gen(
      {.seed = 9, .num_users = 100, .num_movies = 50, .num_ratings = 20'000});
  gen.generateMoviesCsv();
  const Bytes ratings = gen.generateRatingsCsv();

  std::map<uint32_t, uint64_t> per_user;
  std::map<std::string, std::pair<double, int64_t>> per_genre;
  std::istringstream lines{ratings};
  std::string line;
  while (std::getline(lines, line)) {
    const auto f = splitString(line, ',');
    const auto user = static_cast<uint32_t>(std::stoul(f[0]));
    const auto movie = static_cast<uint32_t>(std::stoul(f[1]));
    const double rating = std::stod(f[2]);
    ++per_user[user];
    for (const auto& g : gen.genresOf(movie)) {
      per_genre[g].first += rating;
      ++per_genre[g].second;
    }
  }
  const auto& truth = gen.truth();
  EXPECT_EQ(per_user.at(truth.top_user), truth.top_user_ratings);
  for (const auto& [user, n] : per_user) EXPECT_LE(n, truth.top_user_ratings);
  for (const auto& [genre, stat] : truth.genre_stats) {
    const auto& [sum, n] = per_genre.at(genre);
    EXPECT_EQ(n, stat.count());
    EXPECT_NEAR(sum / static_cast<double>(n), stat.mean(), 1e-9);
  }
  EXPECT_FALSE(truth.top_user_favorite_genre.empty());
}

TEST(MoviesTest, MoviesCsvParseable) {
  MoviesGenerator gen({.seed = 10, .num_movies = 20});
  const Bytes csv = gen.generateMoviesCsv();
  std::istringstream lines{csv};
  std::string line;
  size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    EXPECT_NE(line.find(','), std::string::npos);
  }
  EXPECT_EQ(n, 20u);
}

// ------------------------------------------------------------------ music

TEST(MusicTest, TruthMatchesRecount) {
  MusicGenerator gen({.seed = 11,
                      .num_users = 200,
                      .num_songs = 100,
                      .num_albums = 20,
                      .num_ratings = 30'000});
  gen.generateSongsTsv();
  const Bytes ratings = gen.generateRatingsTsv();

  std::map<uint32_t, std::pair<double, int64_t>> per_album;
  std::istringstream lines{ratings};
  std::string line;
  while (std::getline(lines, line)) {
    const auto f = splitString(line, '\t');
    const auto song = static_cast<uint32_t>(std::stoul(f[1]));
    per_album[gen.albumOf(song)].first += std::stod(f[2]);
    ++per_album[gen.albumOf(song)].second;
  }
  const auto& truth = gen.truth();
  double best = -1;
  for (const auto& [album, agg] : per_album) {
    const double mean = agg.first / static_cast<double>(agg.second);
    EXPECT_NEAR(mean, truth.album_stats.at(album).mean(), 1e-9);
    best = std::max(best, mean);
  }
  EXPECT_NEAR(best, truth.best_album_mean, 1e-9);
  EXPECT_GT(truth.best_album, 0u);
}

TEST(MusicTest, SongsTableCoversAllSongs) {
  MusicGenerator gen({.seed = 12, .num_songs = 50, .num_albums = 10});
  const Bytes songs = gen.generateSongsTsv();
  std::istringstream lines{songs};
  std::string line;
  size_t n = 0;
  while (std::getline(lines, line)) {
    const auto f = splitString(line, '\t');
    ASSERT_EQ(f.size(), 3u);
    ++n;
  }
  EXPECT_EQ(n, 50u);
}

// ----------------------------------------------------------------- gtrace

TEST(GTraceTest, TruthMatchesRecount) {
  GTraceGenerator gen({.seed = 13, .num_jobs = 50});
  const Bytes csv = gen.generateCsv();

  std::map<uint64_t, uint64_t> submits;
  std::map<uint64_t, std::set<uint32_t>> tasks;
  std::istringstream lines{csv};
  std::string line;
  uint64_t prev_ts = 0;
  uint64_t events = 0;
  while (std::getline(lines, line)) {
    ++events;
    const auto f = splitString(line, ',');
    ASSERT_EQ(f.size(), 6u);
    const uint64_t ts = std::stoull(f[0]);
    EXPECT_GE(ts, prev_ts);  // timestamp-ordered
    prev_ts = ts;
    if (f[4] == "SUBMIT") {
      const uint64_t job = std::stoull(f[1]);
      ++submits[job];
      tasks[job].insert(static_cast<uint32_t>(std::stoul(f[2])));
    }
  }
  const auto& truth = gen.truth();
  EXPECT_EQ(events, truth.total_events);
  for (const auto& [job, resubmits] : truth.resubmissions_per_job) {
    EXPECT_EQ(submits[job] - tasks[job].size(), resubmits) << job;
  }
  // The worst job is consistent.
  EXPECT_EQ(truth.resubmissions_per_job.at(truth.worst_job),
            truth.worst_job_resubmissions);
}

TEST(GTraceTest, SomeResubmissionsHappen) {
  GTraceGenerator gen({.seed = 14, .num_jobs = 100,
                       .resubmit_probability = 0.3});
  gen.generateCsv();
  EXPECT_GT(gen.truth().worst_job_resubmissions, 0u);
}

// ------------------------------------------------------------ pinned bytes

/// The generators' outputs for fixed seeds, pinned by CRC-32C. Every
/// workload, benchmark and lab reads these bytes, so a change to a sampler
/// (rng.h) that moves a single draw shows here. The text corpus pins both
/// the benchmark's vocabulary (20000 words, the bulk WordCount corpus) and
/// the default one.
TEST(GeneratorPinTest, TextCorpusBytesArePinned) {
  EXPECT_EQ(crc32c(TextCorpusGenerator({.seed = 7,
                                        .vocabulary_size = 20'000,
                                        .target_bytes = 4 << 20})
                       .generate()),
            0x77D41FDAu);
  EXPECT_EQ(crc32c(TextCorpusGenerator({.seed = 1001}).generate()),
            0xD29EBC50u);
}

TEST(GeneratorPinTest, MoviesBytesArePinned) {
  MoviesGenerator gen({.seed = 1997});
  EXPECT_EQ(crc32c(gen.generateMoviesCsv()), 0x2B3E337Bu);
  EXPECT_EQ(crc32c(gen.generateRatingsCsv()), 0x56F76593u);
}

TEST(GeneratorPinTest, MusicBytesArePinned) {
  MusicGenerator gen({.seed = 3});
  EXPECT_EQ(crc32c(gen.generateSongsTsv()), 0x502C6117u);
  EXPECT_EQ(crc32c(gen.generateRatingsTsv()), 0xCE6A57CFu);
}

}  // namespace
}  // namespace mh::data
