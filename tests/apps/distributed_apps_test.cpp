#include <gtest/gtest.h>

#include "apps_test_util.h"
#include "mh/apps/gtrace.h"
#include "mh/apps/movies.h"
#include "mh/apps/music.h"
#include "mh/apps/select_max.h"
#include "mh/common/strings.h"
#include "mh/data/gtrace.h"
#include "mh/data/movies.h"
#include "mh/data/music.h"
#include "mh/mr/mini_mr_cluster.h"
#include "testutil/aggressive_timers.h"

namespace mh::apps {
namespace {

// Every assignment job must produce the same answers when run distributed
// over HDFS as it does serially — the heart of assignment 2 part 1
// ("reruns [the jars from assignment 1] on the data on HDFS").
class DistributedAppsTest : public ::testing::Test {
 protected:
  DistributedAppsTest() {
    Config conf = mh::testutil::aggressiveTimers();
    conf.setInt("dfs.replication", 2);
    conf.setInt("dfs.blocksize", 64 * 1024);
    cluster_ = std::make_unique<mr::MiniMrCluster>(
        mr::MiniMrOptions{.num_nodes = 3, .conf = conf});
    hdfs_ = std::make_unique<mr::HdfsFs>(cluster_->client());
  }

  std::map<std::string, std::string> readOutput(const std::string& dir) {
    std::map<std::string, std::string> out;
    for (const auto& file : hdfs_->listFiles(dir)) {
      if (file.find("part-") == std::string::npos) continue;
      const Bytes body = hdfs_->readRange(file, 0, hdfs_->fileLength(file));
      size_t pos = 0;
      while (pos < body.size()) {
        const size_t nl = body.find('\n', pos);
        const std::string line = body.substr(pos, nl - pos);
        pos = nl + 1;
        const auto tab = line.find('\t');
        out[line.substr(0, tab)] =
            tab == std::string::npos ? "" : line.substr(tab + 1);
      }
    }
    return out;
  }

  std::unique_ptr<mr::MiniMrCluster> cluster_;
  std::unique_ptr<mr::HdfsFs> hdfs_;
};

TEST_F(DistributedAppsTest, MovieAssignmentOnHdfs) {
  data::MoviesGenerator generator({.seed = 71,
                                   .num_users = 120,
                                   .num_movies = 50,
                                   .num_ratings = 12'000});
  cluster_->client().writeFile("/data/movies.csv",
                               generator.generateMoviesCsv());
  cluster_->client().writeFile("/data/ratings.csv",
                               generator.generateRatingsCsv());

  ASSERT_TRUE(cluster_
                  ->runJob(makeGenreStatsJob({"/data/ratings.csv"},
                                             "/data/movies.csv", "/out/genres",
                                             SideDataMode::kCached, 2))
                  .succeeded());
  const auto genres = readOutput("/out/genres");
  const auto& truth = generator.truth();
  ASSERT_EQ(genres.size(), truth.genre_stats.size());
  for (const auto& [genre, stat] : truth.genre_stats) {
    const auto parts = splitWhitespace(genres.at(genre));
    EXPECT_EQ(std::stoll(std::string(parts[0])), stat.count()) << genre;
    EXPECT_NEAR(std::stod(std::string(parts[1])), stat.mean(), 0.005) << genre;
  }

  ASSERT_TRUE(cluster_
                  ->runJob(makeTopRaterJob({"/data/ratings.csv"},
                                           "/data/movies.csv", "/out/top"))
                  .succeeded());
  const auto top = readOutput("/out/top");
  ASSERT_EQ(top.size(), 1u);
  EXPECT_TRUE(top.contains(std::to_string(truth.top_user)));
}

TEST_F(DistributedAppsTest, MusicAssignmentOnHdfs) {
  data::MusicGenerator generator({.seed = 72,
                                  .num_users = 150,
                                  .num_songs = 90,
                                  .num_albums = 15,
                                  .num_ratings = 15'000});
  cluster_->client().writeFile("/data/songs.tsv",
                               generator.generateSongsTsv());
  cluster_->client().writeFile("/data/ratings.tsv",
                               generator.generateRatingsTsv());
  ASSERT_TRUE(cluster_
                  ->runJob(makeAlbumAverageJob({"/data/ratings.tsv"},
                                               "/data/songs.tsv",
                                               "/out/means", 2))
                  .succeeded());
  ASSERT_TRUE(
      cluster_->runJob(makeSelectMaxJob({"/out/means"}, "/out/best"))
          .succeeded());
  const auto best = readOutput("/out/best");
  ASSERT_EQ(best.size(), 1u);
  EXPECT_TRUE(
      best.contains(std::to_string(generator.truth().best_album)));
}

TEST_F(DistributedAppsTest, GtraceAssignmentOnHdfs) {
  data::GTraceGenerator generator(
      {.seed = 73, .num_jobs = 40, .resubmit_probability = 0.25});
  cluster_->client().writeFile("/data/trace.csv", generator.generateCsv());
  ASSERT_TRUE(
      cluster_->runJob(makeResubmissionJob({"/data/trace.csv"},
                                           "/out/counts", 2))
          .succeeded());
  ASSERT_TRUE(
      cluster_->runJob(makeSelectMaxJob({"/out/counts"}, "/out/worst"))
          .succeeded());
  const auto worst = readOutput("/out/worst");
  ASSERT_EQ(worst.size(), 1u);
  EXPECT_EQ(std::stoull(worst.begin()->second),
            generator.truth().worst_job_resubmissions);
}

}  // namespace
}  // namespace mh::apps
