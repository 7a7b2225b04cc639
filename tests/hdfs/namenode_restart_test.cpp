#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mh/common/rng.h"
#include "mh/common/stopwatch.h"
#include "mh/hdfs/edit_log.h"
#include "mh/hdfs/mini_cluster.h"
#include "testutil/aggressive_timers.h"
#include "testutil/sanitizers.h"

/// \file namenode_restart_test.cpp
/// NameNode durability end-to-end: with `dfs.namenode.name.dir` set, the
/// mini-cluster's NameNode journals every mutation, checkpoints, survives
/// kill -9 + restart with every acked mutation intact, and formats a
/// missing directory cleanly. Includes the (sanitizer-scaled) namespace
/// stress test behind the 1M-file benchmark: journaling, checkpoint,
/// replay, and image round-trip all through the real RPC path.

namespace mh::hdfs {
namespace {

namespace fs = std::filesystem;

class NameNodeRestartTest : public ::testing::Test {
 protected:
  NameNodeRestartTest() {
    root_ = fs::temp_directory_path() /
            ("mh_nn_restart_" + std::to_string(::getpid()));
    name_dir_ =
        root_ /
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(name_dir_);
  }
  ~NameNodeRestartTest() override { fs::remove_all(root_); }

  Config journalingConf() {
    Config conf = testutil::aggressiveTimers();
    conf.setInt("dfs.replication", 2);
    conf.setInt("dfs.blocksize", 2048);
    conf.set("dfs.namenode.name.dir", name_dir_.string());
    return conf;
  }

  fs::path root_;
  fs::path name_dir_;
};

TEST_F(NameNodeRestartTest, MissingNameDirIsFormattedFresh) {
  // The directory (and its parents) do not exist: the NameNode must
  // format, not fail — the very first start of a new cluster.
  name_dir_ /= "never/created";
  ASSERT_FALSE(fs::exists(name_dir_));
  MiniDfsCluster cluster({.num_datanodes = 2, .conf = journalingConf()});
  EXPECT_TRUE(cluster.nameNode().journaling());
  EXPECT_FALSE(cluster.nameNode().inSafeMode());
  EXPECT_TRUE(EditLog::hasState(name_dir_));

  auto client = cluster.client();
  client.writeFile("/hello", "fresh format");
  EXPECT_EQ(client.readFile("/hello"), "fresh format");
}

TEST_F(NameNodeRestartTest, EmptyNameDirIsFormattedFresh) {
  fs::create_directories(name_dir_);  // exists but holds nothing
  MiniDfsCluster cluster({.num_datanodes = 2, .conf = journalingConf()});
  EXPECT_TRUE(cluster.nameNode().journaling());
  EXPECT_FALSE(cluster.nameNode().inSafeMode());
  cluster.client().writeFile("/hello", "empty dir");
  EXPECT_EQ(cluster.client().readFile("/hello"), "empty dir");
}

TEST_F(NameNodeRestartTest, CleanRestartRecoversFromDiskAlone) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = journalingConf()});
  auto client = cluster.client();
  client.writeFile("/data/a", Bytes(5000, 'a'));  // multi-block
  client.writeFile("/data/b", "b");
  client.mkdirs("/empty/dir");
  client.rename("/data/b", "/data/b2");

  cluster.restartNameNode();  // journaling path: no saveImage() handoff
  ASSERT_TRUE(cluster.waitOutOfSafeMode(20'000));
  EXPECT_EQ(client.readFile("/data/a"), Bytes(5000, 'a'));
  EXPECT_EQ(client.readFile("/data/b2"), "b");
  EXPECT_FALSE(client.exists("/data/b"));
  EXPECT_TRUE(client.exists("/empty/dir"));
}

TEST_F(NameNodeRestartTest, CrashLosesNoAckedMutation) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = journalingConf()});
  auto client = cluster.client();
  client.writeFile("/keep/one", Bytes(3000, 'x'));
  client.writeFile("/keep/two", "tiny");
  client.writeFile("/doomed", "to be deleted");
  client.setReplication("/keep/two", 1);
  ASSERT_TRUE(client.remove("/doomed", false));
  client.rename("/keep/one", "/keep/moved");

  cluster.crashNameNode();  // kill -9: no saveImage, no clean stop
  ASSERT_FALSE(cluster.nameNodeRunning());
  EXPECT_THROW(client.exists("/keep/two"), NetworkError);

  cluster.restartNameNode();
  ASSERT_TRUE(cluster.waitOutOfSafeMode(20'000));
  EXPECT_EQ(client.readFile("/keep/moved"), Bytes(3000, 'x'));
  EXPECT_EQ(client.readFile("/keep/two"), "tiny");
  EXPECT_EQ(client.getFileStatus("/keep/two").replication, 1);
  EXPECT_FALSE(client.exists("/doomed"));
  EXPECT_FALSE(client.exists("/keep/one"));

  // Deleted blocks' ids were journaled: new allocations must not alias
  // them, and new writes must work immediately after recovery.
  client.writeFile("/after/crash", "new data");
  EXPECT_EQ(client.readFile("/after/crash"), "new data");
  ASSERT_TRUE(cluster.waitHealthy(20'000));
}

TEST_F(NameNodeRestartTest, SecondCrashRecoversCheckpointPlusNewerEdits) {
  Config conf = journalingConf();
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = conf});
  auto client = cluster.client();
  client.writeFile("/gen1", "one");
  // Checkpoint via the dfsadmin RPC, then mutate past it.
  const uint64_t ckpt = client.namenode().saveNamespace();
  EXPECT_GT(ckpt, 0u);
  client.writeFile("/gen2", "two");

  cluster.crashNameNode();
  cluster.restartNameNode();
  ASSERT_TRUE(cluster.waitOutOfSafeMode(20'000));
  EXPECT_EQ(client.readFile("/gen1"), "one");
  EXPECT_EQ(client.readFile("/gen2"), "two");

  // Crash AGAIN without any new checkpoint: recovery of the recovered
  // state (image + replayed edits + edits journaled after restart).
  client.writeFile("/gen3", "three");
  cluster.crashNameNode();
  cluster.restartNameNode();
  ASSERT_TRUE(cluster.waitOutOfSafeMode(20'000));
  const std::pair<const char*, const char*> survivors[] = {
      {"/gen1", "one"}, {"/gen2", "two"}, {"/gen3", "three"}};
  for (const auto& [path, body] : survivors) {
    EXPECT_EQ(client.readFile(path), body) << path;
  }
}

TEST_F(NameNodeRestartTest, MonitorCheckpointsByTxnCountAndRetiresSegments) {
  Config conf = journalingConf();
  conf.setInt("dfs.namenode.checkpoint.txns", 25);
  MiniDfsCluster cluster({.num_datanodes = 2, .conf = conf});
  auto client = cluster.client();
  for (int i = 0; i < 30; ++i) {
    client.writeFile("/ckpt/f" + std::to_string(i), "x");
  }
  // >= 90 txns journaled; the monitor must have checkpointed by now (poll:
  // the monitor runs every 20ms).
  bool checkpointed = false;
  for (int wait = 0; wait < 100 && !checkpointed; ++wait) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    checkpointed = !EditLog::load(name_dir_).image.empty();
  }
  ASSERT_TRUE(checkpointed);
  // Retirement bounds replay: far fewer live edits than total journaled.
  EXPECT_LT(EditLog::load(name_dir_).edits.size(), 50u);

  cluster.crashNameNode();
  cluster.restartNameNode();
  ASSERT_TRUE(cluster.waitOutOfSafeMode(20'000));
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(client.readFile("/ckpt/f" + std::to_string(i)), "x") << i;
  }
}

TEST_F(NameNodeRestartTest, PeriodicCheckpointFiresOnTime) {
  Config conf = journalingConf();
  conf.setInt("dfs.namenode.checkpoint.txns", 1'000'000'000);
  conf.setInt("dfs.namenode.checkpoint.period.ms", 100);
  MiniDfsCluster cluster({.num_datanodes = 2, .conf = conf});
  cluster.client().writeFile("/periodic", "tick");
  bool checkpointed = false;
  for (int wait = 0; wait < 100 && !checkpointed; ++wait) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    checkpointed = !EditLog::load(name_dir_).image.empty();
  }
  EXPECT_TRUE(checkpointed);
}

TEST_F(NameNodeRestartTest, AdminRpcsRequireJournaling) {
  Config conf = testutil::aggressiveTimers();
  conf.setInt("dfs.replication", 1);
  MiniDfsCluster cluster({.num_datanodes = 1, .conf = conf});
  EXPECT_FALSE(cluster.nameNode().journaling());
  EXPECT_THROW(cluster.nameNode().saveNamespace(), IllegalStateError);
  EXPECT_THROW(cluster.nameNode().rollEdits(), IllegalStateError);
}

TEST_F(NameNodeRestartTest, RollEditsStartsANewSegment) {
  MiniDfsCluster cluster({.num_datanodes = 2, .conf = journalingConf()});
  auto client = cluster.client();
  client.writeFile("/roll/a", "a");
  const uint64_t first = client.namenode().rollEdits();
  client.writeFile("/roll/b", "b");
  const uint64_t second = client.namenode().rollEdits();
  EXPECT_GT(second, first);
  // Both segments stay readable until a checkpoint retires them.
  const LoadedStorage loaded = EditLog::load(name_dir_);
  EXPECT_GE(loaded.last_txn, second - 1);
  EXPECT_FALSE(loaded.edits.empty());
}

// ---------------------------------------------------------------------------
// Namespace scale: the stress version of the 1M-file benchmark, through
// the real RPC path (create / addBlock / complete per file). Sanitizer
// builds run a reduced count; the full 1M lives in
// bench/bench_namenode_restart.cpp with CI-gated rates.
TEST_F(NameNodeRestartTest, StressManyFilesJournalCheckpointReplayRoundTrip) {
  const int kFiles = testutil::kSanitized ? 2'000 : 20'000;
  constexpr int kPerDir = 500;

  Config conf = journalingConf();
  conf.setInt("dfs.replication", 1);
  // Keep checkpoint timing in the test's hands.
  conf.setInt("dfs.namenode.checkpoint.txns", 1'000'000'000);
  MiniDfsCluster cluster({.num_datanodes = 1, .conf = conf});
  auto client = cluster.client();
  NameNodeRpc& nn = client.namenode();

  // Journal through RPC: ~3 txns per file, metadata only (no block data is
  // written — this is a NameNode test).
  Stopwatch journal_watch;
  for (int i = 0; i < kFiles; ++i) {
    const std::string path = "/stress/d" + std::to_string(i / kPerDir) +
                             "/f" + std::to_string(i);
    nn.create(path, 1, 65536);
    nn.addBlock(path);
    nn.completeFile(path);
  }
  const int64_t journal_ms = journal_watch.elapsedMillis();
  EXPECT_EQ(cluster.nameNode().totalBlocks(), static_cast<uint64_t>(kFiles));

  // O(1)-ish path resolution: random stats must stay cheap at scale (a
  // generous wall bound — interned-map lookups do this in microseconds).
  Rng rng(7);
  Stopwatch stat_watch;
  for (int i = 0; i < 2'000; ++i) {
    const int f = static_cast<int>(rng.uniform(kFiles));
    const std::string path = "/stress/d" + std::to_string(f / kPerDir) +
                             "/f" + std::to_string(f);
    ASSERT_EQ(nn.getFileStatus(path).length, 0u);
  }
  EXPECT_LT(stat_watch.elapsedMillis(), 5'000) << "lookups degraded at scale";

  // Checkpoint at scale, then image round-trip equality.
  Stopwatch ckpt_watch;
  const uint64_t ckpt_txn = nn.saveNamespace();
  const int64_t ckpt_ms = ckpt_watch.elapsedMillis();
  EXPECT_GE(ckpt_txn, static_cast<uint64_t>(3 * kFiles));
  const LoadedStorage loaded = EditLog::load(name_dir_);
  ASSERT_FALSE(loaded.image.empty());
  Stopwatch replay_watch;
  Namespace replayed = Namespace::loadImage(loaded.image);
  replayEdits(replayed, loaded.edits, loaded.image_txn);
  const int64_t replay_ms = replay_watch.elapsedMillis();
  EXPECT_EQ(replayed.fileCount(), static_cast<uint64_t>(kFiles));
  EXPECT_EQ(replayed.listFilesRecursive("/").size(),
            static_cast<size_t>(kFiles));

  // Bounded work, generously: each phase must land in seconds, not
  // minutes, even on a loaded sanitized CI worker (the tight rate gates
  // live in the benchmark).
  EXPECT_LT(journal_ms, 60'000);
  EXPECT_LT(ckpt_ms, 30'000);
  EXPECT_LT(replay_ms, 30'000);

  // Full restart at scale. Blocks were never written to DataNodes, so
  // safe mode cannot clear by block reports — lift it by hand; the
  // namespace itself must be complete.
  cluster.crashNameNode();
  cluster.restartNameNode();
  cluster.nameNode().setSafeMode(false);
  EXPECT_EQ(cluster.nameNode().listFilesRecursive("/stress").size(),
            static_cast<size_t>(kFiles));
  const int probe = kFiles - 1;
  EXPECT_EQ(nn.getFileStatus("/stress/d" + std::to_string(probe / kPerDir) +
                             "/f" + std::to_string(probe))
                .replication,
            1);
}

}  // namespace
}  // namespace mh::hdfs
