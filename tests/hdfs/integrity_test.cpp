// The checksummed write pipeline and held DataNode heartbeats.
//
// PipelineIntegrityTest: the client computes a block's chunk CRCs once,
// every DataNode stores the CRCs it received, and only the pipeline tail
// verifies them. A payload corrupted in flight (FaultAction::kCorrupt) must
// be rejected by the tail and rewritten by the client — never stored.
//
// HeldDataNodeBeatTest: the NameNode holds a DataNode's background beat
// until it has a command for it, so deletes free replicas at once; every
// stop/crash verb on either side ends a held beat at once.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "mh/common/error.h"
#include "mh/common/rng.h"
#include "mh/common/stopwatch.h"
#include "mh/hdfs/mini_cluster.h"
#include "mh/net/fault_plan.h"
#include "testutil/aggressive_timers.h"

namespace mh::hdfs {
namespace {

Bytes randomPayload(size_t n, uint64_t seed) {
  Rng rng(seed);
  Bytes out(n, '\0');
  for (auto& c : out) c = static_cast<char>(rng.uniform(256));
  return out;
}

// ---- the checksummed write pipeline -----------------------------------------

class PipelineIntegrityTest : public ::testing::TestWithParam<const char*> {
 protected:
  /// Three DataNodes, replication 3, one 16 KiB block per file. The block
  /// payload is ~98% of a writeBlock body, so the seeded flips below land
  /// in the payload or its CRCs; the fabric's framing stands in for what
  /// TCP's own checksum protects.
  static Config conf() {
    Config conf = testutil::aggressiveTimers();
    conf.setInt("dfs.replication", 3);
    conf.setInt("dfs.blocksize", 64 * 1024);
    conf.set("dfs.block.compression.codec", GetParam());
    return conf;
  }

  static void corruptWriteBlocks(MiniDfsCluster& cluster,
                                 net::FaultRule rule) {
    auto plan = std::make_shared<net::FaultPlan>(11);
    rule.match.method = "writeBlock";
    rule.action = net::FaultAction::kCorrupt;
    plan->addRule(std::move(rule));
    cluster.network()->setFaultPlan(plan);
  }

  /// The block landed intact: reads match, fsck is healthy, and no
  /// DataNode's scanner finds a bad replica.
  static void expectIntact(MiniDfsCluster& cluster, const std::string& path,
                           const Bytes& payload) {
    cluster.network()->setFaultPlan(nullptr);
    auto client = cluster.client();
    EXPECT_EQ(client.readFile(path), payload);
    ASSERT_TRUE(cluster.waitHealthy());
    const FsckReport report = cluster.nameNode().fsck();
    EXPECT_TRUE(report.healthy);
    EXPECT_EQ(report.corrupt_blocks, 0u);
    for (const auto& host : cluster.dataNodeHosts()) {
      EXPECT_TRUE(cluster.dataNode(host).store().scanAll().empty()) << host;
    }
  }

  /// Each DataNode counts one written replica: the rejected attempt was
  /// never reported.
  static void expectWrittenOnce(MiniDfsCluster& cluster) {
    for (const auto& host : cluster.dataNodeHosts()) {
      EXPECT_EQ(cluster.metrics().child("datanode." + host).counterValue(
                    "blocks.written"),
                1)
          << host;
    }
  }

  static int64_t corruptedCalls(MiniDfsCluster& cluster) {
    return cluster.network()->metrics().child("network").counterValue(
        "faults.corrupted");
  }
};

TEST_P(PipelineIntegrityTest, CorruptedClientToHeadWriteIsRejectedAndRetried) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = conf()});
  corruptWriteBlocks(cluster, {.match = {.from = "client"}, .nth = 1});
  const Bytes payload = randomPayload(16 * 1024, 1);
  cluster.client().writeFile("/f", payload);
  EXPECT_EQ(corruptedCalls(cluster), 1);
  expectWrittenOnce(cluster);
  expectIntact(cluster, "/f", payload);
}

TEST_P(PipelineIntegrityTest, CorruptedHeadToMiddleHopIsRejectedAndRetried) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = conf()});
  // Pipeline hops run in order: call 1 is client -> head, call 2 is the
  // head forwarding to the middle DataNode.
  corruptWriteBlocks(cluster, {.match = {.tag = "pipeline"}, .nth = 2});
  const Bytes payload = randomPayload(16 * 1024, 2);
  cluster.client().writeFile("/f", payload);
  EXPECT_EQ(corruptedCalls(cluster), 1);
  expectWrittenOnce(cluster);
  expectIntact(cluster, "/f", payload);
}

TEST_P(PipelineIntegrityTest, WriteCorruptedOnEveryTryFailsAndStoresNothing) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = conf()});
  corruptWriteBlocks(cluster, {.match = {.from = "client"}});
  auto client = cluster.client();
  EXPECT_THROW(client.writeFile("/f", randomPayload(16 * 1024, 3)), IoError);
  // dfs.client.retries (default 3) rewrites, each rejected by the tail.
  EXPECT_EQ(corruptedCalls(cluster), 3);
  for (const auto& host : cluster.dataNodeHosts()) {
    EXPECT_EQ(cluster.dataNode(host).store().blockCount(), 0u) << host;
  }
  EXPECT_EQ(cluster.nameNode().fsck().total_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Codecs, PipelineIntegrityTest,
                         ::testing::Values("none", "mh-lz"));

TEST(PipelineIntegrityStoreTest, ReceiveBlockVerifiesOnlyWhenAsked) {
  const Bytes data = randomPayload(3000, 4);
  Bytes corrupted = data;
  corrupted[1234] = static_cast<char>(corrupted[1234] ^ 0x01);

  // The tail checks the writer's CRCs first and stores nothing on a
  // mismatch.
  MemBlockStore tail;
  EXPECT_THROW(tail.receiveBlock(1, Buffer::copyOf(corrupted),
                                 chunkChecksums(data), true),
               ChecksumError);
  EXPECT_FALSE(tail.hasBlock(1));
  tail.receiveBlock(1, Buffer::copyOf(data), chunkChecksums(data), true);
  EXPECT_EQ(tail.readBlock(1), data);

  // A forwarding DataNode stores the CRCs it received as they are; the
  // replica's first read is what catches bytes that do not match them.
  MemBlockStore head;
  head.receiveBlock(2, Buffer::copyOf(corrupted), chunkChecksums(data),
                    false);
  EXPECT_TRUE(head.hasBlock(2));
  EXPECT_THROW(head.readBlock(2), ChecksumError);
  EXPECT_EQ(head.scanAll(), std::vector<BlockId>{2});
}

// ---- held DataNode heartbeats ----------------------------------------------

Config heldBeatConf(int64_t interval_ms) {
  Config conf;
  conf.setInt("dfs.replication", 3);
  conf.setInt("dfs.blocksize", 64 * 1024);
  conf.setInt("dfs.heartbeat.interval.ms", interval_ms);
  conf.setInt("dfs.namenode.heartbeat.expiry.ms",
              std::max<int64_t>(1000, 10 * interval_ms));
  return conf;
}

/// Waits until every DataNode's background beat is held at the NameNode.
bool waitAllHeld(MiniDfsCluster& cluster, size_t expected) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cluster.nameNode().heldHeartbeats() == expected) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

size_t residentReplicas(MiniDfsCluster& cluster) {
  size_t n = 0;
  for (const auto& host : cluster.dataNodeHosts()) {
    n += cluster.dataNode(host).store().blockCount();
  }
  return n;
}

TEST(HeldDataNodeBeatTest, RemoveFreesReplicasAtOnceAtALongInterval) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = heldBeatConf(60'000)});
  auto client = cluster.client();
  client.writeFile("/f", randomPayload(200 * 1024, 5));  // 4 blocks
  ASSERT_EQ(residentReplicas(cluster), 12u);
  ASSERT_TRUE(waitAllHeld(cluster, 3));

  Stopwatch watch;
  ASSERT_TRUE(client.remove("/f", false));
  while (residentReplicas(cluster) > 0 && watch.elapsedMillis() < 1000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(residentReplicas(cluster), 0u)
      << "deleted replicas waited for the 60 s beat";
}

TEST(HeldDataNodeBeatTest, DataNodeStopCrashAndAbandonEndAHeldBeatAtOnce) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = heldBeatConf(600'000)});
  ASSERT_TRUE(waitAllHeld(cluster, 3));
  const auto hosts = cluster.dataNodeHosts();

  Stopwatch stop_watch;
  cluster.stopDataNode(hosts[0]);
  EXPECT_LT(stop_watch.elapsedMillis(), 1000);

  Stopwatch crash_watch;
  cluster.killDataNode(hosts[1]);
  EXPECT_LT(crash_watch.elapsedMillis(), 1000);

  Stopwatch abandon_watch;
  cluster.dataNode(hosts[2]).abandon();
  EXPECT_LT(abandon_watch.elapsedMillis(), 1000);

  EXPECT_EQ(cluster.nameNode().heldHeartbeats(), 0u);
}

TEST(HeldDataNodeBeatTest, NameNodeStopReleasesEveryHeldBeat) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = heldBeatConf(600'000)});
  ASSERT_TRUE(waitAllHeld(cluster, 3));
  Stopwatch watch;
  cluster.nameNode().stop();
  EXPECT_LT(watch.elapsedMillis(), 1000);
  // With the NameNode gone the DataNodes back off in their own loops,
  // which a stop wakes at once.
  Stopwatch dn_watch;
  for (const auto& host : cluster.dataNodeHosts()) cluster.stopDataNode(host);
  EXPECT_LT(dn_watch.elapsedMillis(), 1000);
}

TEST(HeldDataNodeBeatTest, NameNodeCrashReleasesEveryHeldBeat) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = heldBeatConf(600'000)});
  ASSERT_TRUE(waitAllHeld(cluster, 3));
  Stopwatch watch;
  cluster.crashNameNode();
  EXPECT_LT(watch.elapsedMillis(), 1000);
  Stopwatch dn_watch;
  for (const auto& host : cluster.dataNodeHosts()) cluster.stopDataNode(host);
  EXPECT_LT(dn_watch.elapsedMillis(), 1000);
}

TEST(HeldDataNodeBeatTest, HeartbeatNowNeverHolds) {
  MiniDfsCluster cluster({.num_datanodes = 2, .conf = heldBeatConf(600'000)});
  ASSERT_TRUE(waitAllHeld(cluster, 2));
  for (const auto& host : cluster.dataNodeHosts()) {
    Stopwatch watch;
    cluster.dataNode(host).heartbeatNow();
    EXPECT_LT(watch.elapsedMillis(), 1000) << host;
  }
  // The background beats go back to being held.
  EXPECT_TRUE(waitAllHeld(cluster, 2));
}

TEST(HeldDataNodeBeatTest, HeartbeatNowWaitsForCommandsTheHeldBeatTook) {
  Config conf = heldBeatConf(600'000);
  conf.setInt("dfs.replication", 1);
  conf.setInt("dfs.namenode.monitor.interval.ms", 600'000);
  MiniDfsCluster cluster({.num_datanodes = 2, .conf = conf});
  auto client = cluster.client();
  client.writeFile("/f", randomPayload(1000, 6));
  const LocatedBlock located = client.getBlockLocations("/f").front();
  ASSERT_EQ(located.hosts.size(), 1u);
  const std::string source = located.hosts.front();
  const std::string target =
      source == cluster.dataNodeHosts()[0] ? cluster.dataNodeHosts()[1]
                                           : cluster.dataNodeHosts()[0];
  ASSERT_TRUE(waitAllHeld(cluster, 2));

  // The kReplicate wakes the source's held beat, whose replication then
  // spends 200 ms on the wire while heartbeatNow() is called.
  auto plan = std::make_shared<net::FaultPlan>(1);
  plan->addRule({.match = {.tag = "replication"},
                 .action = net::FaultAction::kDelay,
                 .delay_micros = 200'000});
  cluster.network()->setFaultPlan(plan);
  client.setReplication("/f", 2);
  cluster.nameNode().runMonitorOnce();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cluster.dataNode(source).heartbeatNow();
  EXPECT_TRUE(cluster.dataNode(target).store().hasBlock(located.block.id))
      << "heartbeatNow returned before the held beat's replication ran";
}

TEST(HeldDataNodeBeatTest, IdleClusterBeatsAboutOncePerInterval) {
  constexpr int64_t kIntervalMs = 100;
  MiniDfsCluster cluster(
      {.num_datanodes = 3, .conf = heldBeatConf(kIntervalMs)});
  ASSERT_TRUE(waitAllHeld(cluster, 3));
  MetricsRegistry& nn = cluster.metrics().child("namenode");
  const int64_t before = nn.counterValue("ops.heartbeat");
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const int64_t beats = nn.counterValue("ops.heartbeat") - before;
  const int64_t intervals = watch.elapsedMillis() / kIntervalMs;
  // Each DataNode's held beat is answered at the interval and the next one
  // goes out at once: ~1 beat per interval, not a spin.
  EXPECT_LE(beats, 3 * (intervals + 1));
  EXPECT_GE(beats, 3 * (intervals - 2));
}

}  // namespace
}  // namespace mh::hdfs
