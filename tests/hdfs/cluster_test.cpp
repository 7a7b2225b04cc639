#include "mh/hdfs/mini_cluster.h"

#include <gtest/gtest.h>

#include "mh/common/error.h"
#include "mh/common/rng.h"
#include "testutil/aggressive_timers.h"

namespace mh::hdfs {
namespace {

Config fastConf() {
  Config conf = testutil::aggressiveTimers();
  conf.setInt("dfs.replication", 2);
  conf.setInt("dfs.blocksize", 1024);
  return conf;
}

Bytes randomPayload(size_t n, uint64_t seed) {
  Rng rng(seed);
  Bytes out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<char>('a' + rng.uniform(26)));
  }
  return out;
}

TEST(MiniDfsClusterTest, WriteReadRoundTripAcrossBlocks) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = fastConf()});
  auto client = cluster.client();
  const Bytes payload = randomPayload(10'000, 7);  // ~10 blocks of 1 KiB
  client.writeFile("/data/big.txt", payload);
  EXPECT_EQ(client.readFile("/data/big.txt"), payload);
  const auto located = client.getBlockLocations("/data/big.txt");
  EXPECT_EQ(located.size(), 10u);
  for (const auto& lb : located) EXPECT_EQ(lb.hosts.size(), 2u);
}

TEST(MiniDfsClusterTest, ParallelReadWidthsAgree) {
  // readFile fetches blocks with up to dfs.client.parallel.reads in
  // flight; every width (serial included) must assemble identical bytes.
  Config conf = fastConf();
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = conf});
  const Bytes payload = randomPayload(9'000, 21);  // 9 blocks of 1 KiB
  cluster.client().writeFile("/wide.txt", payload);
  for (const int width : {1, 2, 16}) {
    Config read_conf = conf;
    read_conf.setInt("dfs.client.parallel.reads", width);
    DfsClient client(read_conf, cluster.network(), "client", "namenode");
    EXPECT_EQ(client.readFile("/wide.txt"), payload) << "width " << width;
  }
}

TEST(MiniDfsClusterTest, EmptyFile) {
  MiniDfsCluster cluster({.num_datanodes = 1, .conf = fastConf()});
  auto client = cluster.client();
  client.writeFile("/empty", "");
  EXPECT_EQ(client.readFile("/empty"), "");
  EXPECT_EQ(client.getFileStatus("/empty").length, 0u);
}

TEST(MiniDfsClusterTest, ReplicationIsObservableOnDataNodes) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = fastConf()});
  auto client = cluster.client();
  client.writeFile("/f", randomPayload(3000, 1));
  // 3 blocks x 2 replicas = 6 replicas across all stores.
  size_t replicas = 0;
  for (const auto& host : cluster.dataNodeHosts()) {
    replicas += cluster.dataNode(host).store().listBlocks().size();
  }
  EXPECT_EQ(replicas, 6u);
  EXPECT_TRUE(cluster.waitHealthy());
}

TEST(MiniDfsClusterTest, LocalReadStaysLocal) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = fastConf()});
  // Writing from a datanode host puts the first replica there...
  auto writer = cluster.client("node01");
  writer.writeFile("/local.txt", randomPayload(2048, 2));
  cluster.network()->resetStats();
  // ...so reading from the same host should move zero remote "read" bytes.
  auto reader = cluster.client("node01");
  reader.readFile("/local.txt");
  EXPECT_EQ(cluster.network()->remoteBytes("read"), 0u);
  EXPECT_GT(cluster.network()->localBytes("read"), 2048u);
}

TEST(MiniDfsClusterTest, RemoteClientReadIsRemote) {
  MiniDfsCluster cluster({.num_datanodes = 2, .conf = fastConf()});
  auto client = cluster.client();  // off-cluster host
  client.writeFile("/remote.txt", randomPayload(2048, 3));
  cluster.network()->resetStats();
  client.readFile("/remote.txt");
  EXPECT_GT(cluster.network()->remoteBytes("read"), 2048u);
}

TEST(MiniDfsClusterTest, PipelineWritesMeterReplicationTraffic) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = fastConf()});
  auto client = cluster.client();
  cluster.network()->resetStats();
  client.writeFile("/f", randomPayload(4096, 4));
  // Client->head plus head->second hop: at least 2x the payload crosses.
  EXPECT_GE(cluster.network()->remoteBytes("pipeline"), 2 * 4096u);
}

TEST(MiniDfsClusterTest, DataNodeCrashTriggersReReplication) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = fastConf()});
  auto client = cluster.client();
  client.writeFile("/f", randomPayload(4096, 5));
  ASSERT_TRUE(cluster.waitHealthy());

  // Kill a replica holder.
  const auto located = client.getBlockLocations("/f");
  cluster.killDataNode(located[0].hosts[0]);

  // Wait for the NameNode to notice the death (heartbeat expiry)...
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cluster.nameNode().liveDataNodes() == 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(cluster.nameNode().liveDataNodes(), 2u);

  // ...then it must restore full replication using the remaining nodes.
  ASSERT_TRUE(cluster.waitHealthy(15'000));
  for (const auto& lb : client.getBlockLocations("/f")) {
    EXPECT_EQ(lb.hosts.size(), 2u);
    for (const auto& host : lb.hosts) {
      EXPECT_NE(host, located[0].hosts[0]);
    }
  }
  // Data still fully readable.
  EXPECT_EQ(client.readFile("/f").size(), 4096u);
}

TEST(MiniDfsClusterTest, CorruptReplicaIsRepairedFromGoodCopy) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = fastConf()});
  auto client = cluster.client();
  const Bytes payload = randomPayload(2048, 6);
  client.writeFile("/f", payload);
  ASSERT_TRUE(cluster.waitHealthy());

  const auto located = client.getBlockLocations("/f");
  const std::string victim = located[0].hosts[0];
  cluster.dataNode(victim).store().corruptBlock(located[0].block.id, 100);

  // The scanner finds it and reports; the cluster heals.
  cluster.dataNode(victim).runBlockScanner();
  ASSERT_TRUE(cluster.waitHealthy(15'000));
  EXPECT_EQ(client.readFile("/f"), payload);
}

TEST(MiniDfsClusterTest, ClientReadFallsOverOnCorruptReplica) {
  MiniDfsCluster cluster({.num_datanodes = 2, .conf = fastConf()});
  // Read from the replica holder itself so the corrupt local copy is tried
  // first — the fall-over path must kick in.
  auto writer = cluster.client("node01");
  const Bytes payload = randomPayload(1000, 8);
  writer.writeFile("/f", payload);
  const auto located = writer.getBlockLocations("/f");
  cluster.dataNode("node01").store().corruptBlock(located[0].block.id, 5);
  EXPECT_EQ(cluster.client("node01").readFile("/f"), payload);
  // And the bad replica got reported.
  EXPECT_TRUE(cluster.nameNode()
                  .fsck()
                  .corrupt_blocks > 0 ||
              cluster.waitHealthy(15'000));
}

TEST(MiniDfsClusterTest, FrameCrcMismatchSweepsReplicaLikeChecksumError) {
  // Compressed at-rest replicas have two integrity layers: chunk CRCs over
  // the stored bytes and per-frame CRCs over the raw bytes. Poison one
  // replica so only the frame CRC can object (adoptStored recomputes chunk
  // CRCs over the bytes it is given — the transit-corruption shape), and
  // the read path must fall over to the good replica and report the bad
  // one exactly as a chunk-checksum failure would.
  Config conf = fastConf();
  conf.set("dfs.block.compression.codec", "mh-lz");
  conf.setInt("dfs.blocksize", 4096);
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = conf});
  auto writer = cluster.client("node01");
  Bytes payload;
  while (payload.size() < 3000) payload += "frame crc sweeps the replica ";
  writer.writeFile("/f", payload);
  ASSERT_TRUE(cluster.waitHealthy());
  const auto located = writer.getBlockLocations("/f");

  // Find a single-bit corruption the frame CRC (not frame structure)
  // rejects, and adopt it on the local replica holder.
  const Bytes stream = codecEncode(CodecKind::kMhLz, payload);
  Bytes bad;
  for (size_t pos = kCodecHeaderBytes; pos < stream.size() && bad.empty();
       ++pos) {
    Bytes candidate = stream;
    candidate[pos] = static_cast<char>(candidate[pos] ^ 0x01);
    try {
      codecDecode(candidate);
    } catch (const ChecksumError&) {
      bad = candidate;
    } catch (const InvalidArgumentError&) {
    }
  }
  ASSERT_FALSE(bad.empty());
  cluster.dataNode("node01").store().adoptStored(located[0].block.id,
                                                std::move(bad));

  // Local-first read hits the poisoned frame, falls over, still decodes.
  EXPECT_EQ(cluster.client("node01").readFile("/f"), payload);
  EXPECT_TRUE(cluster.nameNode().fsck().corrupt_blocks > 0 ||
              cluster.waitHealthy(15'000));
  // After the sweep converges the cluster is healthy and byte-exact.
  ASSERT_TRUE(cluster.waitHealthy(15'000));
  EXPECT_EQ(cluster.client().readFile("/f"), payload);
}

TEST(MiniDfsClusterTest, NameNodeRestartSafeModeLifecycle) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = fastConf()});
  auto client = cluster.client();
  const Bytes payload = randomPayload(5000, 9);
  client.writeFile("/f", payload);
  ASSERT_TRUE(cluster.waitHealthy());

  cluster.restartNameNode();
  // Right after restart the NameNode is in safe mode (blocks known, no
  // locations); DataNode heartbeats re-register + re-report, lifting it.
  ASSERT_TRUE(cluster.waitOutOfSafeMode(15'000));
  ASSERT_TRUE(cluster.waitHealthy(15'000));
  EXPECT_EQ(cluster.client().readFile("/f"), payload);
}

TEST(MiniDfsClusterTest, GhostDaemonBlocksPort) {
  MiniDfsCluster cluster({.num_datanodes = 2, .conf = fastConf()});
  // A student exits without stopping the daemon: the port stays bound.
  cluster.dataNode("node01").abandon();
  auto store = std::make_shared<MemBlockStore>();
  DataNode fresh(cluster.conf(), cluster.network(), "node01", store,
                 "namenode");
  EXPECT_THROW(fresh.start(), AlreadyExistsError);
  // After the "scheduler cleanup" (stop() releases the port) it boots fine.
  cluster.dataNode("node01").stop();
  fresh.start();
  fresh.stop();
}

TEST(MiniDfsClusterTest, StoppedDataNodeCanRejoin) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = fastConf()});
  auto client = cluster.client();
  client.writeFile("/f", randomPayload(2048, 10));
  ASSERT_TRUE(cluster.waitHealthy());
  cluster.killDataNode("node02");
  ASSERT_TRUE(cluster.waitHealthy(15'000));
  cluster.restartDataNode("node02");
  // The rejoined node re-registers; extra replicas (if its old copies
  // resurface) are trimmed by the over-replication handler.
  ASSERT_TRUE(cluster.waitHealthy(15'000));
  EXPECT_EQ(cluster.nameNode().liveDataNodes(), 3u);
}

TEST(MiniDfsClusterTest, AddDataNodeGrowsCluster) {
  MiniDfsCluster cluster({.num_datanodes = 1, .conf = fastConf()});
  const std::string fresh = cluster.addDataNode();
  EXPECT_EQ(fresh, "node02");
  EXPECT_EQ(cluster.nameNode().liveDataNodes(), 2u);
}

TEST(MiniDfsClusterTest, DeleteReclaimsReplicas) {
  MiniDfsCluster cluster({.num_datanodes = 2, .conf = fastConf()});
  auto client = cluster.client();
  client.writeFile("/f", randomPayload(4096, 11));
  ASSERT_TRUE(cluster.waitHealthy());
  client.remove("/f", false);
  // Invalidation commands ride heartbeats; replicas disappear shortly.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  size_t replicas = 1;
  while (replicas > 0 && std::chrono::steady_clock::now() < deadline) {
    replicas = 0;
    for (const auto& host : cluster.dataNodeHosts()) {
      replicas += cluster.dataNode(host).store().listBlocks().size();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(replicas, 0u);
}

TEST(MiniDfsClusterTest, DeleteAfterQueuedReplicationLeavesNoOrphanReplica) {
  // The monitor queues a re-replication, then the file is deleted before
  // the source DataNode's next heartbeat. The replica the target receives
  // belongs to no file: the target must drop it, and the source must still
  // run the kDelete queued behind the replicate command.
  Config conf = fastConf();
  // Heartbeats and the monitor are driven by hand below.
  conf.setInt("dfs.heartbeat.interval.ms", 600'000);
  conf.setInt("dfs.namenode.monitor.interval.ms", 600'000);
  conf.setInt("dfs.namenode.heartbeat.expiry.ms", 600'000);
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = conf});
  auto client = cluster.client();
  client.writeFile("/f", randomPayload(512, 31));  // one block, 2 replicas
  const BlockId block = client.getBlockLocations("/f").front().block.id;

  client.setReplication("/f", 3);
  cluster.nameNode().runMonitorOnce();  // queues kReplicate on a source
  client.remove("/f", false);           // queues kDelete on both holders

  for (const auto& host : cluster.dataNodeHosts()) {
    EXPECT_NO_THROW(cluster.dataNode(host).heartbeatNow()) << host;
  }
  for (const auto& host : cluster.dataNodeHosts()) {
    EXPECT_FALSE(cluster.dataNode(host).store().hasBlock(block)) << host;
  }
}

TEST(MiniDfsClusterTest, PipelineForwardsTheReceivedRequestWithoutCopy) {
  // The head DataNode stores its replica and hands the downstream hop the
  // very request view it received: same backing buffer, no re-pack.
  MiniDfsCluster cluster({.num_datanodes = 1, .conf = fastConf()});
  NameNodeRpc namenode(cluster.network(), "client", "namenode");
  namenode.create("/f", 1);
  const LocatedBlock located = namenode.addBlock("/f");
  ASSERT_EQ(located.hosts, std::vector<std::string>{"node01"});

  BufferView forwarded;
  cluster.network()->bind("tail", kDataNodePort,
                          [&forwarded](const net::RpcRequest& req) {
                            forwarded = req.body;
                            return BufferView();
                          });
  const Bytes payload = randomPayload(700, 41);
  const Buffer request = Buffer::fromString(
      pack(Block{located.block.id, payload.size()}, payload,
           std::vector<std::string>{"node01", "tail"}, /*stored=*/false));
  cluster.network()->call("client", "node01", kDataNodePort, "writeBlock",
                          request, "pipeline");

  EXPECT_EQ(forwarded.buffer().shared(), request.shared());
  EXPECT_EQ(forwarded.size(), request.size());
  EXPECT_EQ(cluster.dataNode("node01").store().readBlock(located.block.id),
            payload);
}

TEST(MiniDfsClusterTest, TwoRackClusterSpansRacksPerBlock) {
  Config conf = fastConf();
  conf.setInt("dfs.replication", 3);
  MiniDfsCluster cluster(
      {.num_datanodes = 6, .racks = 2, .conf = conf});
  // Write from a datanode host so the first replica is node-local.
  auto client = cluster.client("node01");
  client.writeFile("/f", randomPayload(8192, 17));
  ASSERT_TRUE(cluster.waitHealthy());
  for (const auto& lb : client.getBlockLocations("/f")) {
    ASSERT_EQ(lb.hosts.size(), 3u);
    std::set<std::string> racks;
    for (const auto& host : lb.hosts) racks.insert(cluster.rackOf(host));
    // The default policy: replicas span exactly two racks.
    EXPECT_EQ(racks.size(), 2u) << lb.block.id;
  }
  // The report shows the rack assignment.
  bool saw_rack = false;
  for (const auto& dn : cluster.nameNode().datanodeReport()) {
    saw_rack = saw_rack || dn.rack == "/rack1";
  }
  EXPECT_TRUE(saw_rack);
}

TEST(MiniDfsClusterTest, SetrepUpTriggersReplication) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = fastConf()});
  auto client = cluster.client();
  client.writeFile("/f", randomPayload(2048, 13));  // replication 2
  ASSERT_TRUE(cluster.waitHealthy());
  client.setReplication("/f", 3);
  // Under-replicated now; the monitor raises every block to 3 copies.
  ASSERT_TRUE(cluster.waitHealthy(15'000));
  for (const auto& lb : client.getBlockLocations("/f")) {
    EXPECT_EQ(lb.hosts.size(), 3u);
  }
  EXPECT_EQ(client.getFileStatus("/f").replication, 3u);
}

TEST(MiniDfsClusterTest, SetrepDownTrimsExcessReplicas) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = fastConf()});
  auto client = cluster.client();
  client.writeFile("/f", randomPayload(2048, 14));  // replication 2
  ASSERT_TRUE(cluster.waitHealthy());
  client.setReplication("/f", 1);
  ASSERT_TRUE(cluster.waitHealthy(15'000));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool trimmed = false;
  while (!trimmed && std::chrono::steady_clock::now() < deadline) {
    trimmed = true;
    for (const auto& lb : client.getBlockLocations("/f")) {
      trimmed = trimmed && lb.hosts.size() == 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(trimmed);
  EXPECT_EQ(client.readFile("/f").size(), 2048u);
}

TEST(MiniDfsClusterTest, FileStoreClusterPersistsAcrossDataNodeRestart) {
  const auto root = std::filesystem::temp_directory_path() /
                    ("mh_cluster_" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  {
    MiniDfsCluster cluster({.num_datanodes = 2,
                            .conf = fastConf(),
                            .use_file_store = true,
                            .store_root = root});
    auto client = cluster.client();
    client.writeFile("/persist", randomPayload(2000, 12));
    ASSERT_TRUE(cluster.waitHealthy());
    cluster.stopDataNode("node01");
    cluster.restartDataNode("node01");
    ASSERT_TRUE(cluster.waitHealthy(15'000));
    EXPECT_EQ(cluster.client().readFile("/persist").size(), 2000u);
  }
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace mh::hdfs
