// Local reads are loopback reads: a client co-located with a replica reads
// it through the same readBlock RPC as any other client, which the fabric
// leaves unpaced and zero-copy. These tests pin what that path owes the
// locality lesson — no remote bytes, no payload copy — and that it fails
// over, reports corruption and obeys partitions like every other read.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "mh/common/error.h"
#include "mh/common/rng.h"
#include "mh/hdfs/mini_cluster.h"
#include "testutil/aggressive_timers.h"
#include "testutil/sanitizers.h"
#include "testutil/thread_cpu.h"

namespace mh::hdfs {
namespace {

Config localConf() {
  Config conf = testutil::aggressiveTimers();
  conf.setInt("dfs.replication", 3);
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

TEST(LocalReadTest, NodeLocalReadMovesNoRemoteBytes) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = localConf()});
  const Bytes payload = randomPayload(5'000, 1);  // 5 blocks, replication 3
  cluster.client().writeFile("/local/data.txt", payload);

  auto client = cluster.client("node01");
  const auto& net = *cluster.network();
  const uint64_t remote_before = net.remoteBytes("read");
  const uint64_t local_before = net.localBytes("read");
  EXPECT_EQ(client.readFile("/local/data.txt"), payload);
  // Every block had a replica on node01: each readBlock went over loopback.
  EXPECT_EQ(net.remoteBytes("read"), remote_before);
  EXPECT_GE(net.localBytes("read") - local_before, payload.size());
}

TEST(LocalReadTest, OffClusterClientMovesRemoteBytes) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = localConf()});
  const Bytes payload = randomPayload(2'000, 3);
  cluster.client().writeFile("/local/remote.txt", payload);

  auto client = cluster.client("client");  // no co-located replicas
  const uint64_t before = cluster.network()->remoteBytes("read");
  EXPECT_EQ(client.readFile("/local/remote.txt"), payload);
  EXPECT_GE(cluster.network()->remoteBytes("read") - before, payload.size());
}

TEST(LocalReadTest, ReadsAreViewsOfTheResidentReplica) {
  MiniDfsCluster cluster({.num_datanodes = 1, .conf = localConf()});
  const Bytes payload = randomPayload(1'000, 7);  // one block
  cluster.client().writeFile("/local/alias.txt", payload);

  auto client = cluster.client("node01");
  const auto located = client.getBlockLocations("/local/alias.txt");
  ASSERT_EQ(located.size(), 1u);
  const BufferView view = client.readBlockRange(located[0], 0, 1'000);
  // Byte-identical AND pointer-identical: the client reads the store's own
  // resident buffer, no payload copy anywhere on the path.
  EXPECT_EQ(view, payload);
  EXPECT_EQ(view.view().data(), cluster.dataNode("node01")
                                    .store()
                                    .readBlock(located[0].block.id)
                                    .view()
                                    .data());
}

TEST(LocalReadTest, CorruptLocalReplicaReportsItselfAndFallsOver) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = localConf()});
  const Bytes payload = randomPayload(1'000, 4);  // one block
  cluster.client().writeFile("/local/corrupt.txt", payload);

  auto client = cluster.client("node01");
  const auto located = client.getBlockLocations("/local/corrupt.txt");
  ASSERT_EQ(located.size(), 1u);
  cluster.dataNode("node01").store().corruptBlock(located[0].block.id, 17);

  // The local readBlock hits the checksum failure and the replica is
  // reported; the sweep reads a healthy remote copy.
  const uint64_t before = cluster.network()->remoteBytes("read");
  EXPECT_EQ(client.readFile("/local/corrupt.txt"), payload);
  EXPECT_GT(cluster.network()->remoteBytes("read"), before);
  EXPECT_GE(cluster.nameNode().fsck().corrupt_blocks, 1u);
}

TEST(LocalReadTest, StoppedLocalDataNodeFallsOverToRemoteReplicas) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = localConf()});
  const Bytes payload = randomPayload(2'000, 2);
  cluster.client().writeFile("/local/stopped.txt", payload);

  // A stopped DataNode has released its port: node01's own readBlock is
  // refused and every block comes from node02 or node03.
  cluster.stopDataNode("node01");
  auto client = cluster.client("node01");
  const auto& net = *cluster.network();
  uint64_t before = net.remoteBytes("read");
  EXPECT_EQ(client.readFile("/local/stopped.txt"), payload);
  EXPECT_GE(net.remoteBytes("read") - before, payload.size());

  cluster.restartDataNode("node01");
  before = net.remoteBytes("read");
  EXPECT_EQ(client.readFile("/local/stopped.txt"), payload);
  EXPECT_EQ(net.remoteBytes("read"), before);
}

TEST(LocalReadTest, FencedHostFailsUntilThePartitionHeals) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = localConf()});
  const Bytes payload = randomPayload(2'000, 5);
  cluster.client().writeFile("/local/fenced.txt", payload);

  // Fence node01 into its own partition: its loopback traffic is severed
  // along with every link to the other DataNodes, so no replica is
  // reachable from it.
  auto plan = std::make_shared<net::FaultPlan>(1);
  plan->partition({"node01"}, {"node01", "node02", "node03"});
  cluster.network()->setFaultPlan(plan);

  auto client = cluster.client("node01");
  EXPECT_THROW(client.readFile("/local/fenced.txt"), IoError);

  cluster.network()->setFaultPlan(nullptr);
  const uint64_t before = cluster.network()->remoteBytes("read");
  EXPECT_EQ(client.readFile("/local/fenced.txt"), payload);
  EXPECT_EQ(cluster.network()->remoteBytes("read"), before);
}

TEST(LocalReadTest, ShortCircuitKeyIsRejectedAsUnknown) {
  // There is one local read path, so the key that chose between two is
  // gone, and a conf still setting it fails validation by name.
  MiniDfsCluster cluster({.num_datanodes = 1, .conf = localConf()});
  Config conf = cluster.conf();
  conf.setBool("dfs.client.read.shortcircuit", true);
  try {
    DfsClient client(conf, cluster.network(), "node01", "namenode");
    FAIL() << "a conf with a deleted key was accepted";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("dfs.client.read.shortcircuit"),
              std::string::npos)
        << e.what();
  }
}

TEST(LocalReadTest, CompressedReplicasDecodeLocallyWithoutRemoteBytes) {
  // Blocks stored as mh-lz frames: a co-located reader's readBlock decodes
  // the resident replica over loopback, with no wire bytes, while an
  // off-node reader pulls the same bytes across the wire, which on the
  // teaching cluster's gigabit NICs costs at least twice the local decode.
  Config conf = localConf();
  conf.setInt("dfs.replication", 2);
  conf.setInt("dfs.blocksize", 1024 * 1024);
  conf.set("dfs.block.compression.codec", "mh-lz");
  MiniDfsCluster cluster({.num_datanodes = 2, .conf = conf});
  static const char* kSentences[] = {
      "the cluster keeps every replica on a different rack when it can ",
      "a map task prefers the node that already holds its split ",
      "reducers merge sorted runs without ever holding one whole ",
      "the namenode leaves safe mode once the block reports arrive ",
  };
  constexpr size_t kFileBytes = 4 * 1024 * 1024;  // 4 blocks
  Rng rng(8);
  Bytes payload;
  while (payload.size() < kFileBytes) payload += kSentences[rng.uniform(4)];
  payload.resize(kFileBytes);
  cluster.client().writeFile("/local/packed.txt", payload);
  auto& datanode = cluster.metrics().child("datanode.node01");
  EXPECT_LT(datanode.counterValue("block.compressed.bytes"),
            datanode.counterValue("block.raw.bytes"));

  auto local = cluster.client("node01");
  const uint64_t local_remote_before = cluster.network()->remoteBytes("read");
  EXPECT_EQ(local.readFile("/local/packed.txt"), payload);
  EXPECT_EQ(cluster.network()->remoteBytes("read"), local_remote_before);

  if (testutil::kSanitized) {
    GTEST_SKIP() << "CPU-time bounds are not checked in sanitizer builds";
  }
  // The remote side is what the fabric's pacing model charges for the bytes
  // the remote read moved: latency per message plus bytes over bandwidth.
  constexpr int64_t kLatencyMicros = 200;
  constexpr double kBandwidthBytesPerSec = 125'000'000;  // 1 Gbps
  auto remote = cluster.client("client");
  const uint64_t messages_before = cluster.network()->messages("read");
  const uint64_t bytes_before = cluster.network()->remoteBytes("read");
  EXPECT_EQ(remote.readFile("/local/packed.txt"), payload);
  const auto messages =
      static_cast<int64_t>(cluster.network()->messages("read") -
                           messages_before);
  const auto bytes = static_cast<double>(
      cluster.network()->remoteBytes("read") - bytes_before);
  const auto rpc_us = messages * kLatencyMicros +
                      static_cast<int64_t>(bytes / kBandwidthBytesPerSec * 1e6);

  // The local side is the CPU the loopback read and its decode cost: one
  // block at a time, so every readBlock runs on this thread.
  Config serial = cluster.conf();
  serial.setInt("dfs.client.parallel.reads", 1);
  DfsClient serial_local(serial, cluster.network(), "node01", "namenode");
  std::vector<BufferView> views;
  const int64_t local_us = testutil::bestOfThreeThreadCpuMicros(
      [&] { views = serial_local.readFileViews("/local/packed.txt"); });
  Bytes decoded;
  for (const BufferView& view : views) decoded.append(view.view());
  EXPECT_EQ(decoded, payload);
  EXPECT_GE(static_cast<double>(rpc_us) /
                static_cast<double>(std::max<int64_t>(local_us, 1)),
            2.0)
      << "paced remote readBlock " << rpc_us << " us (" << messages
      << " messages, " << bytes << " bytes) vs local decode " << local_us
      << " us CPU";
}

}  // namespace
}  // namespace mh::hdfs
