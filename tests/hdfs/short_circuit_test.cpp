#include "mh/hdfs/short_circuit.h"

#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mh/common/error.h"
#include "mh/common/rng.h"
#include "mh/hdfs/mini_cluster.h"
#include "testutil/aggressive_timers.h"
#include "testutil/sanitizers.h"

namespace mh::hdfs {
namespace {

Config scConf() {
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

/// A client on `host` with dfs.client.read.shortcircuit enabled.
DfsClient scClient(MiniDfsCluster& cluster, const std::string& host) {
  Config conf = cluster.conf();
  conf.setBool("dfs.client.read.shortcircuit", true);
  return DfsClient(conf, cluster.network(), host, "namenode");
}

int64_t scReads(MiniDfsCluster& cluster) {
  return cluster.metrics().child("dfsclient").counterValue(
      "short.circuit.reads");
}

TEST(ShortCircuitTest, NodeLocalReadBypassesEveryReadRpc) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = scConf()});
  const Bytes payload = randomPayload(5'000, 1);  // 5 blocks, replication 3
  cluster.client().writeFile("/sc/data.txt", payload);

  auto client = scClient(cluster, "node01");
  const auto before = cluster.network()->messages("read");
  EXPECT_EQ(client.readFile("/sc/data.txt"), payload);
  // Every block had a replica on node01: zero readBlock RPCs, one
  // short-circuit read per block.
  EXPECT_EQ(cluster.network()->messages("read"), before);
  EXPECT_EQ(scReads(cluster), 5);
}

TEST(ShortCircuitTest, DisabledByDefault) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = scConf()});
  const Bytes payload = randomPayload(2'000, 2);
  cluster.client().writeFile("/sc/off.txt", payload);

  auto client = cluster.client("node01");  // cluster conf: no short-circuit
  const auto before = cluster.network()->messages("read");
  EXPECT_EQ(client.readFile("/sc/off.txt"), payload);
  EXPECT_GT(cluster.network()->messages("read"), before);
  EXPECT_EQ(scReads(cluster), 0);
}

TEST(ShortCircuitTest, OffClusterClientTakesRpcPath) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = scConf()});
  const Bytes payload = randomPayload(2'000, 3);
  cluster.client().writeFile("/sc/remote.txt", payload);

  auto client = scClient(cluster, "client");  // no co-located replicas
  const auto before = cluster.network()->messages("read");
  EXPECT_EQ(client.readFile("/sc/remote.txt"), payload);
  EXPECT_GT(cluster.network()->messages("read"), before);
  EXPECT_EQ(scReads(cluster), 0);
}

TEST(ShortCircuitTest, CorruptLocalReplicaFallsBackToRpcAndReportsIt) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = scConf()});
  const Bytes payload = randomPayload(1'000, 4);  // one block
  cluster.client().writeFile("/sc/corrupt.txt", payload);

  auto client = scClient(cluster, "node01");
  const auto located = client.getBlockLocations("/sc/corrupt.txt");
  ASSERT_EQ(located.size(), 1u);
  const auto store =
      ShortCircuitRegistry::instance().lookup(cluster.network().get(),
                                              "node01");
  ASSERT_NE(store, nullptr);
  store->corruptBlock(located[0].block.id, 17);

  // The short-circuit attempt hits the checksum failure, reports the bad
  // replica, and the sweep reads a healthy copy over RPC — same fallover
  // shape as a corrupt replica on the RPC path.
  const auto before = cluster.network()->messages("read");
  EXPECT_EQ(client.readFile("/sc/corrupt.txt"), payload);
  EXPECT_GT(cluster.network()->messages("read"), before);
  EXPECT_EQ(scReads(cluster), 0);
  EXPECT_GE(cluster.nameNode().fsck().corrupt_blocks, 1u);
}

TEST(ShortCircuitTest, StoppedAndCrashedDataNodesWithdraw) {
  MiniDfsCluster cluster({.num_datanodes = 2, .conf = scConf()});
  auto* network = cluster.network().get();
  EXPECT_NE(ShortCircuitRegistry::instance().lookup(network, "node01"),
            nullptr);

  cluster.stopDataNode("node01");
  EXPECT_EQ(ShortCircuitRegistry::instance().lookup(network, "node01"),
            nullptr);
  cluster.restartDataNode("node01");
  EXPECT_NE(ShortCircuitRegistry::instance().lookup(network, "node01"),
            nullptr);

  cluster.killDataNode("node02");
  EXPECT_EQ(ShortCircuitRegistry::instance().lookup(network, "node02"),
            nullptr);
}

TEST(ShortCircuitTest, FencedHostFallsBackToRemoteReplicas) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = scConf()});
  const Bytes payload = randomPayload(2'000, 5);
  cluster.client().writeFile("/sc/fenced.txt", payload);

  // Fence node01 into its own partition: its loopback traffic is severed,
  // so the short-circuit path must refuse too (the local "DataNode" is
  // unreachable) and the sweep reads the remote replicas.
  auto plan = std::make_shared<net::FaultPlan>(1);
  plan->partition({"node01"}, {"node01", "node02", "node03"});
  cluster.network()->setFaultPlan(plan);

  auto client = scClient(cluster, "node01");
  EXPECT_THROW(client.readFile("/sc/fenced.txt"), IoError);
  EXPECT_EQ(scReads(cluster), 0);

  cluster.network()->setFaultPlan(nullptr);
  EXPECT_EQ(client.readFile("/sc/fenced.txt"), payload);
  EXPECT_EQ(scReads(cluster), 2);
}

TEST(ShortCircuitTest, TraceInstantRecordsLocalReads) {
  MiniDfsCluster cluster({.num_datanodes = 1, .conf = scConf()});
  const Bytes payload = randomPayload(1'000, 6);
  cluster.client().writeFile("/sc/traced.txt", payload);

  cluster.tracer().setEnabled(true);
  auto client = scClient(cluster, "node01");
  EXPECT_EQ(client.readFile("/sc/traced.txt"), payload);
  bool saw_instant = false;
  for (const auto& event : cluster.tracer().snapshot()) {
    if (event.component == "dfsclient.node01" &&
        event.name.starts_with("SHORT_CIRCUIT_READ")) {
      saw_instant = true;
    }
  }
  EXPECT_TRUE(saw_instant);
}

TEST(ShortCircuitTest, ReadsAreViewsOfTheResidentReplica) {
  MiniDfsCluster cluster({.num_datanodes = 1, .conf = scConf()});
  const Bytes payload = randomPayload(1'000, 7);  // one block
  cluster.client().writeFile("/sc/alias.txt", payload);

  auto client = scClient(cluster, "node01");
  const auto located = client.getBlockLocations("/sc/alias.txt");
  ASSERT_EQ(located.size(), 1u);
  const BufferView view = client.readBlockRange(located[0], 0, 1'000);
  const auto store = ShortCircuitRegistry::instance().lookup(
      cluster.network().get(), "node01");
  ASSERT_NE(store, nullptr);
  // Byte-identical AND pointer-identical: the client reads the store's own
  // resident buffer, no payload copy anywhere on the path.
  EXPECT_EQ(view, payload);
  EXPECT_EQ(view.view().data(),
            store->readBlock(located[0].block.id).view().data());
}

/// Least CPU time of three runs of `read` on the calling thread's clock, in
/// microseconds: other processes competing for the CPU do not inflate it.
template <typename Fn>
int64_t bestOfThreeThreadCpuMicros(Fn&& read) {
  const auto now = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1'000'000 + ts.tv_nsec / 1000;
  };
  int64_t best = INT64_MAX;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t start = now();
    read();
    best = std::min(best, now() - start);
  }
  return best;
}

TEST(ShortCircuitTest, CompressedReplicasDecodeLocallyWithoutRpc) {
  // Blocks stored as mh-lz frames: a co-located reader checks and decodes
  // the resident replica with no RPC and no wire bytes, while an off-node
  // reader pulls the raw bytes through readBlock (the DataNode decodes
  // server-side), which on the teaching cluster's gigabit NICs costs at
  // least twice the local decode.
  Config conf = scConf();
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
  cluster.client().writeFile("/sc/packed.txt", payload);
  auto& datanode = cluster.metrics().child("datanode.node01");
  EXPECT_LT(datanode.counterValue("block.compressed.bytes"),
            datanode.counterValue("block.raw.bytes"));

  auto local = scClient(cluster, "node01");
  const auto before = cluster.network()->messages("read");
  EXPECT_EQ(local.readFile("/sc/packed.txt"), payload);
  EXPECT_EQ(cluster.network()->messages("read"), before);
  EXPECT_EQ(scReads(cluster), 4);

  if (testutil::kSanitized) {
    GTEST_SKIP() << "CPU-time bounds are not checked in sanitizer builds";
  }
  // The RPC side is what the fabric's pacing model charges for the bytes
  // the remote read moved: latency per message plus bytes over bandwidth.
  constexpr int64_t kLatencyMicros = 200;
  constexpr double kBandwidthBytesPerSec = 125'000'000;  // 1 Gbps
  auto remote = cluster.client("client");
  const uint64_t messages_before = cluster.network()->messages("read");
  const uint64_t bytes_before = cluster.network()->remoteBytes("read");
  EXPECT_EQ(remote.readFile("/sc/packed.txt"), payload);
  const auto messages =
      static_cast<int64_t>(cluster.network()->messages("read") -
                           messages_before);
  const auto bytes = static_cast<double>(
      cluster.network()->remoteBytes("read") - bytes_before);
  const auto rpc_us = messages * kLatencyMicros +
                      static_cast<int64_t>(bytes / kBandwidthBytesPerSec * 1e6);

  // The short-circuit side is the CPU the decode costs: one block at a
  // time, on this thread.
  Config serial = cluster.conf();
  serial.setBool("dfs.client.read.shortcircuit", true);
  serial.setInt("dfs.client.parallel.reads", 1);
  DfsClient serial_local(serial, cluster.network(), "node01", "namenode");
  std::vector<BufferView> views;
  const int64_t sc_us = bestOfThreeThreadCpuMicros(
      [&] { views = serial_local.readFileViews("/sc/packed.txt"); });
  Bytes decoded;
  for (const BufferView& view : views) decoded.append(view.view());
  EXPECT_EQ(decoded, payload);
  EXPECT_GE(static_cast<double>(rpc_us) /
                static_cast<double>(std::max<int64_t>(sc_us, 1)),
            2.0)
      << "paced readBlock " << rpc_us << " us (" << messages << " messages, "
      << bytes << " bytes) vs short-circuit decode " << sc_us << " us CPU";
}

}  // namespace
}  // namespace mh::hdfs
