#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "mh/common/error.h"
#include "mh/common/rng.h"
#include "mh/hdfs/mini_cluster.h"
#include "mh/net/fault_plan.h"
#include "testutil/aggressive_timers.h"
#include "testutil/process_threads.h"

/// \file replica_sharing_test.cpp
/// The write pipeline's replicas are views of the one request buffer the
/// writer packed, and multi-block reads borrow helpers from the process's
/// one I/O helper pool instead of creating threads: sharing must not let
/// one replica's damage or deletion reach the others, and a busy pool must
/// not stall a read.

namespace mh::hdfs {
namespace {

using testutil::processThreads;

constexpr size_t kBlock = 64 * 1024;

Config sharedConf() {
  Config conf = testutil::aggressiveTimers();
  conf.setInt("dfs.replication", 3);
  conf.setInt("dfs.blocksize", static_cast<int64_t>(kBlock));
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

/// The only block of `path`, which must be replicated on all three nodes.
BlockId onlyBlock(MiniDfsCluster& cluster, const std::string& path) {
  const auto located = cluster.client().getBlockLocations(path);
  EXPECT_EQ(located.size(), 1u);
  EXPECT_EQ(located.at(0).hosts.size(), 3u);
  return located.at(0).block.id;
}

TEST(SharedReplicaTest, PipelineReplicasShareOneBuffer) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = sharedConf()});
  const Bytes payload = randomPayload(kBlock, 1);
  cluster.client().writeFile("/one", payload);
  const BlockId id = onlyBlock(cluster, "/one");

  const char* shared = nullptr;
  for (const std::string& host : cluster.dataNodeHosts()) {
    const BlockStore& store = cluster.dataNode(host).store();
    const StoredReplica replica = store.readStored(id);
    EXPECT_EQ(replica.stored, payload) << host;
    if (shared == nullptr) shared = replica.stored.data();
    EXPECT_EQ(replica.stored.data(), shared) << host;
    // The request buffer the replicas pin is sized to the message: payload,
    // header and chunk CRCs (0.8%), no growth slack.
    EXPECT_LT(replica.stored.buffer().shared()->capacity(),
              payload.size() + payload.size() / 50)
        << host;
    // Each store still accounts its own replica at the payload size.
    EXPECT_EQ(store.usedBytes(), payload.size()) << host;
  }
}

TEST(SharedReplicaTest, CorruptingOneReplicaLeavesTheOthersClean) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = sharedConf()});
  const Bytes payload = randomPayload(kBlock, 2);
  cluster.client().writeFile("/one", payload);
  const BlockId id = onlyBlock(cluster, "/one");

  cluster.dataNode("node01").store().corruptBlock(id, 1000);
  for (const std::string& host : cluster.dataNodeHosts()) {
    const auto bad = cluster.dataNode(host).store().scanAll();
    if (host == "node01") {
      EXPECT_EQ(bad, std::vector<BlockId>{id});
    } else {
      EXPECT_TRUE(bad.empty()) << host;
      EXPECT_EQ(cluster.dataNode(host).store().readBlock(id), payload) << host;
    }
  }
  // A reader on node01 tries its own (corrupt) replica first, then falls
  // over to a clean one.
  EXPECT_EQ(cluster.client("node01").readFile("/one"), payload);
}

TEST(SharedReplicaTest, DeletingOneReplicaLeavesTheOthersReadable) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = sharedConf()});
  const Bytes payload = randomPayload(kBlock, 3);
  cluster.client().writeFile("/one", payload);
  const BlockId id = onlyBlock(cluster, "/one");

  cluster.dataNode("node02").store().deleteBlock(id);
  EXPECT_EQ(cluster.dataNode("node02").store().usedBytes(), 0u);
  for (const char* host : {"node01", "node03"}) {
    const BlockStore& store = cluster.dataNode(host).store();
    EXPECT_EQ(store.readBlock(id), payload) << host;
    EXPECT_EQ(store.usedBytes(), payload.size()) << host;
  }
  EXPECT_EQ(cluster.client("node02").readFile("/one"), payload);
}

TEST(ReadHelperPoolTest, RepeatedReadsCreateNoThreads) {
  Config conf = sharedConf();
  conf.setInt("dfs.blocksize", 1024);
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = conf});
  const Bytes payload = randomPayload(16 * 1024, 4);  // 16 blocks
  cluster.client().writeFile("/wide", payload);
  Config read_conf = conf;
  read_conf.setInt("dfs.client.parallel.reads", 4);
  DfsClient client(read_conf, cluster.network(), "client", "namenode");

  const int before = processThreads();
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(client.readFile("/wide"), payload) << "read " << i;
  }
  // At most the width-1 helpers the shared pool grows to, once.
  EXPECT_LE(processThreads(), before + 3);
}

TEST(ReadHelperPoolTest, BusyPoolDoesNotStallARead) {
  // A read at the widest width occupies every helper the pool can hold,
  // each parked in a 1 s delay on its block. A second read's helpers can
  // only queue behind them, so the caller reads every block itself — and
  // must return long before the delay frees the pool.
  constexpr int kWidest = 64;
  constexpr auto kDelay = std::chrono::milliseconds(1000);
  Config conf = sharedConf();
  conf.setInt("dfs.replication", 2);
  conf.setInt("dfs.blocksize", 1024);
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = conf});
  const Bytes payload = randomPayload(kWidest * 1024, 5);  // 64 blocks
  cluster.client().writeFile("/wide", payload);

  auto plan = std::make_shared<net::FaultPlan>(1);
  const size_t slow_rule = plan->addRule(
      {.match = {.method = "readBlock", .from = "slow"},
       .action = net::FaultAction::kDelay,
       .delay_micros =
           std::chrono::duration_cast<std::chrono::microseconds>(kDelay)
               .count()});
  cluster.network()->setFaultPlan(plan);

  Config slow_conf = conf;
  slow_conf.setInt("dfs.client.parallel.reads", kWidest);
  DfsClient slow(slow_conf, cluster.network(), "slow", "namenode");
  Bytes slow_bytes;
  std::thread slow_reader([&] { slow_bytes = slow.readFile("/wide"); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (plan->ruleFires(slow_rule) < static_cast<uint64_t>(kWidest) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (plan->ruleFires(slow_rule) != static_cast<uint64_t>(kWidest)) {
    slow_reader.join();
    FAIL() << "the slow read never had every block in flight";
  }

  Config fast_conf = conf;
  fast_conf.setInt("dfs.client.parallel.reads", 4);
  DfsClient fast(fast_conf, cluster.network(), "fast", "namenode");
  const auto started = std::chrono::steady_clock::now();
  EXPECT_EQ(fast.readFile("/wide"), payload);
  const auto took = std::chrono::steady_clock::now() - started;
  EXPECT_LT(took, kDelay / 2)
      << "the fast read waited for the busy pool's helpers";
  slow_reader.join();
  EXPECT_EQ(slow_bytes, payload);
}

}  // namespace
}  // namespace mh::hdfs
