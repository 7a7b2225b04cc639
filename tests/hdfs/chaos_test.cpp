#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "mh/common/rng.h"
#include "mh/common/trace_analysis.h"
#include "mh/hdfs/mini_cluster.h"
#include "mh/net/fault_plan.h"
#include "testutil/aggressive_timers.h"

namespace mh::hdfs {
namespace {

// Chaos/property test: a random interleaving of namespace operations,
// writes, datanode crashes/restarts, and NameNode restarts must leave the
// file system agreeing with a trivial in-memory reference model — nothing
// lost, nothing resurrected, all bytes intact.
class HdfsChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HdfsChaosTest, RandomOpsMatchReferenceModel) {
  Config conf = testutil::aggressiveTimers();
  conf.setInt("dfs.replication", 2);
  conf.setInt("dfs.blocksize", 2048);
  // Two seeds store blocks compressed: crash/restart, re-replication, and
  // NameNode restarts must be byte-transparent over framed replicas.
  if (GetParam() == 2 || GetParam() == 5) {
    conf.set("dfs.block.compression.codec", "mh-lz");
  }
  MiniDfsCluster cluster({.num_datanodes = 4, .conf = conf});
  auto client = cluster.client();

  Rng rng(GetParam());
  std::map<std::string, Bytes> model;  // path -> contents
  int down_nodes = 0;

  const auto randomPath = [&](bool existing) -> std::string {
    if (existing && !model.empty()) {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.uniform(model.size())));
      return it->first;
    }
    return "/chaos/f" + std::to_string(rng.uniform(30));
  };
  const auto randomBody = [&] {
    Bytes body;
    const auto n = rng.uniform(6000);
    body.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      body.push_back(static_cast<char>('a' + rng.uniform(26)));
    }
    return body;
  };

  for (int step = 0; step < 120; ++step) {
    const auto action = rng.uniform(100);
    try {
      if (action < 40) {  // write (create or overwrite-by-replace)
        const std::string path = randomPath(rng.chance(0.3));
        const Bytes body = randomBody();
        if (model.contains(path)) client.remove(path, false);
        client.writeFile(path, body);
        model[path] = body;
      } else if (action < 55 && !model.empty()) {  // delete
        const std::string path = randomPath(true);
        EXPECT_TRUE(client.remove(path, false));
        model.erase(path);
      } else if (action < 65 && !model.empty()) {  // rename
        const std::string from = randomPath(true);
        const std::string to =
            "/chaos/renamed" + std::to_string(rng.uniform(1000));
        if (!model.contains(to)) {
          client.rename(from, to);
          model[to] = model[from];
          model.erase(from);
        }
      } else if (action < 80 && !model.empty()) {  // read-verify
        const std::string path = randomPath(true);
        EXPECT_EQ(client.readFile(path), model[path]) << path;
      } else if (action < 88 && down_nodes == 0) {  // crash a datanode
        const auto hosts = cluster.dataNodeHosts();
        cluster.killDataNode(hosts[rng.uniform(hosts.size())]);
        ++down_nodes;
      } else if (action < 96 && down_nodes > 0) {  // bring them back
        for (const auto& host : cluster.dataNodeHosts()) {
          if (!cluster.dataNode(host).running()) {
            cluster.restartDataNode(host);
          }
        }
        down_nodes = 0;
      } else {  // NameNode restart (only with all datanodes up, so the
                // cluster can actually leave safe mode again)
        if (down_nodes == 0) {
          cluster.restartNameNode();
          ASSERT_TRUE(cluster.waitOutOfSafeMode(20'000));
        }
      }
    } catch (const IllegalStateError&) {
      // Safe-mode window right after a NameNode restart: acceptable; the
      // model was not updated, so consistency holds.
    } catch (const IoError&) {
      // A write raced a crash and all pipeline targets were unreachable:
      // the file may exist with partial blocks. Clean it from both sides.
      // (Clients in real Hadoop see the same and re-run their job.)
      const auto files = client.listFilesRecursive("/");
      for (const auto& f : files) {
        if (!model.contains(f)) client.remove(f, false);
      }
    }
  }

  // Let replication settle, then do the full audit.
  for (const auto& host : cluster.dataNodeHosts()) {
    if (!cluster.dataNode(host).running()) cluster.restartDataNode(host);
  }
  ASSERT_TRUE(cluster.waitHealthy(30'000));
  auto files = client.listFilesRecursive("/");
  std::erase_if(files, [&](const std::string& f) {
    return !model.contains(f);  // partial-write leftovers cleaned above
  });
  EXPECT_EQ(files.size(), model.size());
  for (const auto& [path, body] : model) {
    ASSERT_TRUE(client.exists(path)) << path;
    EXPECT_EQ(client.readFile(path), body) << path;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HdfsChaosTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Satellite: the same random-ops chaos contract with full observability on
// — tracing plus the background metrics snapshotter. Observation must not
// perturb the file system (model still agrees byte-for-byte), and the
// session's trace must form one connected tree across client, NameNode,
// and DataNodes despite crashes and restarts.
class TracedHdfsChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TracedHdfsChaosTest, ObservedRandomOpsMatchReferenceModel) {
  Config conf = testutil::aggressiveTimers();
  conf.setInt("dfs.replication", 2);
  conf.setInt("dfs.blocksize", 2048);
  MiniDfsCluster cluster({.num_datanodes = 4, .conf = conf});
  cluster.tracer().setEnabled(true);
  MetricsSnapshotter& snapshotter =
      cluster.network()->startSnapshotter({.interval_ms = 5});
  ASSERT_TRUE(snapshotter.running());
  auto client = cluster.client();

  Rng rng(GetParam());
  std::map<std::string, Bytes> model;
  int down_nodes = 0;

  const auto randomPath = [&](bool existing) -> std::string {
    if (existing && !model.empty()) {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.uniform(model.size())));
      return it->first;
    }
    return "/chaos/f" + std::to_string(rng.uniform(30));
  };
  const auto randomBody = [&] {
    Bytes body;
    const auto n = rng.uniform(6000);
    body.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      body.push_back(static_cast<char>('a' + rng.uniform(26)));
    }
    return body;
  };

  // All client ops run under one session root span, so the whole chaos
  // session exports as a single causal tree (HDFS has no JobTracker to
  // mint one; a client-side root plays that role).
  uint64_t trace_id = 0;
  {
    const TraceContextScope session_ctx(
        TraceContext{cluster.tracer().newId(), 0, 0});
    TraceSpan session(&cluster.tracer(), "client", "JOB chaos session");
    trace_id = session.context().trace_id;

    for (int step = 0; step < 80; ++step) {
      const auto action = rng.uniform(100);
      try {
        if (action < 40) {
          const std::string path = randomPath(rng.chance(0.3));
          const Bytes body = randomBody();
          if (model.contains(path)) client.remove(path, false);
          client.writeFile(path, body);
          model[path] = body;
        } else if (action < 55 && !model.empty()) {
          const std::string path = randomPath(true);
          EXPECT_TRUE(client.remove(path, false));
          model.erase(path);
        } else if (action < 75 && !model.empty()) {
          const std::string path = randomPath(true);
          EXPECT_EQ(client.readFile(path), model[path]) << path;
        } else if (action < 88 && down_nodes == 0) {
          const auto hosts = cluster.dataNodeHosts();
          cluster.killDataNode(hosts[rng.uniform(hosts.size())]);
          ++down_nodes;
        } else {
          for (const auto& host : cluster.dataNodeHosts()) {
            if (!cluster.dataNode(host).running()) {
              cluster.restartDataNode(host);
            }
          }
          down_nodes = 0;
        }
      } catch (const IoError&) {
        const auto files = client.listFilesRecursive("/");
        for (const auto& f : files) {
          if (!model.contains(f)) client.remove(f, false);
        }
      }
    }
  }

  for (const auto& host : cluster.dataNodeHosts()) {
    if (!cluster.dataNode(host).running()) cluster.restartDataNode(host);
  }
  ASSERT_TRUE(cluster.waitHealthy(30'000));
  auto files = client.listFilesRecursive("/");
  std::erase_if(files,
                [&](const std::string& f) { return !model.contains(f); });
  EXPECT_EQ(files.size(), model.size());
  for (const auto& [path, body] : model) {
    ASSERT_TRUE(client.exists(path)) << path;
    EXPECT_EQ(client.readFile(path), body) << path;
  }

  // The observability contract: a connected tree under the session root,
  // no ring overflow, a consistent drop gauge, and a live time-series.
  ASSERT_NE(trace_id, 0u);
  EXPECT_EQ(cluster.tracer().droppedEvents(), 0u);
  EXPECT_DOUBLE_EQ(
      cluster.metrics().child("network").gaugeValue("trace.dropped.events"),
      0.0);
  const TraceTreeStats stats =
      analyzeTraceTree(cluster.tracer().snapshot(), trace_id);
  EXPECT_GT(stats.span_count, 1u);
  EXPECT_EQ(stats.missing_parents, 0u);
  ASSERT_EQ(stats.root_span_ids.size(), 1u);
  EXPECT_TRUE(stats.connected());
  const auto& kinds = stats.daemon_kinds;
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), "namenode"), kinds.end());
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), "dfsclient"), kinds.end());
  // The workload can end before the sampler's second 5 ms tick (a loaded
  // host may not schedule it in time), so wait, bounded, for a second
  // sample: this checks that the sampler thread is live, not how long the
  // workload took.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (snapshotter.size() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(snapshotter.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TracedHdfsChaosTest, ::testing::Values(3));

// Restart-under-chaos: the NameNode is repeatedly kill -9'd mid-workload
// and must come back from its on-disk image + edit log with the namespace
// oracle-equal to the reference model and every acked byte readable. The
// name dir uses a small checkpoint threshold so crashes land before,
// between, and after checkpoints across seeds. Ops are driver-serialized,
// so every model entry was acked before any crash — with edits synced per
// txn, recovery owes us all of them, and deletions must stay deleted
// (nothing resurrected from stale segments or images).
class NameNodeCrashHdfsChaosTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  NameNodeCrashHdfsChaosTest() {
    name_dir_ = std::filesystem::temp_directory_path() /
                ("mh_nn_chaos_" + std::to_string(::getpid()) + "_s" +
                 std::to_string(GetParam()));
    std::filesystem::remove_all(name_dir_);
  }
  ~NameNodeCrashHdfsChaosTest() override {
    std::filesystem::remove_all(name_dir_);
  }
  std::filesystem::path name_dir_;
};

TEST_P(NameNodeCrashHdfsChaosTest, CrashRestartRecoversAckedState) {
  Config conf = testutil::aggressiveTimers();
  conf.setInt("dfs.replication", 2);
  conf.setInt("dfs.blocksize", 2048);
  conf.set("dfs.namenode.name.dir", name_dir_.string());
  conf.setInt("dfs.namenode.checkpoint.txns", 40);
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = conf});
  auto client = cluster.client();

  Rng rng(GetParam());
  std::map<std::string, Bytes> model;  // path -> acked contents
  int crashes = 0;

  // A freshly recovered NameNode knows no DataNodes until heartbeats
  // re-register them; writes before that fail placement. Real clients see
  // the same window — the driver waits it out like an operator would.
  const auto waitRecovered = [&] {
    ASSERT_TRUE(cluster.waitOutOfSafeMode(20'000));
    for (int i = 0; i < 1000 && cluster.nameNode().liveDataNodes() < 3; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(cluster.nameNode().liveDataNodes(), 3u);
  };

  const auto randomPath = [&](bool existing) -> std::string {
    if (existing && !model.empty()) {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.uniform(model.size())));
      return it->first;
    }
    return "/chaos/f" + std::to_string(rng.uniform(30));
  };
  const auto randomBody = [&] {
    Bytes body;
    const auto n = rng.uniform(6000);
    body.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      body.push_back(static_cast<char>('a' + rng.uniform(26)));
    }
    return body;
  };

  for (int step = 0; step < 110; ++step) {
    const auto action = rng.uniform(100);
    try {
      if (!cluster.nameNodeRunning() && rng.chance(0.6)) {
        cluster.restartNameNode();
        waitRecovered();
      }
      if (action < 40) {  // write (create or overwrite-by-replace)
        const std::string path = randomPath(rng.chance(0.3));
        const Bytes body = randomBody();
        if (model.contains(path)) client.remove(path, false);
        client.writeFile(path, body);
        model[path] = body;
      } else if (action < 52 && !model.empty()) {  // delete
        const std::string path = randomPath(true);
        EXPECT_TRUE(client.remove(path, false));
        model.erase(path);
      } else if (action < 62 && !model.empty()) {  // rename
        const std::string from = randomPath(true);
        const std::string to =
            "/chaos/renamed" + std::to_string(rng.uniform(1000));
        if (!model.contains(to)) {
          client.rename(from, to);
          model[to] = model[from];
          model.erase(from);
        }
      } else if (action < 80 && !model.empty()) {  // read-verify
        const std::string path = randomPath(true);
        EXPECT_EQ(client.readFile(path), model[path]) << path;
      } else if (action < 92) {  // kill -9 the NameNode
        if (cluster.nameNodeRunning()) {
          cluster.crashNameNode();
          ++crashes;
        }
      } else {  // clean restart: stop() syncs, recovery from disk
        if (cluster.nameNodeRunning()) {
          cluster.restartNameNode();
          waitRecovered();
        }
      }
    } catch (const NetworkError&) {
      // NameNode down: the op was never acked and the model was not
      // updated, so consistency holds.
    } catch (const IllegalStateError&) {
      // Safe-mode window right after a restart: same contract.
    } catch (const IoError&) {
      // A write failed mid-pipeline (e.g. placement raced a restart): the
      // file may exist with partial blocks and was never acked. Clean it
      // from the file system so the final audit compares acked state only.
      if (cluster.nameNodeRunning()) {
        const auto files = client.listFilesRecursive("/");
        for (const auto& f : files) {
          if (!model.contains(f)) client.remove(f, false);
        }
      }
    }
  }
  EXPECT_GT(crashes, 0) << "seed never crashed the NameNode; widen the "
                           "driver probabilities";

  if (!cluster.nameNodeRunning()) cluster.restartNameNode();
  waitRecovered();
  ASSERT_TRUE(cluster.waitHealthy(30'000));

  // Oracle equality: exactly the acked files, byte-for-byte. Partial
  // files were cleaned as they happened, so the listing must match the
  // model exactly.
  const auto files = client.listFilesRecursive("/");
  EXPECT_EQ(files.size(), model.size());
  for (const auto& [path, body] : model) {
    ASSERT_TRUE(client.exists(path)) << path;
    EXPECT_EQ(client.readFile(path), body) << path;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NameNodeCrashHdfsChaosTest,
                         ::testing::Values(21, 22, 23));

// A network partition mid-re-replication. Kill one DataNode so the
// NameNode starts re-replicating its blocks, then sever one of the
// surviving replication targets from the rest of the cluster. The
// NameNode must fail over to the reachable nodes, and after the partition
// heals every byte must still be readable.
TEST(HdfsPartitionTest, PartitionDuringReplicationConverges) {
  Config conf = testutil::aggressiveTimers();
  conf.setInt("dfs.replication", 2);
  conf.setInt("dfs.blocksize", 1024);
  MiniDfsCluster cluster({.num_datanodes = 4, .conf = conf});
  auto client = cluster.client();

  // Multi-block files so re-replication has real work to do.
  Rng rng(42);
  std::map<std::string, Bytes> files;
  for (int i = 0; i < 6; ++i) {
    Bytes body;
    const auto n = 3000 + rng.uniform(3000);
    body.reserve(n);
    for (uint64_t b = 0; b < n; ++b) {
      body.push_back(static_cast<char>('a' + rng.uniform(26)));
    }
    const std::string path = "/part/f" + std::to_string(i);
    client.writeFile(path, body);
    files[path] = std::move(body);
  }

  const auto hosts = cluster.dataNodeHosts();
  cluster.killDataNode(hosts[0]);

  // Mid-replication, partition a second DataNode away from everything
  // else (NameNode included — its heartbeats now vanish too).
  auto plan = std::make_shared<net::FaultPlan>(/*seed=*/7);
  plan->partition({hosts[1]}, {"namenode", "client", hosts[2], hosts[3]});
  cluster.network()->setFaultPlan(plan);
  EXPECT_TRUE(plan->partitioned(hosts[1], "namenode"));

  // Let the expiry declare the partitioned node dead and replication
  // re-route through the two reachable survivors.
  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  EXPECT_GT(plan->injectedFaults(), 0u);

  plan->heal();
  cluster.restartDataNode(hosts[0]);
  ASSERT_TRUE(cluster.waitHealthy(30'000));
  for (const auto& [path, body] : files) {
    EXPECT_EQ(client.readFile(path), body) << path;
  }
}

}  // namespace
}  // namespace mh::hdfs
