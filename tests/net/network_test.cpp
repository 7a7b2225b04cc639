#include "mh/net/network.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <thread>

#include "mh/common/buffer.h"
#include "mh/common/error.h"
#include "mh/net/fault_plan.h"

namespace mh::net {
namespace {

BufferView echoHandler(const RpcRequest& req) {
  return req.method + ":" + req.body.str() + "@" + req.from_host;
}

TEST(NetworkTest, CallReachesBoundHandler) {
  Network net;
  net.bind("nn", 8020, echoHandler);
  net.addHost("client");
  const BufferView reply =
      net.call("client", "nn", 8020, "ls", Bytes("/user"));
  EXPECT_EQ(reply, "ls:/user@client");
}

TEST(NetworkTest, ConnectionRefusedWhenUnbound) {
  Network net;
  net.addHost("nn");
  net.addHost("client");
  EXPECT_THROW(net.call("client", "nn", 8020, "ls", {}), NetworkError);
}

TEST(NetworkTest, PortConflictThrows) {
  // The ghost-daemon failure mode from the paper: a leftover daemon still
  // bound to the Hadoop ports blocks the next cluster from starting.
  Network net;
  net.bind("node01", 50010, echoHandler);
  EXPECT_THROW(net.bind("node01", 50010, echoHandler), AlreadyExistsError);
  // A different node or port is fine.
  net.bind("node02", 50010, echoHandler);
  net.bind("node01", 50020, echoHandler);
}

TEST(NetworkTest, UnbindFreesPort) {
  Network net;
  net.bind("n", 1, echoHandler);
  EXPECT_TRUE(net.isBound("n", 1));
  net.unbind("n", 1);
  EXPECT_FALSE(net.isBound("n", 1));
  net.bind("n", 1, echoHandler);  // rebind succeeds
}

TEST(NetworkTest, UnbindUnknownIsNoop) {
  Network net;
  net.unbind("ghost", 9);  // must not throw
}

TEST(NetworkTest, DownHostRefusesTraffic) {
  Network net;
  net.bind("dn", 50010, echoHandler);
  net.addHost("client");
  net.setHostUp("dn", false);
  EXPECT_THROW(net.call("client", "dn", 50010, "read", {}), NetworkError);
  EXPECT_THROW(net.transfer("client", "dn", 100, "staging"), NetworkError);
  // Recovery: bindings survive the outage (hung-JVM semantics).
  net.setHostUp("dn", true);
  EXPECT_EQ(net.call("client", "dn", 50010, "read", Bytes("x")),
            "read:x@client");
}

TEST(NetworkTest, DownCallerAlsoRefused) {
  Network net;
  net.bind("dn", 50010, echoHandler);
  net.addHost("client");
  net.setHostUp("client", false);
  EXPECT_THROW(net.call("client", "dn", 50010, "read", {}), NetworkError);
}

TEST(NetworkTest, UnknownHostThrows) {
  Network net;
  net.bind("dn", 1, echoHandler);
  EXPECT_THROW(net.call("nobody", "dn", 1, "m", {}), NetworkError);
}

TEST(NetworkTest, HandlerExceptionPropagates) {
  Network net;
  net.bind("nn", 8020, [](const RpcRequest&) -> BufferView {
    throw IllegalStateError("safe mode");
  });
  net.addHost("client");
  EXPECT_THROW(net.call("client", "nn", 8020, "mkdir", Bytes("/x")),
               IllegalStateError);
}

TEST(NetworkTest, TransferMetersRemoteVsLocal) {
  Network net;
  net.addHost("a");
  net.addHost("b");
  net.transfer("a", "b", 1000, "shuffle");
  net.transfer("a", "a", 400, "shuffle");
  EXPECT_EQ(net.remoteBytes("shuffle"), 1000u);
  EXPECT_EQ(net.localBytes("shuffle"), 400u);
  EXPECT_EQ(net.remoteBytes("replication"), 0u);
}

TEST(NetworkTest, PerTagAttributionIsIndependent) {
  Network net;
  net.addHost("a");
  net.addHost("b");
  net.transfer("a", "b", 100, "shuffle");
  net.transfer("a", "b", 100, "shuffle");
  net.transfer("b", "b", 7, "shuffle");
  net.transfer("a", "b", 50, "staging");
  EXPECT_EQ(net.remoteBytes("shuffle"), 200u);
  EXPECT_EQ(net.localBytes("shuffle"), 7u);
  EXPECT_EQ(net.messages("shuffle"), 3u);
  EXPECT_EQ(net.remoteBytes("staging"), 50u);
  EXPECT_EQ(net.messages("staging"), 1u);
  EXPECT_EQ(net.messages("nonsense"), 0u);
}

TEST(NetworkTest, RpcBytesAreMetered) {
  Network net;
  net.bind("nn", 8020, echoHandler);
  net.addHost("client");
  net.call("client", "nn", 8020, "method", Bytes("0123456789"));
  EXPECT_GE(net.remoteBytes("rpc"), 10u);
}

TEST(NetworkTest, StatsSnapshotAndReset) {
  Network net;
  net.addHost("a");
  net.addHost("b");
  net.transfer("a", "b", 5, "staging");
  auto stats = net.stats();
  ASSERT_TRUE(stats.contains("staging"));
  EXPECT_EQ(stats["staging"].messages, 1u);
  net.resetStats();
  EXPECT_EQ(net.remoteBytes("staging"), 0u);
  EXPECT_EQ(net.messages("staging"), 0u);
  EXPECT_FALSE(net.stats().contains("staging"));
}

TEST(NetworkTest, RpcLatencyLandsInMetricsHistogram) {
  Network net;
  net.bind("nn", 8020, echoHandler);
  net.addHost("client");
  net.call("client", "nn", 8020, "heartbeat", Bytes("beat"));
  net.call("client", "nn", 8020, "heartbeat", Bytes("beat"));
  net.call("client", "nn", 8020, "mkdir", Bytes("/x"));
  auto& netm = net.metrics().child("network");
  ASSERT_TRUE(netm.hasHistogram("rpc.heartbeat.micros"));
  ASSERT_TRUE(netm.hasHistogram("rpc.mkdir.micros"));
  EXPECT_EQ(netm.histogram("rpc.heartbeat.micros").count(), 2u);
  EXPECT_EQ(netm.histogram("rpc.mkdir.micros").count(), 1u);
}

TEST(NetworkTest, TrafficGaugesMirrorTheMeters) {
  Network net;
  net.addHost("a");
  net.addHost("b");
  net.transfer("a", "b", 1000, "shuffle");
  net.transfer("a", "a", 400, "shuffle");
  auto& netm = net.metrics().child("network");
  EXPECT_DOUBLE_EQ(netm.gaugeValue("traffic.shuffle.remote_bytes"), 1000.0);
  EXPECT_DOUBLE_EQ(netm.gaugeValue("traffic.shuffle.local_bytes"), 400.0);
  EXPECT_DOUBLE_EQ(netm.gaugeValue("traffic.shuffle.messages"), 2.0);
  // Gauges are live views, not samples: they follow a reset.
  net.resetStats();
  EXPECT_DOUBLE_EQ(netm.gaugeValue("traffic.shuffle.remote_bytes"), 0.0);
}

TEST(NetworkTest, BandwidthThrottleAddsDelay) {
  Network net;
  net.addHost("a");
  net.addHost("b");
  net.setBandwidthBytesPerSec(1'000'000);  // 1 MB/s
  const auto start = std::chrono::steady_clock::now();
  net.transfer("a", "b", 50'000, "staging");  // expect ~50 ms
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_GE(elapsed, 40);
}

TEST(NetworkTest, LoopbackIsNotThrottled) {
  Network net;
  net.addHost("a");
  net.setBandwidthBytesPerSec(1000);  // absurdly slow
  const auto start = std::chrono::steady_clock::now();
  net.transfer("a", "a", 1'000'000, "shuffle");
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_LT(elapsed, 50);
}

TEST(NetworkTest, ConcurrentCallsAreSafe) {
  Network net;
  std::atomic<int> hits{0};
  net.bind("nn", 8020, [&hits](const RpcRequest&) -> Bytes {
    ++hits;
    return "ok";
  });
  for (int i = 0; i < 8; ++i) net.addHost("c" + std::to_string(i));
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&net, i] {
      const std::string host = "c" + std::to_string(i);
      for (int k = 0; k < 200; ++k) {
        net.call(host, "nn", 8020, "hb", Bytes("beat"));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hits.load(), 1600);
}

TEST(NetworkTest, HostsAreSorted) {
  Network net;
  net.addHost("b");
  net.addHost("a");
  net.addHost("b");  // idempotent
  const auto h = net.hosts();
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0], "a");
  EXPECT_EQ(h[1], "b");
}

TEST(NetworkTest, UnbindDrainsInflightHandlers) {
  // A daemon tears down its port and then destroys the state its handler
  // captured; unbind must therefore not return while an invocation is still
  // inside the handler on another thread.
  Network net;
  net.addHost("client");
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::atomic<bool> unbound{false};
  net.bind("dn", 50, [&](const RpcRequest&) {
    entered = true;
    while (!release) std::this_thread::yield();
    return Bytes("ok");
  });
  std::thread caller([&] {
    EXPECT_EQ(net.call("client", "dn", 50, "slow", {}), "ok");
  });
  while (!entered) std::this_thread::yield();
  std::thread closer([&] {
    net.unbind("dn", 50);
    unbound = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(unbound);                // parked behind the running handler
  EXPECT_FALSE(net.isBound("dn", 50));  // but the port is already free
  release = true;
  closer.join();
  caller.join();
  EXPECT_TRUE(unbound);
  EXPECT_THROW(net.call("client", "dn", 50, "slow", {}), NetworkError);
}

TEST(NetworkTest, CallBufReachesBufEndpoint) {
  // The request body reaches the handler as the caller's own view: same
  // backing buffer, no copy on the way in.
  Network net;
  const Buffer body = Buffer::copyOf("blk");
  const char* seen = nullptr;
  net.bind("dn", 1, [&seen](const RpcRequest& req) -> BufferView {
    seen = req.body.data();
    return "got:" + req.body.str() + "@" + req.from_host;
  });
  net.addHost("client");
  const BufferView reply = net.call("client", "dn", 1, "read", body, "read");
  EXPECT_EQ(reply, "got:blk@client");
  EXPECT_EQ(seen, body.data());
}

TEST(NetworkTest, CallAccountingIsExact) {
  // A view crossing the fabric is charged as if its bytes moved: the
  // request leg costs body + method bytes, the reply leg the reply size,
  // and every call is one histogram sample.
  Network net;
  const Buffer reply = Buffer::copyOf(Bytes(300, 'r'));
  net.bind("dn", 1, [&reply](const RpcRequest&) { return BufferView(reply); });
  net.addHost("client");
  const Buffer body = Buffer::copyOf(Bytes(1000, 'p'));

  net.call("client", "dn", 1, "fetch", body, "remote");
  EXPECT_EQ(net.remoteBytes("remote"), 1000u + 5u + 300u);
  EXPECT_EQ(net.localBytes("remote"), 0u);
  EXPECT_EQ(net.messages("remote"), 2u);  // request leg + reply leg

  // Loopback traffic is metered as local bytes, never remote.
  net.call("dn", "dn", 1, "fetch", body, "loopback");
  EXPECT_EQ(net.localBytes("loopback"), 1000u + 5u + 300u);
  EXPECT_EQ(net.remoteBytes("loopback"), 0u);

  EXPECT_EQ(
      net.metrics().child("network").histogram("rpc.fetch.micros").count(),
      2u);
}

TEST(NetworkTest, CallBufReplyAliasesTheServedBuffer) {
  // End-to-end zero-copy: the view the caller receives points into the
  // very buffer the handler served — even across "remote" hosts, since the
  // fabric is in-process and only the bandwidth model distinguishes them.
  Network net;
  const Buffer block = Buffer::copyOf(Bytes(4096, 'd'));
  net.bind("dn", 1,
           [&block](const RpcRequest&) { return BufferView(block); });
  net.addHost("client");
  const BufferView reply = net.call("client", "dn", 1, "read", {}, "read");
  EXPECT_EQ(reply.view().data(), block.view().data());
  EXPECT_EQ(reply.size(), 4096u);
}

TEST(NetworkTest, FaultPlanAppliesToCallBuf) {
  Network net;
  std::atomic<int> served{0};
  net.bind("dn", 1, [&served](const RpcRequest&) -> BufferView {
    ++served;
    return Bytes("ok");
  });
  net.addHost("client");

  auto plan = std::make_shared<FaultPlan>(1);
  plan->addRule({.match = {.method = "read"},
                 .action = FaultAction::kDrop,
                 .nth = 1});
  // Rules after a firing rule don't see the call, so this rule's first
  // matching call is the second call below.
  plan->addRule({.match = {.method = "read"},
                 .action = FaultAction::kDropResponse,
                 .nth = 1});
  net.setFaultPlan(plan);

  // Drop: lost before delivery, handler never runs.
  EXPECT_THROW(net.call("client", "dn", 1, "read", {}, "read"), NetworkError);
  EXPECT_EQ(served.load(), 0);
  // DropResponse: the handler runs but the caller still sees the error.
  EXPECT_THROW(net.call("client", "dn", 1, "read", {}, "read"), NetworkError);
  EXPECT_EQ(served.load(), 1);
  // Budget exhausted: traffic flows again.
  EXPECT_EQ(net.call("client", "dn", 1, "read", {}, "read"), "ok");
}

TEST(NetworkTest, CallBufRefusedWhenHostDownOrUnbound) {
  Network net;
  net.bind("dn", 1, [](const RpcRequest&) { return BufferView(); });
  net.addHost("client");
  EXPECT_THROW(net.call("client", "dn", 99, "read", {}), NetworkError);
  net.setHostUp("dn", false);
  EXPECT_THROW(net.call("client", "dn", 1, "read", {}), NetworkError);
}

// Satellite: MH_TRACE / MH_METRICS_SNAPSHOT_MS switch the observability
// layer on at Network construction — no code changes, works for any
// example or bench binary.
TEST(NetworkEnvTest, ObservabilityEnvVarsArmTheFabric) {
  {
    // Default: tracing off, no snapshotter thread.
    Network net;
    EXPECT_FALSE(net.tracer().enabled());
    EXPECT_EQ(net.snapshotter(), nullptr);
  }
  ::setenv("MH_TRACE", "1", 1);
  ::setenv("MH_METRICS_SNAPSHOT_MS", "5", 1);
  {
    Network net;
    EXPECT_TRUE(net.tracer().enabled());
    ASSERT_NE(net.snapshotter(), nullptr);
    EXPECT_TRUE(net.snapshotter()->running());
    EXPECT_EQ(net.snapshotter()->intervalMs(), 5);
  }
  // Falsy / non-positive values stay off.
  ::setenv("MH_TRACE", "0", 1);
  ::setenv("MH_METRICS_SNAPSHOT_MS", "0", 1);
  {
    Network net;
    EXPECT_FALSE(net.tracer().enabled());
    EXPECT_EQ(net.snapshotter(), nullptr);
  }
  ::unsetenv("MH_TRACE");
  ::unsetenv("MH_METRICS_SNAPSHOT_MS");
}

}  // namespace
}  // namespace mh::net
