#include "mh/net/fault_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "mh/common/error.h"
#include "mh/net/network.h"

namespace mh::net {
namespace {

BufferView echoHandler(const RpcRequest& req) {
  return req.method + ":" + req.body.str() + "@" + req.from_host;
}

// ---- FaultPlan semantics (no network) --------------------------------------

TEST(FaultPlanTest, NthCallScriptedFault) {
  FaultPlan plan(1);
  plan.addRule({.match = {.method = "getTask"},
                .action = FaultAction::kError,
                .nth = 3});
  // Calls 1, 2 pass; call 3 fires; 4+ never fire again.
  EXPECT_FALSE(plan.decide("a", "b", "getTask", "rpc").has_value());
  EXPECT_FALSE(plan.decide("a", "b", "getTask", "rpc").has_value());
  const auto hit = plan.decide("a", "b", "getTask", "rpc");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->action, FaultAction::kError);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(plan.decide("a", "b", "getTask", "rpc").has_value());
  }
  EXPECT_EQ(plan.injectedFaults(), 1u);
  EXPECT_EQ(plan.ruleFires(0), 1u);
}

TEST(FaultPlanTest, MatchFiltersByMethodHostAndTag) {
  FaultPlan plan(1);
  plan.addRule({.match = {.method = "heartbeat", .from = "node01", .to = "jt",
                          .tag = "rpc"},
                .action = FaultAction::kDrop,
                .probability = 1.0});
  // Wrong method / from / to / tag: no match.
  EXPECT_FALSE(plan.decide("node01", "jt", "getTask", "rpc").has_value());
  EXPECT_FALSE(plan.decide("node02", "jt", "heartbeat", "rpc").has_value());
  EXPECT_FALSE(plan.decide("node01", "nn", "heartbeat", "rpc").has_value());
  EXPECT_FALSE(plan.decide("node01", "jt", "heartbeat", "shuffle").has_value());
  // Exact match fires (probability 1).
  EXPECT_TRUE(plan.decide("node01", "jt", "heartbeat", "rpc").has_value());
}

TEST(FaultPlanTest, MaxFiresCapsInjection) {
  FaultPlan plan(1);
  plan.addRule({.match = {.method = "x"},
                .action = FaultAction::kDrop,
                .probability = 1.0,
                .max_fires = 2});
  int fired = 0;
  for (int i = 0; i < 20; ++i) {
    if (plan.decide("a", "b", "x", "rpc")) ++fired;
  }
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(plan.injectedFaults(), 2u);
}

TEST(FaultPlanTest, SameSeedReplaysSameDecisions) {
  const auto script = [](FaultPlan& plan) {
    std::vector<int> decisions;
    const char* methods[] = {"heartbeat", "getMapOutput", "readBlock"};
    for (int i = 0; i < 300; ++i) {
      const auto d = plan.decide("node0" + std::to_string(i % 3 + 1), "jt",
                                 methods[i % 3], "rpc");
      decisions.push_back(d ? static_cast<int>(d->action) + 1 : 0);
    }
    return decisions;
  };
  const auto build = [](uint64_t seed) {
    auto plan = std::make_unique<FaultPlan>(seed);
    plan->addRule({.match = {.method = "heartbeat"},
                   .action = FaultAction::kDrop,
                   .probability = 0.3});
    plan->addRule({.match = {.method = "getMapOutput"},
                   .action = FaultAction::kError,
                   .probability = 0.5,
                   .max_fires = 10});
    return plan;
  };
  const auto a = build(99), b = build(99), c = build(100);
  const auto da = script(*a), db = script(*b), dc = script(*c);
  EXPECT_EQ(da, db);
  EXPECT_EQ(a->injectedFaults(), b->injectedFaults());
  EXPECT_GT(a->injectedFaults(), 0u);
  // A different seed draws a different sequence (overwhelmingly likely
  // over 300 calls at these probabilities).
  EXPECT_NE(da, dc);
}

TEST(FaultPlanTest, CorruptPositionsReplayForSameSeed) {
  const auto positions = [](uint64_t seed) {
    FaultPlan plan(seed);
    plan.addRule({.match = {.method = "writeBlock"},
                  .action = FaultAction::kCorrupt,
                  .probability = 0.5});
    std::vector<uint64_t> drawn;
    for (int i = 0; i < 200; ++i) {
      const auto d = plan.decide("client", "node01", "writeBlock", "pipeline");
      drawn.push_back(d ? d->corrupt_at : 0);
      if (d) {
        EXPECT_EQ(d->action, FaultAction::kCorrupt);
      }
    }
    return drawn;
  };
  const auto a = positions(17), b = positions(17), c = positions(18);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Fired calls draw positions spread over the range, not one constant.
  std::vector<uint64_t> fired;
  for (const uint64_t at : a) {
    if (at != 0) fired.push_back(at % 4096);
  }
  ASSERT_GT(fired.size(), 50u);
  std::sort(fired.begin(), fired.end());
  EXPECT_GT(std::unique(fired.begin(), fired.end()) - fired.begin(), 40);
}

TEST(FaultPlanTest, PartitionIsBidirectionalAndHeals) {
  FaultPlan plan(1);
  plan.partition({"node01", "node02"}, {"jt"});
  EXPECT_TRUE(plan.partitioned("node01", "jt"));
  EXPECT_TRUE(plan.partitioned("jt", "node02"));
  EXPECT_FALSE(plan.partitioned("node01", "node02"));
  EXPECT_FALSE(plan.partitioned("node01", "nn"));
  const auto d = plan.decide("jt", "node01", "anything", "rpc");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->action, FaultAction::kDrop);
  EXPECT_EQ(d->detail, "partition");
  plan.heal();
  EXPECT_FALSE(plan.partitioned("node01", "jt"));
  EXPECT_FALSE(plan.decide("jt", "node01", "anything", "rpc").has_value());
}

// ---- Network integration ---------------------------------------------------

TEST(NetworkFaultTest, NoPlanFastPathHasNoFaultMachinery) {
  // The acceptance criterion: with no FaultPlan installed the fault path
  // is one relaxed atomic load — nothing else observable. Calls behave
  // exactly as before and no faults.* counters ever materialize.
  Network net;
  net.bind("nn", 8020, echoHandler);
  net.addHost("client");
  EXPECT_EQ(net.faultPlan(), nullptr);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(net.call("client", "nn", 8020, "ls", Bytes("/")), "ls:/@client");
  }
  EXPECT_EQ(net.metrics().child("network").counterValue("faults.injected"), 0);
  // Counters are created lazily by the first injected fault; a fault-free
  // network must not even mention them.
  EXPECT_EQ(net.metrics().render().find("faults."), std::string::npos);
}

TEST(NetworkFaultTest, CorruptFlipsOneByteOfTheCalleesCopyOnly) {
  Network net;
  net.addHost("client");
  std::vector<BufferView> received;
  net.bind("dn", 50010, [&](const RpcRequest& req) -> BufferView {
    received.push_back(req.body);
    return {};
  });
  auto plan = std::make_shared<FaultPlan>(5);
  plan->addRule({.match = {.method = "writeBlock"},
                 .action = FaultAction::kCorrupt,
                 .nth = 1});
  net.setFaultPlan(plan);
  const Bytes original(1000, 'a');
  const Buffer body = Buffer::copyOf(original);
  net.call("client", "dn", 50010, "writeBlock", body, "pipeline");
  net.call("client", "dn", 50010, "writeBlock", body, "pipeline");
  ASSERT_EQ(received.size(), 2u);

  // The first delivery differs from the original in exactly one byte, in a
  // private buffer; the caller's buffer and the second delivery are clean.
  size_t differing = 0;
  for (size_t i = 0; i < original.size(); ++i) {
    if (received[0].view()[i] != original[i]) ++differing;
  }
  EXPECT_EQ(differing, 1u);
  EXPECT_NE(received[0].buffer().shared(), body.shared());
  EXPECT_EQ(body.view(), original);
  EXPECT_EQ(received[1].view(), original);
  EXPECT_EQ(received[1].buffer().shared(), body.shared());
  EXPECT_EQ(net.metrics().child("network").counterValue("faults.corrupted"),
            1);

  // An empty body has nothing to corrupt; the call goes through.
  plan->addRule({.match = {.method = "ping"},
                 .action = FaultAction::kCorrupt});
  EXPECT_NO_THROW(net.call("client", "dn", 50010, "ping", Bytes()));
}

TEST(NetworkFaultTest, DropAndErrorFaultsThrowBeforeHandler) {
  Network net;
  int handled = 0;
  net.bind("nn", 8020, [&](const RpcRequest&) -> Bytes {
    ++handled;
    return "ok";
  });
  net.addHost("client");
  auto plan = std::make_shared<FaultPlan>(5);
  plan->addRule({.match = {.method = "ls"},
                 .action = FaultAction::kDrop,
                 .probability = 1.0,
                 .max_fires = 1});
  plan->addRule({.match = {.method = "ls"},
                 .action = FaultAction::kError,
                 .probability = 1.0,
                 .max_fires = 1});
  net.setFaultPlan(plan);
  EXPECT_THROW(net.call("client", "nn", 8020, "ls", {}), NetworkError);
  EXPECT_THROW(net.call("client", "nn", 8020, "ls", {}), NetworkError);
  EXPECT_EQ(handled, 0);  // neither fault let the request through
  // Budget exhausted: the third call goes through.
  EXPECT_EQ(net.call("client", "nn", 8020, "ls", {}), "ok");
  EXPECT_EQ(handled, 1);
  EXPECT_EQ(net.metrics().child("network").counterValue("faults.injected"), 2);
  EXPECT_EQ(net.metrics().child("network").counterValue("faults.dropped"), 1);
  EXPECT_EQ(net.metrics().child("network").counterValue("faults.errored"), 1);
}

TEST(NetworkFaultTest, DropResponseRunsHandlerButThrows) {
  // The at-least-once hazard: the side effect lands, the caller still
  // sees a NetworkError.
  Network net;
  int handled = 0;
  net.bind("nn", 8020, [&](const RpcRequest&) -> Bytes {
    ++handled;
    return "ok";
  });
  net.addHost("client");
  auto plan = std::make_shared<FaultPlan>(5);
  plan->addRule({.match = {}, .action = FaultAction::kDropResponse, .nth = 1});
  net.setFaultPlan(plan);
  EXPECT_THROW(net.call("client", "nn", 8020, "put", Bytes("x")),
               NetworkError);
  EXPECT_EQ(handled, 1);  // the handler DID run
  EXPECT_EQ(net.call("client", "nn", 8020, "put", Bytes("x")), "ok");
  EXPECT_EQ(handled, 2);
  EXPECT_EQ(
      net.metrics().child("network").counterValue("faults.response_dropped"),
      1);
}

TEST(NetworkFaultTest, DelayFaultSleepsButSucceeds) {
  Network net;
  net.bind("nn", 8020, echoHandler);
  net.addHost("client");
  auto plan = std::make_shared<FaultPlan>(5);
  plan->addRule({.match = {},
                 .action = FaultAction::kDelay,
                 .probability = 1.0,
                 .delay_micros = 20'000,
                 .max_fires = 1});
  net.setFaultPlan(plan);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(net.call("client", "nn", 8020, "ls", Bytes("/")), "ls:/@client");
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_GE(elapsed, 15);
  EXPECT_EQ(net.metrics().child("network").counterValue("faults.delayed"), 1);
}

TEST(NetworkFaultTest, PartitionSeversCallsAndTransfersBothWays) {
  Network net;
  net.bind("a", 1, echoHandler);
  net.bind("b", 2, echoHandler);
  auto plan = std::make_shared<FaultPlan>(5);
  plan->partition({"a"}, {"b"});
  net.setFaultPlan(plan);
  EXPECT_THROW(net.call("a", "b", 2, "x", {}), NetworkError);
  EXPECT_THROW(net.call("b", "a", 1, "x", {}), NetworkError);
  EXPECT_THROW(net.call("a", "b", 2, "x", Bytes(100, 'x'), "replication"),
               NetworkError);
  EXPECT_GE(net.metrics().child("network").counterValue("faults.partitioned"),
            3);
  plan->heal();
  EXPECT_EQ(net.call("a", "b", 2, "x", {}), "x:@a");
  net.call("a", "b", 2, "x", Bytes(100, 'x'), "replication");
}

TEST(NetworkFaultTest, ClearingPlanRestoresFastPath) {
  Network net;
  net.bind("nn", 8020, echoHandler);
  net.addHost("client");
  auto plan = std::make_shared<FaultPlan>(5);
  plan->addRule(
      {.match = {}, .action = FaultAction::kDrop, .probability = 1.0});
  net.setFaultPlan(plan);
  EXPECT_THROW(net.call("client", "nn", 8020, "ls", {}), NetworkError);
  net.setFaultPlan(nullptr);
  EXPECT_EQ(net.faultPlan(), nullptr);
  EXPECT_EQ(net.call("client", "nn", 8020, "ls", Bytes("/")), "ls:/@client");
}

TEST(NetworkFaultTest, FaultInjectTraceInstantsEmitted) {
  Network net;
  net.tracer().setEnabled(true);
  net.bind("nn", 8020, echoHandler);
  net.addHost("client");
  auto plan = std::make_shared<FaultPlan>(5);
  plan->addRule({.match = {.method = "ls"},
                 .action = FaultAction::kError,
                 .nth = 1});
  net.setFaultPlan(plan);
  EXPECT_THROW(net.call("client", "nn", 8020, "ls", {}), NetworkError);
  bool saw_fault_instant = false;
  for (const auto& event : net.tracer().snapshot()) {
    if (event.name.find("FAULT_INJECT error ls") != std::string::npos) {
      saw_fault_instant = true;
    }
  }
  EXPECT_TRUE(saw_fault_instant);
}

}  // namespace
}  // namespace mh::net
