#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "mh/common/error.h"
#include "mh/common/serde.h"
#include "mh/common/stopwatch.h"
#include "mh/hdfs/mini_cluster.h"
#include "mh/mr/map_output_store.h"
#include "mh/mr/task_tracker.h"
#include "mh/net/fault_plan.h"
#include "testutil/aggressive_timers.h"

namespace mh::mr {
namespace {

/// Answers a `getMapOutput` request from a real MapOutputStore, as a
/// TaskTracker would.
BufferView serveFrom(MapOutputStore& store, const net::RpcRequest& req) {
  auto [job, partition, maps] =
      unpack<uint32_t, uint32_t, std::vector<uint32_t>>(req.body);
  return store.serve(job, partition, std::move(maps));
}

/// A map-side host serving the outputs `store` holds.
void serveMapOutputs(net::Network& network, const std::string& host,
                     MapOutputStore& store) {
  network.addHost(host);
  network.bind(host, kTaskTrackerPort,
               [&store](const net::RpcRequest& req) -> BufferView {
                 return serveFrom(store, req);
               });
}

TaskAssignment reduceAssignment(uint32_t partition,
                                const std::vector<std::string>& map_hosts) {
  TaskAssignment assignment;
  assignment.kind = AssignmentKind::kReduce;
  assignment.job = 7;
  assignment.task_index = partition;
  for (uint32_t i = 0; i < map_hosts.size(); ++i) {
    assignment.map_outputs.push_back({i, map_hosts[i]});
  }
  return assignment;
}

TEST(ShuffleFetchTest, FetchesEveryRunAndMetersCounters) {
  net::Network network;
  network.addHost("reducer");
  MapOutputStore store;
  std::vector<std::string> hosts;
  for (uint32_t m = 0; m < 4; ++m) {
    hosts.push_back("tt" + std::to_string(m));
    serveMapOutputs(network, hosts.back(), store);
    store.put(7, m, {Bytes("p0-from-map" + std::to_string(m)),
                     Bytes("p1-from-map" + std::to_string(m))});
  }

  Config conf;
  Counters shuffle_counters;
  const auto units = fetchShuffleRuns(network, "reducer",
                                      reduceAssignment(1, hosts), conf,
                                      shuffle_counters, /*by_host=*/false);
  ASSERT_EQ(units.size(), 4u);
  int64_t expected_bytes = 0;
  for (uint32_t m = 0; m < 4; ++m) {
    EXPECT_FALSE(units[m].error.has_value()) << *units[m].error;
    EXPECT_EQ(units[m].host, hosts[m]);
    EXPECT_EQ(units[m].maps, std::vector<uint32_t>{m});
    EXPECT_EQ(units[m].run, "p1-from-map" + std::to_string(m));
    expected_bytes += static_cast<int64_t>(units[m].run.size());
  }
  EXPECT_EQ(shuffle_counters.value(counters::kShuffleGroup, counters::kShuffleBytes),
            expected_bytes);
  EXPECT_GE(shuffle_counters.value(counters::kShuffleGroup,
                           counters::kShuffleFetchMillis),
            0);
}

TEST(ShuffleFetchTest, FetchesRunConcurrently) {
  // With a 25 ms one-way link latency and 6 map hosts, a sequential fetch
  // pays >= 6 * 50 ms = 300 ms (request + response legs). Five parallel
  // copies overlap the waits into two waves, ~100 ms. Assert the wall clock
  // (and the SHUFFLE_FETCH_MILLIS counter) beats the sequential sum with
  // room to spare — the timing *is* the subject here.
  net::Network network;
  network.addHost("reducer");
  MapOutputStore store;
  std::vector<std::string> hosts;
  for (uint32_t m = 0; m < 6; ++m) {
    hosts.push_back("tt" + std::to_string(m));
    serveMapOutputs(network, hosts.back(), store);
    store.put(7, m, {Bytes("run-from-map" + std::to_string(m))});
  }
  network.setLatencyMicros(25'000);

  Config conf;
  Counters shuffle_counters;
  Stopwatch watch;
  const auto units = fetchShuffleRuns(network, "reducer",
                                      reduceAssignment(0, hosts), conf,
                                      shuffle_counters, /*by_host=*/false);
  const int64_t elapsed = watch.elapsedMillis();
  ASSERT_EQ(units.size(), 6u);

  const int64_t sequential_sum = 6 * 2 * 25;
  EXPECT_LT(elapsed, sequential_sum);
  EXPECT_LT(shuffle_counters.value(counters::kShuffleGroup,
                           counters::kShuffleFetchMillis),
            sequential_sum);
}

TEST(ShuffleFetchTest, DownHostProducesFetchFailureShape) {
  // One dead map host among live ones: its unit comes back failed, naming
  // the host and the map the JobTracker must re-execute, and the failure
  // leaves its siblings' runs intact — the fetch never throws for it.
  net::Network network;
  network.addHost("reducer");
  MapOutputStore store;
  std::vector<std::string> hosts;
  for (uint32_t m = 0; m < 3; ++m) {
    hosts.push_back("tt" + std::to_string(m));
    serveMapOutputs(network, hosts.back(), store);
    store.put(7, m, {Bytes("run-from-map" + std::to_string(m))});
  }
  network.setHostUp("tt1", false);

  Config conf;
  Counters shuffle_counters;
  const auto units = fetchShuffleRuns(network, "reducer",
                                      reduceAssignment(0, hosts), conf,
                                      shuffle_counters, /*by_host=*/false);
  ASSERT_EQ(units.size(), 3u);
  ASSERT_TRUE(units[1].error.has_value());
  EXPECT_FALSE(units[1].error->empty());
  EXPECT_EQ(units[1].host, "tt1");
  EXPECT_EQ(units[1].blamedMap(), 1u);
  for (const uint32_t m : {0u, 2u}) {
    EXPECT_FALSE(units[m].error.has_value()) << *units[m].error;
    EXPECT_EQ(units[m].run, "run-from-map" + std::to_string(m));
  }
  // Only the runs that arrived count as shuffled bytes.
  EXPECT_EQ(shuffle_counters.value(counters::kShuffleGroup,
                                   counters::kShuffleBytes),
            static_cast<int64_t>(units[0].run.size() + units[2].run.size()));
}

TEST(ShuffleFetchTest, MultipleFailuresReportLowestMapIndex) {
  // Every failed unit is reported, in canonical map order, each blamed on
  // its own map; the reduce's intake fails the attempt on the first, the
  // lowest index.
  net::Network network;
  network.addHost("reducer");
  MapOutputStore store;
  std::vector<std::string> hosts;
  for (uint32_t m = 0; m < 4; ++m) {
    hosts.push_back("tt" + std::to_string(m));
    serveMapOutputs(network, hosts.back(), store);
    store.put(7, m, {Bytes("run")});
  }
  network.setHostUp("tt1", false);
  network.setHostUp("tt3", false);

  Config conf;
  Counters shuffle_counters;
  const auto units = fetchShuffleRuns(network, "reducer",
                                      reduceAssignment(0, hosts), conf,
                                      shuffle_counters, /*by_host=*/false);
  std::vector<uint32_t> blamed;
  for (const FetchOutcome& unit : units) {
    if (unit.error) blamed.push_back(unit.blamedMap());
  }
  EXPECT_EQ(blamed, (std::vector<uint32_t>{1, 3}));
  EXPECT_EQ(units[0].run, "run");
  EXPECT_EQ(units[2].run, "run");
}

TEST(ShuffleFetchTest, MissingOutputAfterPurgeStillFailsWithShape) {
  // The store throws NotFoundError (purged/restarted tracker); that fault
  // crosses the RPC and comes back as the unit's error, blaming its map.
  net::Network network;
  network.addHost("reducer");
  MapOutputStore store;
  std::vector<std::string> hosts{"tt0"};
  serveMapOutputs(network, hosts[0], store);  // nothing ever put()

  Config conf;
  Counters shuffle_counters;
  const auto units = fetchShuffleRuns(network, "reducer",
                                      reduceAssignment(0, hosts), conf,
                                      shuffle_counters, /*by_host=*/false);
  ASSERT_EQ(units.size(), 1u);
  ASSERT_TRUE(units[0].error.has_value());
  EXPECT_NE(units[0].error->find(missingMapMessage(7, 0)), std::string::npos)
      << *units[0].error;
  EXPECT_EQ(units[0].host, "tt0");
  EXPECT_EQ(units[0].blamedMap(), 0u);
}

TEST(ShuffleFetchTest, FlakyFetchSucceedsAfterRetriesWithoutDuplicates) {
  // A fetch that fails N-1 times and then succeeds must deliver every run
  // exactly once (no duplicated, no lost records) and surface the retry
  // count in SHUFFLE_FETCH_RETRIES.
  net::Network network;
  network.addHost("reducer");
  MapOutputStore store;
  std::vector<std::string> hosts;
  for (uint32_t m = 0; m < 3; ++m) {
    hosts.push_back("tt" + std::to_string(m));
    store.put(7, m, {Bytes("run-from-map" + std::to_string(m))});
  }
  serveMapOutputs(network, hosts[0], store);
  serveMapOutputs(network, hosts[2], store);
  // tt1 rejects the first two fetches, then recovers.
  std::atomic<int> tt1_calls{0};
  network.addHost(hosts[1]);
  network.bind(hosts[1], kTaskTrackerPort,
               [&](const net::RpcRequest& req) -> BufferView {
                 if (tt1_calls.fetch_add(1) < 2) {
                   throw NetworkError("connection reset by peer");
                 }
                 return serveFrom(store, req);
               });

  Config conf;
  conf.setInt("mapred.shuffle.fetch.retries", 3);
  conf.setInt("mapred.shuffle.fetch.backoff.ms", 2);
  Counters shuffle_counters;
  const auto units = fetchShuffleRuns(network, "reducer",
                                      reduceAssignment(0, hosts), conf,
                                      shuffle_counters, /*by_host=*/false);
  ASSERT_EQ(units.size(), 3u);
  int64_t expected_bytes = 0;
  for (uint32_t m = 0; m < 3; ++m) {
    EXPECT_FALSE(units[m].error.has_value()) << *units[m].error;
    EXPECT_EQ(units[m].run, "run-from-map" + std::to_string(m));
    expected_bytes += static_cast<int64_t>(units[m].run.size());
  }
  EXPECT_EQ(tt1_calls.load(), 3);  // 2 failures + the success
  EXPECT_EQ(shuffle_counters.value(counters::kShuffleGroup,
                                   counters::kShuffleFetchRetries),
            2);
  // Bytes metered once per run — retries must not double-count.
  EXPECT_EQ(shuffle_counters.value(counters::kShuffleGroup,
                                   counters::kShuffleBytes),
            expected_bytes);
  // The fetch phase paid the (full-jitter) backoff sleeps; with jitter the
  // exact delay is seeded-random in [0, cap], so only nonnegativity holds.
  EXPECT_GE(shuffle_counters.value(counters::kShuffleGroup,
                                   counters::kShuffleFetchMillis),
            0);
}

TEST(ShuffleFetchTest, RetriesExhaustedKeepFetchFailureShape) {
  // Retries exhausted: the unit keeps the last attempt's cause and blames
  // its map, exactly as a single failed attempt would.
  net::Network network;
  network.addHost("reducer");
  MapOutputStore store;
  std::vector<std::string> hosts{"tt0"};
  std::atomic<int> calls{0};
  network.addHost(hosts[0]);
  network.bind(hosts[0], kTaskTrackerPort,
               [&](const net::RpcRequest&) -> BufferView {
                 ++calls;
                 throw NetworkError("connection reset by peer");
               });

  Config conf;
  conf.setInt("mapred.shuffle.fetch.retries", 4);
  conf.setInt("mapred.shuffle.fetch.backoff.ms", 1);
  Counters shuffle_counters;
  const auto units = fetchShuffleRuns(network, "reducer",
                                      reduceAssignment(0, hosts), conf,
                                      shuffle_counters, /*by_host=*/false);
  ASSERT_EQ(units.size(), 1u);
  ASSERT_TRUE(units[0].error.has_value());
  EXPECT_NE(units[0].error->find("connection reset by peer"),
            std::string::npos)
      << *units[0].error;
  EXPECT_EQ(units[0].host, "tt0");
  EXPECT_EQ(units[0].blamedMap(), 0u);
  EXPECT_EQ(calls.load(), 4);  // every configured attempt was used
  EXPECT_EQ(shuffle_counters.value(counters::kShuffleGroup,
                                   counters::kShuffleFetchRetries),
            3);
}

TEST(ShuffleFetchTest, CleanFetchReportsZeroRetries) {
  net::Network network;
  network.addHost("reducer");
  MapOutputStore store;
  std::vector<std::string> hosts{"tt0"};
  serveMapOutputs(network, hosts[0], store);
  store.put(7, 0, {Bytes("run")});

  Config conf;
  Counters shuffle_counters;
  fetchShuffleRuns(network, "reducer", reduceAssignment(0, hosts), conf,
                   shuffle_counters, /*by_host=*/false);
  EXPECT_EQ(shuffle_counters.value(counters::kShuffleGroup,
                                   counters::kShuffleFetchRetries),
            0);
}

TEST(ShuffleFetchTest, InnodeModeGroupsFetchesByHost) {
  // Maps 0,2 live on ttA and 1,3 on ttB: in-node mode must issue ONE
  // getMapOutput per host naming that host's maps, not one call per map.
  net::Network network;
  network.addHost("reducer");
  std::vector<std::string> requests;
  std::mutex requests_mutex;
  for (const std::string host : {"ttA", "ttB"}) {
    network.addHost(host);
    network.bind(host, kTaskTrackerPort,
                 [&requests, &requests_mutex, host](
                     const net::RpcRequest& req) -> BufferView {
                   EXPECT_EQ(req.method, "getMapOutput");
                   const auto [job, partition, maps] =
                       unpack<uint32_t, uint32_t, std::vector<uint32_t>>(
                           req.body);
                   std::string label = host;
                   for (const uint32_t m : maps) {
                     label += "," + std::to_string(m);
                   }
                   std::lock_guard<std::mutex> lock(requests_mutex);
                   requests.push_back(label);
                   return Bytes("run-" + host);
                 });
  }

  TaskAssignment assignment;
  assignment.kind = AssignmentKind::kReduce;
  assignment.job = 7;
  assignment.task_index = 0;
  assignment.map_outputs = {{0, "ttA"}, {1, "ttB"}, {2, "ttA"}, {3, "ttB"}};

  Config conf;
  Counters shuffle_counters;
  const auto units = fetchShuffleRuns(network, "reducer", assignment, conf,
                                      shuffle_counters, /*by_host=*/true);
  ASSERT_EQ(units.size(), 2u);  // one combined run per host, not per map
  EXPECT_EQ(units[0].host, "ttA");
  EXPECT_EQ(units[0].maps, (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(units[0].run, "run-ttA");
  EXPECT_EQ(units[1].host, "ttB");
  EXPECT_EQ(units[1].maps, (std::vector<uint32_t>{1, 3}));
  EXPECT_EQ(units[1].run, "run-ttB");
  std::sort(requests.begin(), requests.end());
  EXPECT_EQ(requests,
            (std::vector<std::string>{"ttA,0,2", "ttB,1,3"}));
  EXPECT_EQ(shuffle_counters.value(counters::kShuffleGroup,
                                   counters::kShuffleBytes),
            static_cast<int64_t>(units[0].run.size() + units[1].run.size()));
}

TEST(ShuffleFetchTest, InnodeFailureAttributesTheServerNamedMissingMap) {
  // A grouped fetch can fail because ONE member map is absent while the
  // rest are fine. The server names it ("missing map=3"); the unit must
  // blame that index — not the group's lowest — so the JobTracker
  // re-executes the right map. A server that names no member falls back
  // to the group's lowest map.
  net::Network network;
  network.addHost("reducer");
  for (const std::string host : {"ttA", "ttB"}) {
    network.addHost(host);
    network.bind(host, kTaskTrackerPort,
                 [host](const net::RpcRequest&) -> BufferView {
                   throw NotFoundError(host == "ttA" ? missingMapMessage(7, 3)
                                                     : missingMapMessage(7, 9));
                 });
  }

  TaskAssignment assignment;
  assignment.kind = AssignmentKind::kReduce;
  assignment.job = 7;
  assignment.task_index = 0;
  assignment.map_outputs = {{1, "ttA"}, {3, "ttA"}, {4, "ttB"}, {2, "ttB"}};

  Config conf;
  conf.setInt("mapred.shuffle.fetch.retries", 1);
  Counters shuffle_counters;
  const auto units = fetchShuffleRuns(network, "reducer", assignment, conf,
                                      shuffle_counters, /*by_host=*/true);
  ASSERT_EQ(units.size(), 2u);
  ASSERT_TRUE(units[0].error.has_value());
  EXPECT_EQ(units[0].host, "ttA");
  EXPECT_EQ(units[0].blamedMap(), 3u);
  ASSERT_TRUE(units[1].error.has_value());
  EXPECT_EQ(units[1].host, "ttB");
  EXPECT_EQ(units[1].blamedMap(), 2u);  // map 9 is not a member
}

TEST(ShuffleFetchTest, SingleParallelCopyDegradesToSequential) {
  net::Network network;
  network.addHost("reducer");
  MapOutputStore store;
  std::vector<std::string> hosts;
  for (uint32_t m = 0; m < 3; ++m) {
    hosts.push_back("tt" + std::to_string(m));
    serveMapOutputs(network, hosts.back(), store);
    store.put(7, m, {Bytes("run" + std::to_string(m))});
  }

  Config conf;
  conf.setInt("mapred.reduce.parallel.copies", 1);
  Counters shuffle_counters;
  const auto units = fetchShuffleRuns(network, "reducer",
                                      reduceAssignment(0, hosts), conf,
                                      shuffle_counters, /*by_host=*/false);
  ASSERT_EQ(units.size(), 3u);
  for (uint32_t m = 0; m < 3; ++m) {
    EXPECT_EQ(units[m].run, "run" + std::to_string(m));
  }
}

TEST(ShuffleFetchTest, BusyPoolDoesNotStallAFetch) {
  // Fetches share the I/O helper pool with DFS reads. A read at the widest
  // width occupies every helper the pool can hold, each parked in a 1 s
  // delay on its block. The fetch's helpers can only queue behind them, so
  // the reduce's own thread fetches every unit itself — and must return
  // long before the delay frees the pool.
  constexpr int kWidest = 64;
  constexpr auto kDelay = std::chrono::milliseconds(1000);
  Config dfs_conf = testutil::aggressiveTimers();
  dfs_conf.setInt("dfs.replication", 2);
  dfs_conf.setInt("dfs.blocksize", 1024);
  hdfs::MiniDfsCluster dfs({.num_datanodes = 3, .conf = dfs_conf});
  const Bytes payload(kWidest * 1024, 'x');  // 64 blocks
  dfs.client().writeFile("/wide", payload);

  auto plan = std::make_shared<net::FaultPlan>(1);
  const size_t slow_rule = plan->addRule(
      {.match = {.method = "readBlock", .from = "slow"},
       .action = net::FaultAction::kDelay,
       .delay_micros =
           std::chrono::duration_cast<std::chrono::microseconds>(kDelay)
               .count()});
  dfs.network()->setFaultPlan(plan);

  Config slow_conf = dfs_conf;
  slow_conf.setInt("dfs.client.parallel.reads", kWidest);
  hdfs::DfsClient slow(slow_conf, dfs.network(), "slow", "namenode");
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

  net::Network network;
  network.addHost("reducer");
  MapOutputStore store;
  std::vector<std::string> hosts;
  for (uint32_t m = 0; m < 6; ++m) {
    hosts.push_back("tt" + std::to_string(m));
    serveMapOutputs(network, hosts.back(), store);
    store.put(7, m, {Bytes("run-from-map" + std::to_string(m))});
  }
  Config conf;
  conf.setInt("mapred.reduce.parallel.copies", 5);
  Counters shuffle_counters;
  const auto started = std::chrono::steady_clock::now();
  const auto units = fetchShuffleRuns(network, "reducer",
                                      reduceAssignment(0, hosts), conf,
                                      shuffle_counters, /*by_host=*/false);
  const auto took = std::chrono::steady_clock::now() - started;
  EXPECT_LT(took, kDelay / 2) << "the fetch waited for the busy pool's helpers";
  ASSERT_EQ(units.size(), 6u);
  for (uint32_t m = 0; m < 6; ++m) {
    EXPECT_FALSE(units[m].error.has_value()) << *units[m].error;
    EXPECT_EQ(units[m].run, "run-from-map" + std::to_string(m));
  }
  slow_reader.join();
  EXPECT_EQ(slow_bytes, payload);
}

TEST(ShuffleFetchTest, FetchFailureTextRoundTrips) {
  // The cause is a server's own error naming another map: the blamed map
  // is the one the tag right after the host gives, not the cause's.
  const std::string cause = missingMapMessage(7, 9);
  const std::string text = formatFetchFailure({"tt1", 4}, cause);
  EXPECT_EQ(text, "fetch-failure host=tt1 map=4: map output 7 missing map=9");
  for (const std::string& error : {text, "IoError: " + text}) {
    const std::optional<FetchFailure> failure = parseFetchFailure(error);
    ASSERT_TRUE(failure.has_value()) << error;
    EXPECT_EQ(failure->host, "tt1");
    EXPECT_EQ(failure->map_index, 4u);
  }
  EXPECT_EQ(parseMissingMap(cause), 9u);
  EXPECT_FALSE(parseFetchFailure(cause).has_value());
  EXPECT_FALSE(parseFetchFailure("fetch-failure host=tt1 map=: gone"));
  EXPECT_FALSE(parseMissingMap("map output 7/9 partition 0").has_value());
}

}  // namespace
}  // namespace mh::mr
