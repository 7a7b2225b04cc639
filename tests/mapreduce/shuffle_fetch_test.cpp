#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>

#include "mh/common/error.h"
#include "mh/common/serde.h"
#include "mh/common/stopwatch.h"
#include "mh/mr/job.h"
#include "mh/mr/map_output_store.h"
#include "mh/mr/task_tracker.h"

namespace mh::mr {
namespace {

/// A map-side host serving one partition run per (map_index) from a real
/// MapOutputStore, as a TaskTracker would.
void serveMapOutputs(net::Network& network, const std::string& host,
                     MapOutputStore& store) {
  network.addHost(host);
  network.bind(host, kTaskTrackerPort,
               [&store](const net::RpcRequest& req) -> BufferView {
                 const auto [job, map_index, partition] =
                     unpack<uint32_t, uint32_t, uint32_t>(req.body);
                 return Buffer::wrap(store.get(job, map_index, partition));
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
  const auto runs = fetchShuffleRuns(network, "reducer",
                                     reduceAssignment(1, hosts), conf,
                                     shuffle_counters);
  ASSERT_EQ(runs.size(), 4u);
  int64_t expected_bytes = 0;
  for (uint32_t m = 0; m < 4; ++m) {
    EXPECT_EQ(runs[m], "p1-from-map" + std::to_string(m));
    expected_bytes += static_cast<int64_t>(runs[m].size());
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
  const auto runs = fetchShuffleRuns(network, "reducer",
                                     reduceAssignment(0, hosts), conf,
                                     shuffle_counters);
  const int64_t elapsed = watch.elapsedMillis();
  ASSERT_EQ(runs.size(), 6u);

  const int64_t sequential_sum = 6 * 2 * 25;
  EXPECT_LT(elapsed, sequential_sum);
  EXPECT_LT(shuffle_counters.value(counters::kShuffleGroup,
                           counters::kShuffleFetchMillis),
            sequential_sum);
}

TEST(ShuffleFetchTest, DownHostProducesFetchFailureShape) {
  // One dead map host among live ones: the error must keep the exact
  // "fetch-failure host=... map=..." shape the JobTracker parses to
  // re-execute the source map, even though the other fetches succeed.
  net::Network network;
  network.addHost("reducer");
  MapOutputStore store;
  std::vector<std::string> hosts;
  for (uint32_t m = 0; m < 3; ++m) {
    hosts.push_back("tt" + std::to_string(m));
    serveMapOutputs(network, hosts.back(), store);
    store.put(7, m, {Bytes("run")});
  }
  network.setHostUp("tt1", false);

  Config conf;
  Counters shuffle_counters;
  try {
    fetchShuffleRuns(network, "reducer", reduceAssignment(0, hosts), conf,
                     shuffle_counters);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("fetch-failure host=tt1 map=1: "),
              std::string::npos)
        << e.what();
  }
}

TEST(ShuffleFetchTest, MultipleFailuresReportLowestMapIndex) {
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
  try {
    fetchShuffleRuns(network, "reducer", reduceAssignment(0, hosts), conf,
                     shuffle_counters);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("fetch-failure host=tt1 map=1"),
              std::string::npos)
        << e.what();
  }
}

TEST(ShuffleFetchTest, MissingOutputAfterPurgeStillFailsWithShape) {
  // The store throws NotFoundError (purged/restarted tracker); that fault
  // crosses the RPC and must come back in the same fetch-failure shape.
  net::Network network;
  network.addHost("reducer");
  MapOutputStore store;
  std::vector<std::string> hosts{"tt0"};
  serveMapOutputs(network, hosts[0], store);  // nothing ever put()

  Config conf;
  Counters shuffle_counters;
  try {
    fetchShuffleRuns(network, "reducer", reduceAssignment(0, hosts), conf,
                     shuffle_counters);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("fetch-failure host=tt0 map=0"),
              std::string::npos)
        << e.what();
  }
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
                 const auto [job, map_index, partition] =
                     unpack<uint32_t, uint32_t, uint32_t>(req.body);
                 return Buffer::wrap(store.get(job, map_index, partition));
               });

  Config conf;
  conf.setInt("mapred.shuffle.fetch.retries", 3);
  conf.setInt("mapred.shuffle.fetch.backoff.ms", 2);
  Counters shuffle_counters;
  const auto runs = fetchShuffleRuns(network, "reducer",
                                     reduceAssignment(0, hosts), conf,
                                     shuffle_counters);
  ASSERT_EQ(runs.size(), 3u);
  int64_t expected_bytes = 0;
  for (uint32_t m = 0; m < 3; ++m) {
    EXPECT_EQ(runs[m], "run-from-map" + std::to_string(m));
    expected_bytes += static_cast<int64_t>(runs[m].size());
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
  // Retries must not change the error contract the JobTracker parses.
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
  try {
    fetchShuffleRuns(network, "reducer", reduceAssignment(0, hosts), conf,
                     shuffle_counters);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("fetch-failure host=tt0 map=0: "),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(calls.load(), 4);  // every configured attempt was used
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
                   shuffle_counters);
  EXPECT_EQ(shuffle_counters.value(counters::kShuffleGroup,
                                   counters::kShuffleFetchRetries),
            0);
}

/// Spec that turns the fetch into in-node mode: a combiner plus
/// `mapred.innode.combine=true`.
JobSpec innodeSpec() {
  JobSpec spec;
  spec.combiner = [] { return nullptr; };  // presence is what matters here
  spec.conf.setBool("mapred.innode.combine", true);
  return spec;
}

TEST(ShuffleFetchTest, InnodeModeGroupsFetchesByHost) {
  // Maps 0,2 live on ttA and 1,3 on ttB: in-node mode must issue ONE
  // getNodeOutput per host naming that host's maps, not one call per map.
  net::Network network;
  network.addHost("reducer");
  std::vector<std::string> requests;
  std::mutex requests_mutex;
  for (const std::string host : {"ttA", "ttB"}) {
    network.addHost(host);
    network.bind(host, kTaskTrackerPort,
                 [&requests, &requests_mutex, host](
                     const net::RpcRequest& req) -> BufferView {
                   EXPECT_EQ(req.method, "getNodeOutput");
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
  const JobSpec spec = innodeSpec();
  const auto runs = fetchShuffleRuns(network, "reducer", assignment, conf,
                                     shuffle_counters, &spec);
  ASSERT_EQ(runs.size(), 2u);  // one combined run per host, not per map
  EXPECT_EQ(runs[0], "run-ttA");
  EXPECT_EQ(runs[1], "run-ttB");
  std::sort(requests.begin(), requests.end());
  EXPECT_EQ(requests,
            (std::vector<std::string>{"ttA,0,2", "ttB,1,3"}));
  EXPECT_EQ(shuffle_counters.value(counters::kShuffleGroup,
                                   counters::kShuffleBytes),
            static_cast<int64_t>(runs[0].size() + runs[1].size()));
}

TEST(ShuffleFetchTest, InnodeFailureAttributesTheServerNamedMissingMap) {
  // A grouped fetch can fail because ONE member map is absent while the
  // rest are fine. The server names it ("missing map=3"); the fetch-failure
  // must lead with that index — not the group's lowest — so the JobTracker
  // re-executes the right map.
  net::Network network;
  network.addHost("reducer");
  network.addHost("ttA");
  network.bind("ttA", kTaskTrackerPort,
               [](const net::RpcRequest&) -> BufferView {
                 throw NotFoundError("node output 7 missing map=3");
               });

  TaskAssignment assignment;
  assignment.kind = AssignmentKind::kReduce;
  assignment.job = 7;
  assignment.task_index = 0;
  assignment.map_outputs = {{1, "ttA"}, {3, "ttA"}};

  Config conf;
  conf.setInt("mapred.shuffle.fetch.retries", 1);
  Counters shuffle_counters;
  const JobSpec spec = innodeSpec();
  try {
    fetchShuffleRuns(network, "reducer", assignment, conf, shuffle_counters,
                     &spec);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("fetch-failure host=ttA map=3: "),
              std::string::npos)
        << e.what();
  }
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
  const auto runs = fetchShuffleRuns(network, "reducer",
                                     reduceAssignment(0, hosts), conf,
                                     shuffle_counters);
  ASSERT_EQ(runs.size(), 3u);
  for (uint32_t m = 0; m < 3; ++m) {
    EXPECT_EQ(runs[m], "run" + std::to_string(m));
  }
}

}  // namespace
}  // namespace mh::mr
