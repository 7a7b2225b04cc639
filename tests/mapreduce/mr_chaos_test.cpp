#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mh/apps/airline.h"
#include "mh/common/rng.h"
#include "mh/common/trace_analysis.h"
#include "mh/data/airline.h"
#include "mh/mr/mini_mr_cluster.h"
#include "mh/net/fault_plan.h"
#include "mr_test_jobs.h"
#include "testutil/aggressive_timers.h"

/// \file mr_chaos_test.cpp
/// Seed-parameterized chaos/property suite for MapReduce over HDFS — the
/// paper's core lesson that Hadoop *survives* failure, executed. Each seed
/// runs a real job twice on a 4-node cluster: once fault-free for the
/// reference bytes, once under a seeded FaultPlan (dropped heartbeats,
/// failed shuffle fetches, erroring DataNode reads, lost heartbeat
/// replies) plus a driver that kills/restarts nodes and partitions hosts.
/// The chaotic run must produce byte-identical output, identical record
/// counters, and must actually have injected faults and failed attempts.

namespace mh::mr {
namespace {

using namespace testjobs;

std::string makeCorpus(int lines, uint64_t seed) {
  static const char* kWords[] = {"data",  "local", "block", "shuffle",
                                 "merge", "sort",  "map",   "reduce"};
  Rng rng(seed);
  std::string corpus;
  for (int i = 0; i < lines; ++i) {
    const auto words = 1 + rng.uniform(8);
    for (uint64_t w = 0; w < words; ++w) {
      corpus += kWords[rng.uniform(8)];
      corpus.push_back(w + 1 == words ? '\n' : ' ');
    }
  }
  return corpus;
}

Config chaosConf(uint64_t seed) {
  Config conf = testutil::aggressiveTimers();
  conf.setInt("dfs.replication", 2);
  conf.setInt("dfs.blocksize", 4096);
  // Generous attempt budget: the point is survival, not fail-fast.
  conf.setInt("mapred.max.attempts", 8);
  // Rescue assignments lost to dropped heartbeat replies quickly.
  conf.setInt("mapred.task.timeout.ms", 2500);
  // Two serial fetch attempts per fetch unit: together with the scripted
  // getMapOutput fault budget below (every shuffle fetch, per map or, with
  // in-node combining on, per host) this guarantees at least one
  // fetch-failure -> map re-execution path per chaos run.
  conf.setInt("mapred.shuffle.fetch.retries", 2);
  conf.setInt("mapred.shuffle.fetch.backoff.ms", 5);
  conf.setInt("mapred.reduce.parallel.copies", 1);
  // Pipelined shuffle on (the production default): reduces launch after the
  // first map success, fetch through the completion-event feed, and must
  // survive every invalidation chaos throws at them — byte-identically.
  conf.set("mapred.reduce.slowstart.completed.maps", "0.05");
  conf.setInt("dfs.client.retries", 3);
  conf.setInt("dfs.client.retry.backoff.ms", 5);
  // Two seeds (one per exemplar job) run with blocks stored compressed —
  // re-replication after a killed node ships framed replicas, and a fetch
  // retried through chaos decodes the same bytes.
  if (seed == 4 || seed == 7) conf.set("dfs.block.compression.codec", "mh-lz");
  return conf;
}

/// Seeds 4 and 7 also turn on the map-output seam, so those chaos runs
/// ship compressed segments as stored under node kills, dropped fetches,
/// and re-executed maps.
void applySeamsForSeed(JobSpec& spec, uint64_t seed) {
  if (seed == 4 || seed == 7) {
    spec.conf.set("mapred.map.output.compression.codec", "mh-lz");
  }
}

/// The per-seed job: even seeds run WordCount-with-combiner, odd seeds the
/// airline mean-delay job, so both exemplar jobs get chaos coverage.
JobSpec jobForSeed(uint64_t seed) {
  JobSpec spec;
  if (seed % 2 == 0) {
    spec = wordCountSpec({"/in"}, "/out", /*with_combiner=*/true,
                         /*reducers=*/2);
  } else {
    spec = apps::makeAirlineDelayJob(apps::AirlineVariant::kCombiner, {"/in"},
                                     "/out", /*num_reducers=*/2);
  }
  // Every chaos seed runs with in-node combining on: tracker-level
  // aggregation must survive kills, re-executed maps, and (seeds 4/7) both
  // compression seams with byte-identical output and exact counters.
  spec.conf.setBool("mapred.innode.combine", true);
  applySeamsForSeed(spec, seed);
  return spec;
}

void stageInput(MiniMrCluster& cluster, uint64_t seed) {
  if (seed % 2 == 0) {
    cluster.client().writeFile("/in/corpus.txt", makeCorpus(400, seed));
  } else {
    data::AirlineGenerator gen({.seed = seed, .rows = 800});
    cluster.client().writeFile("/in/airline.csv", gen.generateCsv());
  }
}

/// Raw bytes of each committed part file — the byte-identical contract is
/// on the files themselves, not a parsed view of them.
std::map<std::string, Bytes> readPartBytes(MiniMrCluster& cluster,
                                           const std::string& dir) {
  HdfsFs fs(cluster.client());
  std::map<std::string, Bytes> parts;
  for (const auto& file : fs.listFiles(dir)) {
    const auto slash = file.find_last_of('/');
    const std::string base = file.substr(slash + 1);
    if (base.rfind("part-", 0) != 0) continue;
    parts[base] = fs.readRange(file, 0, fs.fileLength(file));
  }
  return parts;
}

/// Polls the job to a terminal state within `deadline_ms` (wait() alone
/// would hang the whole suite if a chaos scenario wedged the job).
JobResult waitWithDeadline(MiniMrCluster& cluster, JobId id,
                           int64_t deadline_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  while (cluster.jobTracker().status(id).state == JobState::kRunning &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (cluster.jobTracker().status(id).state == JobState::kRunning) {
    // Don't wait(): that would hang the whole suite on a wedged job.
    ADD_FAILURE() << "job wedged past deadline:\n"
                  << cluster.jobTracker().renderJobDetails(id);
    JobResult wedged;
    wedged.state = JobState::kFailed;
    wedged.error = "chaos run exceeded deadline";
    return wedged;
  }
  return cluster.jobTracker().wait(id);
}

class MrChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MrChaosTest, FaultedRunMatchesFaultFreeRunByteForByte) {
  const uint64_t seed = GetParam();

  // ---- Reference: the same job on a healthy cluster. -----------------------
  std::map<std::string, Bytes> expected_parts;
  Counters expected_counters;
  {
    MiniMrCluster cluster({.num_nodes = 4, .conf = chaosConf(seed)});
    stageInput(cluster, seed);
    const auto result = cluster.runJob(jobForSeed(seed));
    ASSERT_TRUE(result.succeeded()) << result.error;
    expected_parts = readPartBytes(cluster, "/out");
    expected_counters = result.counters;
  }
  ASSERT_FALSE(expected_parts.empty());

  // ---- Chaos run. ----------------------------------------------------------
  MiniMrCluster cluster({.num_nodes = 4, .conf = chaosConf(seed)});
  stageInput(cluster, seed);
  cluster.tracer().setEnabled(true);

  auto plan = std::make_shared<net::FaultPlan>(seed);
  // Scripted: the first four shuffle fetches die. With two serial attempts
  // per fetch this forces at least one fetch-failure, so the JobTracker's
  // map re-execution path runs on every seed.
  plan->addRule({.match = {.method = "getMapOutput"},
                 .action = net::FaultAction::kError,
                 .probability = 1.0,
                 .max_fires = 4});
  // Probabilistic chaos, each with a budget so the noise eventually dries
  // up and the job is guaranteed to finish.
  plan->addRule({.match = {.method = "heartbeat"},
                 .action = net::FaultAction::kDrop,
                 .probability = 0.15,
                 .max_fires = 25});
  // Lost heartbeat *replies*: the tracker's reports land but it never
  // hears back — assignments riding the reply vanish and must be rescued
  // by the task timeout.
  plan->addRule({.match = {.method = "heartbeat", .to = "jobtracker"},
                 .action = net::FaultAction::kDropResponse,
                 .probability = 0.05,
                 .max_fires = 4});
  plan->addRule({.match = {.method = "readBlock"},
                 .action = net::FaultAction::kError,
                 .probability = 0.10,
                 .max_fires = 10});
  plan->addRule({.match = {.tag = "shuffle"},
                 .action = net::FaultAction::kDelay,
                 .probability = 0.2,
                 .delay_micros = 2000,
                 .max_fires = 30});
  cluster.network()->setFaultPlan(plan);

  const JobId id = cluster.jobTracker().submit(jobForSeed(seed));

  // Driver: kill/restart whole nodes and partition workers off the
  // masters, at most one disruption at a time so the cluster always keeps
  // a quorum of replicas.
  Rng driver(seed ^ 0xC4A05EEDull);
  const auto hosts = cluster.trackerHosts();
  std::string downed;
  bool partitioned = false;
  for (int step = 0; step < 60; ++step) {
    if (cluster.jobTracker().status(id).state != JobState::kRunning) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    const auto act = driver.uniform(10);
    if (partitioned) {
      // Partitions stay short: heal on the next tick.
      plan->heal();
      partitioned = false;
    } else if (act < 2 && downed.empty() && !partitioned) {
      downed = hosts[driver.uniform(hosts.size())];
      cluster.killNode(downed);
    } else if (act < 5 && !downed.empty()) {
      cluster.restartNode(downed);
      downed.clear();
    } else if (act == 5 && downed.empty()) {
      plan->partition({hosts[driver.uniform(hosts.size())]},
                      {"jobtracker", "namenode"});
      partitioned = true;
    }
  }
  // End of chaos: heal everything and let the job converge.
  plan->heal();
  if (!downed.empty()) cluster.restartNode(downed);

  const auto result = waitWithDeadline(cluster, id, 120'000);
  ASSERT_TRUE(result.succeeded())
      << result.error << "\n"
      << result.historyReport();

  // Faults actually fired, and the metrics registry agrees with the plan.
  EXPECT_GT(plan->injectedFaults(), 0u);
  EXPECT_EQ(cluster.metrics().child("network").counterValue("faults.injected"),
            static_cast<int64_t>(plan->injectedFaults()));
  // The scripted shuffle faults guarantee failed attempts on every seed.
  EXPECT_GE(cluster.metrics().child("jobtracker").counterValue(
                "attempts.failed"),
            1);

  // Byte-identical output vs the fault-free run.
  EXPECT_EQ(readPartBytes(cluster, "/out"), expected_parts);

  // Counter sanity: record counts merge only from each task's first
  // successful attempt, so retries and re-executions must not lose or
  // double-count a single record.
  using namespace counters;
  for (const char* name :
       {kMapInputRecords, kMapOutputRecords, kReduceOutputRecords}) {
    EXPECT_EQ(result.counters.value(kTaskGroup, name),
              expected_counters.value(kTaskGroup, name))
        << name;
  }
}

TEST_P(MrChaosTest, SameSeedReplaysSameFaultSequence) {
  // The determinism contract behind seed replay: two plans built from the
  // same seed, shown the same call sequence, make identical decisions and
  // end with identical injected-fault counts. (The live cluster's call
  // *sequence* is thread-timing dependent; the plan's determinism is what
  // makes a single-threaded replay of a failing seed possible.)
  const uint64_t seed = GetParam();
  const auto build = [&] {
    auto plan = std::make_unique<net::FaultPlan>(seed);
    plan->addRule({.match = {.method = "heartbeat"},
                   .action = net::FaultAction::kDrop,
                   .probability = 0.15,
                   .max_fires = 25});
    plan->addRule({.match = {.method = "getMapOutput"},
                   .action = net::FaultAction::kError,
                   .probability = 0.3});
    plan->addRule({.match = {.method = "readBlock"},
                   .action = net::FaultAction::kError,
                   .probability = 0.10,
                   .max_fires = 10});
    return plan;
  };
  const auto script = [&](net::FaultPlan& plan) {
    // A synthetic but seed-dependent call sequence.
    Rng calls(seed + 1);
    const char* methods[] = {"heartbeat", "getMapOutput", "readBlock",
                             "getBlockLocations"};
    std::vector<int> decisions;
    for (int i = 0; i < 400; ++i) {
      const std::string from = "node0" + std::to_string(calls.uniform(4) + 1);
      const auto d =
          plan.decide(from, "jobtracker", methods[calls.uniform(4)], "rpc");
      decisions.push_back(d ? static_cast<int>(d->action) + 1 : 0);
    }
    return decisions;
  };
  const auto a = build(), b = build();
  EXPECT_EQ(script(*a), script(*b));
  EXPECT_EQ(a->injectedFaults(), b->injectedFaults());
  EXPECT_GT(a->injectedFaults(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MrChaosTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

class TracedMrChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TracedMrChaosTest, FullObservabilityIsStrictlyObservational) {
  // Satellite: the same chaos contract with every observability signal on
  // — tracing AND the background metrics snapshotter. Byte-identical
  // output, exact record counters, and the trace must still be one
  // connected tree despite node kills and injected faults.
  const uint64_t seed = GetParam();

  std::map<std::string, Bytes> expected_parts;
  Counters expected_counters;
  {
    MiniMrCluster cluster({.num_nodes = 4, .conf = chaosConf(seed)});
    stageInput(cluster, seed);
    const auto result = cluster.runJob(jobForSeed(seed));
    ASSERT_TRUE(result.succeeded()) << result.error;
    expected_parts = readPartBytes(cluster, "/out");
    expected_counters = result.counters;
  }
  ASSERT_FALSE(expected_parts.empty());

  MiniMrCluster cluster({.num_nodes = 4, .conf = chaosConf(seed)});
  stageInput(cluster, seed);
  cluster.tracer().setEnabled(true);
  MetricsSnapshotter& snapshotter =
      cluster.network()->startSnapshotter({.interval_ms = 5});
  ASSERT_TRUE(snapshotter.running());

  auto plan = std::make_shared<net::FaultPlan>(seed);
  plan->addRule({.match = {.method = "getMapOutput"},
                 .action = net::FaultAction::kError,
                 .probability = 1.0,
                 .max_fires = 4});
  plan->addRule({.match = {.method = "heartbeat"},
                 .action = net::FaultAction::kDrop,
                 .probability = 0.15,
                 .max_fires = 25});
  plan->addRule({.match = {.method = "readBlock"},
                 .action = net::FaultAction::kError,
                 .probability = 0.10,
                 .max_fires = 10});
  cluster.network()->setFaultPlan(plan);

  const JobId id = cluster.jobTracker().submit(jobForSeed(seed));

  // A shorter disruption driver: one kill/restart cycle mid-flight.
  Rng driver(seed ^ 0x0B5E27EDull);
  const auto hosts = cluster.trackerHosts();
  std::string downed;
  for (int step = 0; step < 30; ++step) {
    if (cluster.jobTracker().status(id).state != JobState::kRunning) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    const auto act = driver.uniform(10);
    if (act < 2 && downed.empty()) {
      downed = hosts[driver.uniform(hosts.size())];
      cluster.killNode(downed);
    } else if (act < 5 && !downed.empty()) {
      cluster.restartNode(downed);
      downed.clear();
    }
  }
  if (!downed.empty()) cluster.restartNode(downed);

  const auto result = waitWithDeadline(cluster, id, 120'000);
  ASSERT_TRUE(result.succeeded()) << result.error << "\n"
                                  << result.historyReport();
  EXPECT_GT(plan->injectedFaults(), 0u);

  // Observation changed nothing: identical bytes, identical records.
  EXPECT_EQ(readPartBytes(cluster, "/out"), expected_parts);
  using namespace counters;
  for (const char* name :
       {kMapInputRecords, kMapOutputRecords, kReduceOutputRecords}) {
    EXPECT_EQ(result.counters.value(kTaskGroup, name),
              expected_counters.value(kTaskGroup, name))
        << name;
  }

  // The chaos run's trace is still one connected tree: every span's
  // parent exists and the only root is the JOB span.
  ASSERT_NE(result.trace_id, 0u);
  EXPECT_EQ(cluster.tracer().droppedEvents(), 0u);
  const TraceTreeStats stats =
      analyzeTraceTree(cluster.tracer().snapshot(), result.trace_id);
  EXPECT_EQ(stats.missing_parents, 0u);
  EXPECT_EQ(stats.root_span_ids.size(), 1u);
  EXPECT_TRUE(stats.connected());

  // The snapshotter sampled live daemons throughout (including across the
  // kill/restart) and its time-series is exportable.
  EXPECT_GT(snapshotter.size(), 1u);
  const auto snaps = snapshotter.snapshots();
  ASSERT_FALSE(snaps.empty());
  EXPECT_FALSE(snaps.back().values.empty());
  EXPECT_EQ(snapshotter.exportJsonl().find("{\"type\":\"header\""), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TracedMrChaosTest, ::testing::Values(2),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

/// Holds the first map attempt to start inside its first record until the
/// gate opens, so a job cannot leave its map phase before the test has
/// acted, however fast the scheduler runs the other maps.
struct MapGate {
  std::atomic<bool> taken{false};
  std::atomic<bool> open{false};
};

class GatedMapper final : public Mapper {
 public:
  GatedMapper(std::unique_ptr<Mapper> inner, std::shared_ptr<MapGate> gate)
      : inner_(std::move(inner)), gate_(std::move(gate)) {}
  void setup(TaskContext& ctx) override { inner_->setup(ctx); }
  void map(std::string_view key, std::string_view value,
           TaskContext& ctx) override {
    bool expected = false;
    if (first_record_ &&
        gate_->taken.compare_exchange_strong(expected, true)) {
      while (!gate_->open.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    first_record_ = false;
    inner_->map(key, value, ctx);
  }
  void cleanup(TaskContext& ctx) override { inner_->cleanup(ctx); }

 private:
  std::unique_ptr<Mapper> inner_;
  std::shared_ptr<MapGate> gate_;
  bool first_record_ = true;
};

// The NameNode is kill -9'd mid-job and restarted from its edit log.
// Every HDFS call a task makes while the master is down fails that
// attempt; the JobTracker must retry through the outage and the finished
// job must be byte-identical to a fault-free run — the MapReduce face of
// the restart-durability contract.
class NameNodeRestartMrChaosTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  NameNodeRestartMrChaosTest() {
    name_dir_ = std::filesystem::temp_directory_path() /
                ("mh_mr_nn_chaos_" + std::to_string(::getpid()) + "_s" +
                 std::to_string(GetParam()));
    std::filesystem::remove_all(name_dir_);
  }
  ~NameNodeRestartMrChaosTest() override {
    std::filesystem::remove_all(name_dir_);
  }
  std::filesystem::path name_dir_;
};

TEST_P(NameNodeRestartMrChaosTest, JobFinishesByteIdenticalAcrossNnCrash) {
  const uint64_t seed = GetParam();
  // A corpus several times the usual chaos size, so the job reliably
  // outlives the scheduled NameNode outages.
  const std::string corpus = makeCorpus(3000, seed);

  // ---- Reference: same job, healthy cluster, no journaling. ----------------
  std::map<std::string, Bytes> expected_parts;
  Counters expected_counters;
  {
    MiniMrCluster cluster({.num_nodes = 4, .conf = chaosConf(seed)});
    cluster.client().writeFile("/in/corpus.txt", corpus);
    const auto result = cluster.runJob(jobForSeed(seed));
    ASSERT_TRUE(result.succeeded()) << result.error;
    expected_parts = readPartBytes(cluster, "/out");
    expected_counters = result.counters;
  }
  ASSERT_FALSE(expected_parts.empty());

  // ---- Chaos run: journaling NameNode, crash-restarted mid-job. ------------
  Config conf = chaosConf(seed);
  conf.set("dfs.namenode.name.dir", name_dir_.string());
  conf.setInt("dfs.namenode.checkpoint.txns", 50);
  // Attempts burned against the dead/safe-mode NameNode are expected; the
  // point is survival, not fail-fast.
  conf.setInt("mapred.max.attempts", 20);
  MiniMrCluster cluster({.num_nodes = 4, .conf = conf});
  cluster.client().writeFile("/in/corpus.txt", corpus);
  // Opened by the first crash, or on any early exit so teardown can join
  // the held attempt.
  const auto gate = std::make_shared<MapGate>();
  struct GateOpener {
    std::shared_ptr<MapGate> gate;
    ~GateOpener() { gate->open = true; }
  } opener{gate};
  JobSpec spec = jobForSeed(seed);
  spec.mapper = [inner = spec.mapper, gate] {
    return std::make_unique<GatedMapper>(inner(), gate);
  };
  const JobId id = cluster.jobTracker().submit(std::move(spec));

  // Kill the master twice with a short outage each time. The first crash
  // waits for progress, not the clock: once a map has completed while the
  // gated map keeps the map phase open (an event-driven scheduler can
  // finish the whole job inside any fixed sleep). The second gives the
  // restarted master a while to serve the job first.
  Rng driver(seed ^ 0x9A3E10D5ull);
  int outages = 0;
  for (int outage = 0; outage < 2; ++outage) {
    if (outage == 0) {
      JobStatus status = cluster.jobTracker().status(id);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (status.state == JobState::kRunning &&
             status.maps_completed == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        status = cluster.jobTracker().status(id);
      }
      if (status.state != JobState::kRunning ||
          status.maps_completed == 0 ||
          status.maps_completed >= status.maps_total) {
        break;
      }
    } else {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(40 + driver.uniform(80)));
      if (cluster.jobTracker().status(id).state != JobState::kRunning) break;
    }
    cluster.dfs().crashNameNode();
    ++outages;
    gate->open = true;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(60 + driver.uniform(120)));
    cluster.dfs().restartNameNode();
    ASSERT_TRUE(cluster.dfs().waitOutOfSafeMode(20'000));
  }
  EXPECT_GE(outages, 1) << "job finished before the first outage; the "
                           "corpus is too small to test anything";

  const auto result = waitWithDeadline(cluster, id, 120'000);
  ASSERT_TRUE(result.succeeded()) << result.error << "\n"
                                  << result.historyReport();

  // Byte-identical committed output and exact record counters: the NN
  // outages cost attempts, never records.
  EXPECT_EQ(readPartBytes(cluster, "/out"), expected_parts);
  using namespace counters;
  for (const char* name :
       {kMapInputRecords, kMapOutputRecords, kReduceOutputRecords}) {
    EXPECT_EQ(result.counters.value(kTaskGroup, name),
              expected_counters.value(kTaskGroup, name))
        << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NameNodeRestartMrChaosTest,
                         ::testing::Values(2),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace mh::mr
