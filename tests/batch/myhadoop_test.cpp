#include "mh/batch/myhadoop.h"

#include <gtest/gtest.h>

#include "mh/apps/wordcount.h"
#include "mh/batch/scheduler.h"
#include "mh/common/error.h"
#include "testutil/aggressive_timers.h"

namespace mh::batch {
namespace {

Config fastConf() {
  Config conf = testutil::aggressiveTimers();
  conf.setInt("dfs.replication", 2);
  conf.setInt("dfs.blocksize", 512);
  return conf;
}

std::vector<std::string> nodes(std::initializer_list<const char*> names) {
  return {names.begin(), names.end()};
}

TEST(MyHadoopTest, SessionRunsAJobEndToEnd) {
  auto network = std::make_shared<net::Network>();
  MyHadoopSession session(fastConf(), network,
                          nodes({"node01", "node02", "node03"}), "alice");
  session.start();
  ASSERT_TRUE(session.running());

  session.stageIn("/in/corpus.txt", "hadoop on demand hadoop on hpc\n");
  const auto result =
      session.runJob(apps::makeWordCountJob({"/in"}, "/out"));
  ASSERT_TRUE(result.succeeded()) << result.error;
  const Bytes out = session.stageOut("/out/part-00000");
  EXPECT_NE(out.find("hadoop\t2"), std::string::npos);
  session.stop();
}

TEST(MyHadoopTest, TwoSessionsOnDisjointNodesCoexist) {
  auto network = std::make_shared<net::Network>();
  MyHadoopSession alice(fastConf(), network, nodes({"node01", "node02"}),
                        "alice");
  MyHadoopSession bob(fastConf(), network, nodes({"node03", "node04"}),
                      "bob");
  alice.start();
  bob.start();  // different nodes, same ports: no conflict
  alice.stageIn("/data", "a b a\n");
  bob.stageIn("/data", "x\n");
  EXPECT_EQ(alice.stageOut("/data"), "a b a\n");
  EXPECT_EQ(bob.stageOut("/data"), "x\n");  // namespaces are private
  alice.stop();
  bob.stop();
}

TEST(MyHadoopTest, GhostDaemonsBlockTheNextSession) {
  // The §II-B story: a student exits without stopping Hadoop; the next
  // student allocated the same nodes cannot boot.
  auto network = std::make_shared<net::Network>();
  {
    MyHadoopSession careless(fastConf(), network,
                             nodes({"node01", "node02"}), "careless");
    careless.start();
    careless.abandon();
  }
  MyHadoopSession next(fastConf(), network, nodes({"node01", "node02"}),
                       "next");
  EXPECT_THROW(next.start(), AlreadyExistsError);

  // The batch epilogue scrubs the nodes; now the session boots.
  network->unbindAll("node01");
  network->unbindAll("node02");
  next.start();
  EXPECT_TRUE(next.running());
  next.stop();
}

TEST(MyHadoopTest, CleanStopReleasesEverything) {
  auto network = std::make_shared<net::Network>();
  {
    MyHadoopSession tidy(fastConf(), network, nodes({"node01"}), "tidy");
    tidy.start();
    tidy.stop();
  }
  MyHadoopSession reuse(fastConf(), network, nodes({"node01"}), "reuse");
  reuse.start();  // no conflicts
  reuse.stop();
}

TEST(MyHadoopTest, FailedStartRollsBack) {
  auto network = std::make_shared<net::Network>();
  // Occupy only the DataNode port of node02: the session boots the head
  // fine, then fails on node02 and must roll everything back.
  network->bind("node02", hdfs::kDataNodePort,
                [](const net::RpcRequest&) { return BufferView(); });
  MyHadoopSession session(fastConf(), network, nodes({"node01", "node02"}),
                          "unlucky");
  EXPECT_THROW(session.start(), AlreadyExistsError);
  EXPECT_FALSE(session.running());
  // Head-node ports were released by the rollback.
  EXPECT_FALSE(network->isBound("node01", hdfs::kNameNodePort));
  EXPECT_FALSE(network->isBound("node01", mr::kJobTrackerPort));
}

TEST(MyHadoopTest, SchedulerDrivenLifecycle) {
  // Full integration: the batch scheduler allocates nodes, the session
  // boots in on_start and abandons on preemption, and the next student
  // hits the ghost ports until the epilogue runs.
  auto network = std::make_shared<net::Network>();
  std::unique_ptr<MyHadoopSession> session;
  std::string boot_error;

  Config batch_conf;
  batch_conf.setDouble("batch.cleanup.delay.secs", 900.0);
  BatchCallbacks callbacks;
  callbacks.on_start = [&](BatchJobId, const std::vector<std::string>& hosts) {
    session = std::make_unique<MyHadoopSession>(fastConf(), network, hosts,
                                                "student");
    try {
      session->start();
    } catch (const AlreadyExistsError& e) {
      boot_error = e.what();
      session.reset();
    }
  };
  callbacks.on_end = [&](BatchJobId, const std::vector<std::string>&,
                         EndReason reason) {
    if (session && reason == EndReason::kPreempted) {
      session->abandon();  // SIGKILL'd by the scheduler: no clean stop
    } else if (session) {
      session->stop();
    }
    session.reset();
  };
  callbacks.on_cleanup = [&](const std::string& node) {
    network->unbindAll(node);
  };
  BatchScheduler scheduler(2, batch_conf, std::move(callbacks));

  // Student job starts, then research preempts it -> ghosts remain.
  scheduler.submit({.user = "student",
                    .nodes = 2,
                    .runtime_secs = 10'000,
                    .priority = 0,
                    .clean_shutdown = false});
  ASSERT_TRUE(session != nullptr);
  scheduler.submit(
      {.user = "research", .nodes = 2, .runtime_secs = 100, .priority = 10});
  EXPECT_EQ(session, nullptr);
  EXPECT_FALSE(network->hosts().empty());
  EXPECT_TRUE(network->isBound("node01", hdfs::kNameNodePort));  // ghost!

  // Research finishes; the next student's boot fails on ghost ports.
  scheduler.advanceTo(150);
  scheduler.submit({.user = "student2", .nodes = 2, .runtime_secs = 50});
  EXPECT_FALSE(boot_error.empty());

  // After the 15-minute epilogue the nodes are clean; a fresh submission
  // boots fine.
  scheduler.advanceTo(150 + 1000);
  boot_error.clear();
  scheduler.submit({.user = "student3", .nodes = 2, .runtime_secs = 50});
  EXPECT_TRUE(boot_error.empty());
  ASSERT_TRUE(session != nullptr);
  scheduler.advanceTo(scheduler.now() + 60);
  EXPECT_EQ(session, nullptr);
}

}  // namespace
}  // namespace mh::batch
