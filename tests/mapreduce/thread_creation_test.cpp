// Repeated jobs on one cluster start no thread after the first: every
// thread a job uses already exists, as a daemon loop, a task slot or an
// I/O helper of the process-wide pool. This file defines pthread_create to
// count every thread the process creates, however briefly it lives (a
// "Threads:" reading taken after a job returns cannot see threads the job
// started and joined), so it builds as its own test binary.

#include <dlfcn.h>
#include <pthread.h>

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "mh/apps/wordcount.h"
#include "mh/data/text_corpus.h"
#include "mh/mr/mini_mr_cluster.h"
#include "testutil/process_threads.h"

namespace {

std::atomic<uint64_t> g_threads_created{0};

}  // namespace

extern "C" int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                              void* (*start)(void*), void* arg) noexcept {
  using Create = int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*),
                         void*);
  static const auto real =
      reinterpret_cast<Create>(dlsym(RTLD_NEXT, "pthread_create"));
  g_threads_created.fetch_add(1, std::memory_order_relaxed);
  return real(thread, attr, start, arg);
}

namespace mh::mr {
namespace {

TEST(ThreadCreationTest, CountsEveryCreatedThread) {
  const uint64_t before = g_threads_created.load();
  std::thread([] {}).join();
  EXPECT_EQ(g_threads_created.load(), before + 1);
}

TEST(ThreadCreationTest, RepeatedClassroomJobsCreateNoThreadsAfterTheFirst) {
  // The classroom lab's shape: WordCount with its combiner and 3 reducers
  // over 64 KiB blocks on the default 3-node cluster (16 maps here), each
  // job's part files read back and cleared, as a student does.
  constexpr uint32_t kReducers = 3;
  MiniMrCluster cluster;
  auto client = cluster.client();
  client.writeFile("/in/corpus.txt",
                   data::TextCorpusGenerator({.seed = 31,
                                              .vocabulary_size = 5000,
                                              .target_bytes = 1 << 20})
                       .generate());
  const auto run = [&](int i) {
    const std::string out = "/out" + std::to_string(i);
    const JobResult result = cluster.runJob(
        apps::makeWordCountJob({"/in"}, out, /*with_combiner=*/true,
                               kReducers));
    ASSERT_TRUE(result.succeeded()) << "job " << i << ": " << result.error;
    for (const auto& part : client.listStatus(out)) {
      EXPECT_FALSE(client.readFile(part.path).empty()) << part.path;
    }
    client.remove(out, /*recursive=*/true);
  };

  run(0);
  const uint64_t created = g_threads_created.load();
  const int live = testutil::processThreads();
  for (int i = 1; i <= 5; ++i) run(i);
  EXPECT_EQ(g_threads_created.load() - created, 0u)
      << "threads created by jobs after the first";
  EXPECT_EQ(testutil::processThreads(), live);
}

}  // namespace
}  // namespace mh::mr
