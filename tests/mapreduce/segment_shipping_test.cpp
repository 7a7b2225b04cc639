#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include "mh/common/strings.h"
#include "mh/mr/local_runner.h"
#include "mh/mr/mini_mr_cluster.h"
#include "mr_test_jobs.h"
#include "testutil/aggressive_timers.h"

/// A combiner-less map ships its spill segments unmerged, and the reducer's
/// merge is the only merge. These tests run plain WordCount on the
/// mini-cluster at 2-10 spills per map and at more than 10 (Hadoop's
/// io.sort.factor default) under every subset of the two compression seams
/// (block, map output) and both slowstart extremes, and hold its part files and record counters to the serial
/// LocalJobRunner. They also check that emitted records are views a task
/// may overwrite once emit returns.

namespace mh::mr {
namespace {

namespace stdfs = std::filesystem;
using namespace testjobs;
using namespace counters;

constexpr int kFiles = 3;

/// Three files of ~16k records each, one map apiece: at io.sort.mb=1 a map
/// spills 2-10 times at 25% and more than 10 times at 5%.
std::vector<std::string> makeFiles() {
  std::vector<std::string> files;
  for (int f = 0; f < kFiles; ++f) files.push_back(zipfCorpus(3000, 50 + f));
  return files;
}

struct Seams {
  const char* name;
  const char* block;
  const char* mapout;
};

constexpr Seams kSeams[] = {{"NoSeam", "none", "none"},
                            {"Block", "mh-lz", "none"},
                            {"MapOutput", "none", "mh-lz"},
                            {"AllSeams", "mh-lz", "mh-lz"}};

struct ShipCase {
  bool many;  ///< spill more than 10 times per map
  Seams seams;
  double slowstart;
};

std::string caseName(const ShipCase& c) {
  return std::string(c.many ? "ManySpills_" : "FewSpills_") + c.seams.name +
         (c.slowstart < 1 ? "_Slowstart005" : "_Slowstart1");
}

void PrintTo(const ShipCase& c, std::ostream* os) { *os << caseName(c); }

JobSpec plainWordCount(const ShipCase& c, std::vector<std::string> inputs,
                       std::string output) {
  JobSpec spec = wordCountSpec(std::move(inputs), std::move(output), false, 3);
  spec.conf.setInt("io.sort.mb", 1);
  spec.conf.setDouble("io.sort.spill.percent", c.many ? 0.05 : 0.25);
  spec.conf.set("mapred.map.output.compression.codec", c.seams.mapout);
  spec.conf.setDouble("mapred.reduce.slowstart.completed.maps", c.slowstart);
  return spec;
}

class SegmentShippingTest : public ::testing::TestWithParam<ShipCase> {};

TEST_P(SegmentShippingTest, ClusterMatchesLocalRunner) {
  const ShipCase c = GetParam();
  const auto files = makeFiles();

  // The serial oracle.
  const stdfs::path root = stdfs::temp_directory_path() /
                           ("mh_segments_" + std::to_string(::getpid()) +
                            "_" + caseName(c));
  stdfs::remove_all(root);
  LocalFs local(8ull << 20);
  std::vector<std::string> inputs;
  for (int f = 0; f < kFiles; ++f) {
    inputs.push_back((root / ("in" + std::to_string(f) + ".txt")).string());
    local.writeFile(inputs.back(), files[f]);
  }
  const JobResult serial =
      LocalJobRunner(local).run(plainWordCount(c, inputs, (root / "out").string()));
  ASSERT_TRUE(serial.succeeded()) << serial.error;
  const auto serial_parts = readPartFiles(local, (root / "out").string());
  stdfs::remove_all(root);

  // Blocks larger than any file: one map per file, as in the local run.
  Config conf = testutil::aggressiveTimers();
  conf.setInt("dfs.blocksize", 1 << 20);
  conf.set("dfs.block.compression.codec", c.seams.block);
  MiniMrCluster cluster({.num_nodes = 3, .conf = conf});
  auto client = cluster.client();
  for (int f = 0; f < kFiles; ++f) {
    client.writeFile("/in/part" + std::to_string(f) + ".txt", files[f]);
  }
  const JobResult distributed =
      cluster.runJob(plainWordCount(c, {"/in"}, "/out"));
  ASSERT_TRUE(distributed.succeeded()) << distributed.error;

  HdfsFs fs(client);
  const auto parts = readPartFiles(fs, "/out");
  ASSERT_EQ(parts.size(), 3u);
  ASSERT_EQ(serial_parts.size(), 3u);
  auto serial_part = serial_parts.begin();
  for (const auto& [name, bytes] : parts) {
    EXPECT_EQ(bytes, (serial_part++)->second) << name;
  }

  // Both runs ran the same map code over the same splits, and the reducers
  // merged what the maps shipped (three maps never fill a fold).
  const Counters& got = distributed.counters;
  const Counters& want = serial.counters;
  for (const char* name :
       {kMapInputRecords, kMapOutputRecords, kMapOutputBytes, kMapSpills,
        kSpilledRecords, kSpillRawBytes, kSpillCompressedBytes,
        kMergeSegments, kReduceInputGroups, kReduceInputRecords,
        kReduceOutputRecords}) {
    EXPECT_EQ(got.value(kTaskGroup, name), want.value(kTaskGroup, name))
        << name;
  }
  const int64_t map_out = got.value(kTaskGroup, kMapOutputRecords);
  const int64_t spills = got.value(kTaskGroup, kMapSpills);
  EXPECT_EQ(got.value(kTaskGroup, kReduceInputRecords), map_out);
  if (c.many) {
    EXPECT_GT(spills, kFiles * 10);
  } else {
    EXPECT_GE(spills, 2 * kFiles);
    EXPECT_LE(spills, kFiles * 10);
  }
  // Every record is written once, and the reducers merge every segment:
  // at least one per spill that wrote to the partition.
  EXPECT_EQ(got.value(kTaskGroup, kSpilledRecords), map_out);
  EXPECT_GT(got.value(kTaskGroup, kMergeSegments), kFiles * 3);
}

std::vector<ShipCase> allCases() {
  std::vector<ShipCase> cases;
  for (const bool many : {false, true}) {
    for (const Seams& seams : kSeams) {
      for (const double slowstart : {0.05, 1.0}) {
        cases.push_back({many, seams, slowstart});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, SegmentShippingTest, ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<ShipCase>& info) {
      return caseName(info.param);
    });

// ---- Emitted records are views ---------------------------------------------

/// Overwrites a buffer that was just emitted: a sink that kept the views
/// instead of copying would now read '#'s.
void scribble(std::string& buffer) {
  std::fill(buffer.begin(), buffer.end(), '#');
}

/// WordCount's mapper, emitting every record from two reused buffers.
class ReusedBufferMapper final : public Mapper {
 public:
  void map(std::string_view, std::string_view value,
           TaskContext& ctx) override {
    for (const auto& token : splitWhitespace(value)) {
      assignLowerAscii(key_, token);
      value_ = MrCodec<int64_t>::enc(1);
      ctx.emit(key_, value_);
      scribble(key_);
      scribble(value_);
    }
  }

 private:
  std::string key_;
  std::string value_;
};

/// Sums int64 counts and emits the total as `Final` renders it, from two
/// reused buffers: the combiner (int64) and the reducer (decimal text).
template <bool Final>
class ReusedBufferSum final : public Reducer {
 public:
  void reduce(std::string_view key, ValuesIterator& values,
              TaskContext& ctx) override {
    int64_t sum = 0;
    while (const auto v = values.nextTyped<int64_t>()) sum += *v;
    key_.assign(key);
    value_ = Final ? std::to_string(sum) : MrCodec<int64_t>::enc(sum);
    ctx.emit(key_, value_);
    scribble(key_);
    scribble(value_);
  }

 private:
  std::string key_;
  std::string value_;
};

JobSpec reusedBufferWordCount(std::vector<std::string> inputs,
                              std::string output) {
  JobSpec spec = wordCountSpec(std::move(inputs), std::move(output), true, 3);
  spec.mapper = [] { return std::make_unique<ReusedBufferMapper>(); };
  spec.combiner = [] { return std::make_unique<ReusedBufferSum<false>>(); };
  spec.reducer = [] { return std::make_unique<ReusedBufferSum<true>>(); };
  return spec;
}

TEST(EmitByViewTest, ReusedEmitBuffersStillCountCorrectly) {
  const auto files = makeFiles();
  std::string corpus;
  for (const auto& file : files) corpus += file;
  const auto reference = referenceCounts(corpus);

  // Serial, spilling many times: the combiner runs per spill and again in
  // the map's final merge.
  const stdfs::path root = stdfs::temp_directory_path() /
                           ("mh_reused_emit_" + std::to_string(::getpid()));
  stdfs::remove_all(root);
  LocalFs local(8ull << 20);
  std::vector<std::string> inputs;
  for (int f = 0; f < kFiles; ++f) {
    inputs.push_back((root / ("in" + std::to_string(f) + ".txt")).string());
    local.writeFile(inputs.back(), files[f]);
  }
  JobSpec spec = reusedBufferWordCount(inputs, (root / "out").string());
  spec.conf.setInt("io.sort.mb", 1);
  spec.conf.setDouble("io.sort.spill.percent", 0.05);
  const JobResult serial = LocalJobRunner(local).run(std::move(spec));
  ASSERT_TRUE(serial.succeeded()) << serial.error;
  EXPECT_GT(serial.counters.value(kTaskGroup, kMapSpills), kFiles);
  EXPECT_EQ(readCounts(local, (root / "out").string()), reference);
  stdfs::remove_all(root);

  // Distributed, with in-node combining merging the maps' outputs again.
  Config conf = testutil::aggressiveTimers();
  conf.setInt("dfs.blocksize", 1 << 20);
  MiniMrCluster cluster({.num_nodes = 3, .conf = conf});
  auto client = cluster.client();
  for (int f = 0; f < kFiles; ++f) {
    client.writeFile("/in/part" + std::to_string(f) + ".txt", files[f]);
  }
  JobSpec distributed_spec = reusedBufferWordCount({"/in"}, "/out");
  distributed_spec.conf.setBool("mapred.innode.combine", true);
  const JobResult distributed = cluster.runJob(std::move(distributed_spec));
  ASSERT_TRUE(distributed.succeeded()) << distributed.error;
  HdfsFs fs(client);
  EXPECT_EQ(readCounts(fs, "/out"), reference);
}

}  // namespace
}  // namespace mh::mr
