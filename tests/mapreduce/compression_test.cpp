#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>

#include <unistd.h>

#include "mh/apps/airline.h"
#include "mh/common/rng.h"
#include "mh/data/airline.h"
#include "mh/mr/local_runner.h"
#include "mh/mr/mini_mr_cluster.h"
#include "mr_test_jobs.h"
#include "testutil/aggressive_timers.h"

/// The two compression seams (block at rest, map output) switch
/// independently; any subset must leave job outputs byte-identical to the
/// all-off baseline while the seam-specific raw/compressed counters show the
/// codec actually engaged. Map output is encoded once at spill, shipped as
/// stored and decoded once by the reducer, on arrival.

namespace mh::mr {
namespace {

using namespace testjobs;
using namespace counters;
namespace stdfs = std::filesystem;

std::string makeCorpus(int lines, uint64_t seed) {
  static const char* kWords[] = {"compress", "block", "spill",   "shuffle",
                                 "frame",    "codec", "replica", "merge"};
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

struct SeamRun {
  std::map<std::string, Bytes> parts;  ///< part file bytes by name
  JobResult result;
  int64_t dn_raw = 0, dn_compressed = 0;  ///< datanode block.{raw,comp}.bytes
  int64_t tt_encodes = 0, tt_decodes = 0;  ///< trackers' mh-lz codec calls
};

SeamRun runWithSeams(const std::string& corpus, const std::string& block,
                     const std::string& mapout,
                     JobSpec spec = wordCountSpec({"/in"}, "/out", false, 3)) {
  Config conf = testutil::aggressiveTimers();
  conf.setInt("dfs.replication", 2);
  conf.setInt("dfs.blocksize", 4096);
  conf.set("dfs.block.compression.codec", block);

  MiniMrCluster cluster({.num_nodes = 3, .conf = conf});
  auto client = cluster.client();
  client.writeFile("/in/corpus.txt", corpus);

  // The map-output codec is a job-level setting: it rides the JobSpec conf
  // to every task, not the daemons' cluster conf.
  spec.conf.set("mapred.map.output.compression.codec", mapout);

  SeamRun run;
  run.result = cluster.runJob(std::move(spec));
  if (!run.result.succeeded()) return run;

  HdfsFs fs(client);
  run.parts = readPartFiles(fs, "/out");
  for (const auto& host : cluster.trackerHosts()) {
    auto& dn = cluster.metrics().child("datanode." + host);
    run.dn_raw += dn.counterValue("block.raw.bytes");
    run.dn_compressed += dn.counterValue("block.compressed.bytes");
    auto& tt = cluster.metrics().child("tasktracker." + host);
    auto& codec = tt.child("codec.mh-lz");
    run.tt_encodes +=
        static_cast<int64_t>(codec.histogram("encode.micros").count());
    run.tt_decodes +=
        static_cast<int64_t>(codec.histogram("decode.micros").count());
  }
  return run;
}

TEST(CompressionSeamsTest, EverySeamSubsetIsByteIdentical) {
  const std::string corpus = makeCorpus(400, 21);

  const SeamRun off = runWithSeams(corpus, "none", "none");
  ASSERT_TRUE(off.result.succeeded()) << off.result.error;
  ASSERT_EQ(off.parts.size(), 3u);
  EXPECT_EQ(off.dn_compressed, 0);
  EXPECT_EQ(off.result.counters.value(kTaskGroup, kSpillRawBytes), 0);
  EXPECT_EQ(off.result.counters.value(kShuffleGroup, kShuffleRawBytes), 0);
  EXPECT_EQ(off.result.counters.value(kShuffleGroup, kShuffleCompressedBytes),
            0);
  EXPECT_EQ(off.tt_decodes, 0);

  // Seam 1: blocks at rest. The DataNodes store framed replicas (and
  // replicate them compressed), yet reads reassemble the raw file.
  const SeamRun block = runWithSeams(corpus, "mh-lz", "none");
  ASSERT_TRUE(block.result.succeeded()) << block.result.error;
  EXPECT_EQ(block.parts, off.parts);
  EXPECT_GT(block.dn_raw, 0);
  EXPECT_GT(block.dn_compressed, 0);
  EXPECT_LT(block.dn_compressed, block.dn_raw);
  EXPECT_EQ(block.result.counters.value(kShuffleGroup, kShuffleCompressedBytes),
            0);

  // Seam 2: map output. Stored segments shrink, trackers serve them as
  // stored, reducers meter the decode on arrival, and fewer bytes cross
  // the wire; outputs don't change.
  const SeamRun mapout = runWithSeams(corpus, "none", "mh-lz");
  ASSERT_TRUE(mapout.result.succeeded()) << mapout.result.error;
  EXPECT_EQ(mapout.parts, off.parts);
  EXPECT_EQ(mapout.dn_compressed, 0);
  const auto spill_raw = mapout.result.counters.value(kTaskGroup,
                                                      kSpillRawBytes);
  EXPECT_GT(spill_raw, 0);
  EXPECT_LT(mapout.result.counters.value(kTaskGroup, kSpillCompressedBytes),
            spill_raw);
  const auto fetched_raw = mapout.result.counters.value(kShuffleGroup,
                                                        kShuffleRawBytes);
  EXPECT_GT(fetched_raw, 0);
  EXPECT_LT(mapout.result.counters.value(kShuffleGroup,
                                         kShuffleCompressedBytes),
            fetched_raw);
  EXPECT_LT(mapout.result.counters.value(kShuffleGroup, kShuffleBytes),
            off.result.counters.value(kShuffleGroup, kShuffleBytes));

  // Both at once.
  const SeamRun both = runWithSeams(corpus, "mh-lz", "mh-lz");
  ASSERT_TRUE(both.result.succeeded()) << both.result.error;
  EXPECT_EQ(both.parts, off.parts);
  EXPECT_GT(both.dn_compressed, 0);
  EXPECT_GT(both.result.counters.value(kShuffleGroup, kShuffleRawBytes), 0);
  EXPECT_GT(both.result.counters.value(kTaskGroup, kSpillCompressedBytes), 0);

  // Zipfian words and no combiner: the shuffle carries every occurrence of
  // the hot words, which is what the seams are asked to shrink.
  const std::string zipfian = zipfCorpus(600, 42);
  const SeamRun zipf_off = runWithSeams(zipfian, "none", "none");
  const SeamRun zipf_both = runWithSeams(zipfian, "mh-lz", "mh-lz");
  ASSERT_TRUE(zipf_off.result.succeeded()) << zipf_off.result.error;
  ASSERT_TRUE(zipf_both.result.succeeded()) << zipf_both.result.error;
  EXPECT_EQ(zipf_both.parts, zipf_off.parts);
  const int64_t zipf_off_bytes =
      zipf_off.result.counters.value(kShuffleGroup, kShuffleBytes);
  const int64_t zipf_both_bytes =
      zipf_both.result.counters.value(kShuffleGroup, kShuffleBytes);
  EXPECT_GE(static_cast<double>(zipf_off_bytes),
            1.5 * static_cast<double>(zipf_both_bytes))
      << zipf_off_bytes << " shuffle bytes off vs " << zipf_both_bytes
      << " with both seams on";

  // A combiner job over CSV: the airline mean-delay job with the map-output
  // seam on.
  data::AirlineGenerator gen({.seed = 9, .rows = 1'000});
  const std::string csv = gen.generateCsv();
  const JobSpec airline = apps::makeAirlineDelayJob(
      apps::AirlineVariant::kCombiner, {"/in"}, "/out", 2);
  const SeamRun air_off = runWithSeams(csv, "none", "none", airline);
  const SeamRun air_on = runWithSeams(csv, "none", "mh-lz", airline);
  ASSERT_TRUE(air_off.result.succeeded()) << air_off.result.error;
  ASSERT_TRUE(air_on.result.succeeded()) << air_on.result.error;
  EXPECT_EQ(air_off.parts.size(), 2u);
  EXPECT_EQ(air_on.parts, air_off.parts);
}

TEST(CompressionSeamsTest, MapOutputCodecShipsStoredSegmentsAsIs) {
  // Encode once, ship as stored, decode once on arrival. A fault-free,
  // combiner-less job with speculation off serves every stored segment
  // exactly once. Launched with every location known and at least as many
  // maps as the reducer's fold fan-in (8), each reducer also folds — and
  // the folds merge runs the intake already decoded. So the bytes the maps
  // encoded are the bytes the reducers decoded, and every segment went
  // through the codec exactly once each way.
  const std::string corpus = makeCorpus(1500, 33);
  JobSpec spec = wordCountSpec({"/in"}, "/out", false, 3);
  spec.conf.setDouble("mapred.reduce.slowstart.completed.maps", 1.0);
  const SeamRun run = runWithSeams(corpus, "none", "mh-lz", spec);
  ASSERT_TRUE(run.result.succeeded()) << run.result.error;
  const Counters& c = run.result.counters;
  ASSERT_EQ(c.value(kJobGroup, kFailedMaps), 0);
  ASSERT_EQ(c.value(kJobGroup, kFailedReduces), 0);
  ASSERT_EQ(c.value(kJobGroup, kSpeculativeMaps), 0);
  ASSERT_GE(c.value(kJobGroup, kLaunchedMaps), 8);

  const int64_t spill_compressed = c.value(kTaskGroup, kSpillCompressedBytes);
  EXPECT_GT(spill_compressed, 0);
  EXPECT_EQ(c.value(kShuffleGroup, kShuffleCompressedBytes), spill_compressed);
  EXPECT_EQ(c.value(kShuffleGroup, kShuffleRawBytes),
            c.value(kTaskGroup, kSpillRawBytes));
  EXPECT_LT(spill_compressed, c.value(kTaskGroup, kSpillRawBytes));

  // Without a combiner a map never merges its spills, so each non-empty
  // segment it stored was encoded once, and fetched once.
  EXPECT_GT(run.tt_encodes, 0);
  EXPECT_EQ(run.tt_decodes, run.tt_encodes);
  // The folds ran: the final merges saw fewer segments than were fetched.
  EXPECT_LT(c.value(kTaskGroup, kMergeSegments), run.tt_encodes);

  // Byte-identical to the serial runner with the same codec, on the same
  // 4 KiB splits.
  const stdfs::path root = stdfs::temp_directory_path() /
                           ("mh_stored_segments_" + std::to_string(::getpid()));
  stdfs::remove_all(root);
  LocalFs local(4096);
  local.writeFile((root / "in.txt").string(), corpus);
  JobSpec serial_spec = wordCountSpec({(root / "in.txt").string()},
                                      (root / "out").string(), false, 3);
  serial_spec.conf.set("mapred.map.output.compression.codec", "mh-lz");
  const JobResult serial = LocalJobRunner(local).run(std::move(serial_spec));
  ASSERT_TRUE(serial.succeeded()) << serial.error;
  EXPECT_EQ(readPartFiles(local, (root / "out").string()), run.parts);
  EXPECT_EQ(serial.counters.value(kShuffleGroup, kShuffleCompressedBytes),
            serial.counters.value(kTaskGroup, kSpillCompressedBytes));
  stdfs::remove_all(root);
}

TEST(CompressionSeamsTest, VarRleSeamAlsoRoundTrips) {
  // The seams are codec-agnostic: the fallback codec must satisfy the same
  // byte-identity contract even where it barely compresses.
  const std::string corpus = makeCorpus(200, 44);
  const SeamRun off = runWithSeams(corpus, "none", "none");
  const SeamRun rle = runWithSeams(corpus, "var-rle", "var-rle");
  ASSERT_TRUE(off.result.succeeded()) << off.result.error;
  ASSERT_TRUE(rle.result.succeeded()) << rle.result.error;
  EXPECT_EQ(rle.parts, off.parts);
}

}  // namespace
}  // namespace mh::mr
