// Experiment C1 — §III-A: "The students observe the tradeoff between
// increased map task run time ... versus reduced network traffic" when
// WordCount uses its reducer as a combiner. Two parts:
//
//  1. The original serial sweep: corpus size vs map time and shuffle
//     volume, plain vs per-task combiner, under the LocalJobRunner.
//  2. The distributed extension: per-task combining vs in-node combining
//     (`mapred.innode.combine=true`) on a 3-node mini-cluster, over a
//     zipfian corpus (high per-node key duplication — the case in-node
//     combining exists for) and a uniform wide-vocabulary corpus (low
//     duplication — the case where it buys little, reported but not
//     gated). Outputs must be byte-identical in every mode; the zipfian
//     run must move >= 2x fewer shuffle bytes in-node than per-task.
//
// Writes a machine-readable summary to BENCH_innode_combiner.json (or
// argv[1]) and exits non-zero if a gate fails.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "mh/apps/wordcount.h"
#include "mh/common/rng.h"
#include "mh/common/stopwatch.h"
#include "mh/data/text_corpus.h"
#include "mh/mr/local_runner.h"
#include "mh/mr/mini_mr_cluster.h"

namespace {

using namespace mh;

/// Zipf-ish word stream: rank r drawn with probability proportional to 1/r
/// over a 1000-word vocabulary — every map sees the same hot keys, so the
/// per-node duplication factor approaches the maps-per-node count.
Bytes zipfianCorpus(size_t n, uint64_t seed) {
  constexpr int kVocab = 1000;
  std::vector<double> cdf(kVocab);
  double sum = 0;
  for (int r = 0; r < kVocab; ++r) {
    sum += 1.0 / (r + 1);
    cdf[r] = sum;
  }
  Rng rng(seed);
  Bytes out;
  int col = 0;
  while (out.size() < n) {
    const double u =
        sum * (static_cast<double>(rng.uniform(1u << 30)) / (1u << 30));
    int lo = 0, hi = kVocab - 1;
    while (lo < hi) {
      const int mid = (lo + hi) / 2;
      if (cdf[mid] < u) lo = mid + 1; else hi = mid;
    }
    out += "word" + std::to_string(lo);
    out.push_back(++col % 12 == 0 ? '\n' : ' ');
  }
  out.resize(n);
  return out;
}

/// Uniform draw over a vocabulary much wider than any one map's token
/// count: most words recur in few maps, so cross-map combining has little
/// duplication to harvest — the unfavourable case for in-node combining.
Bytes uniformCorpus(size_t n, uint64_t seed) {
  constexpr uint64_t kVocab = 60'000;
  Rng rng(seed);
  Bytes out;
  int col = 0;
  while (out.size() < n) {
    out += "u" + std::to_string(rng.uniform(kVocab));
    out.push_back(++col % 12 == 0 ? '\n' : ' ');
  }
  out.resize(n);
  return out;
}

/// Part-file bytes of /out, keyed by file name.
std::map<std::string, Bytes> readParts(mr::MiniMrCluster& cluster) {
  std::map<std::string, Bytes> parts;
  auto client = cluster.client();
  for (const auto& status : client.listStatus("/out")) {
    const auto slash = status.path.rfind('/');
    parts[status.path.substr(slash + 1)] = client.readFile(status.path);
  }
  return parts;
}

struct ModeResult {
  int64_t millis = 0;
  int64_t shuffle_bytes = 0;
  /// Records into and out of the serving trackers' in-node combines, the
  /// `innode.records.in/out` counters summed over trackers (0 per-task).
  int64_t records_in = 0;
  int64_t records_out = 0;
  std::map<std::string, Bytes> parts;
};

/// Runs combiner wordcount over `corpus` on a fresh 3-node cluster,
/// per-task (innode=false) or in-node (innode=true). A 128 KiB blocksize
/// over a 2 MiB corpus yields ~16 maps across 3 nodes — several maps per
/// node, which is the population in-node combining aggregates over.
ModeResult runDistributed(const Bytes& corpus, bool innode) {
  Config conf;
  conf.setInt("dfs.replication", 2);
  conf.setInt("dfs.blocksize", 128 * 1024);
  conf.setInt("mapred.tasktracker.heartbeat.ms", 20);
  conf.setInt("dfs.heartbeat.interval.ms", 50);
  mr::MiniMrCluster cluster({.num_nodes = 3, .conf = conf});
  cluster.client().writeFile("/in/corpus.txt", corpus);

  auto spec = apps::makeWordCountJob({"/in"}, "/out", /*with_combiner=*/true,
                                     /*num_reducers=*/3);
  if (innode) spec.conf.setBool("mapred.innode.combine", true);

  Stopwatch watch;
  const auto result = cluster.runJob(std::move(spec));
  ModeResult m;
  m.millis = watch.elapsedMillis();
  if (!result.succeeded()) {
    std::fprintf(stderr, "wordcount (%s) failed: %s\n",
                 innode ? "in-node" : "per-task", result.error.c_str());
    std::exit(1);
  }
  using namespace mr::counters;
  m.shuffle_bytes = result.counters.value(kShuffleGroup, kShuffleBytes);
  for (const auto& host : cluster.trackerHosts()) {
    const auto& tracker = cluster.metrics().child("tasktracker." + host);
    m.records_in += tracker.counterValue("innode.records.in");
    m.records_out += tracker.counterValue("innode.records.out");
  }
  m.parts = readParts(cluster);
  return m;
}

struct Tradeoff {
  ModeResult per_task, innode;
  bool identical = false;
  double reduction = 0;
};

Tradeoff runTradeoff(const char* label, const Bytes& corpus) {
  Tradeoff t;
  t.per_task = runDistributed(corpus, false);
  t.innode = runDistributed(corpus, true);
  t.identical = !t.per_task.parts.empty() && t.per_task.parts == t.innode.parts;
  t.reduction = static_cast<double>(t.per_task.shuffle_bytes) /
                static_cast<double>(t.innode.shuffle_bytes);
  std::printf("%-8s shuffle %8lld B per-task vs %8lld B in-node -> %5.2fx; "
              "wall %lld -> %lld ms; combine %lld -> %lld records; "
              "byte-identical: %s\n",
              label, static_cast<long long>(t.per_task.shuffle_bytes),
              static_cast<long long>(t.innode.shuffle_bytes), t.reduction,
              static_cast<long long>(t.per_task.millis),
              static_cast<long long>(t.innode.millis),
              static_cast<long long>(t.innode.records_in),
              static_cast<long long>(t.innode.records_out),
              t.identical ? "yes" : "NO");
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_innode_combiner.json";
  namespace fs = std::filesystem;
  const fs::path tmp = fs::temp_directory_path() / "mh_bench_combiner";
  fs::remove_all(tmp);
  mh::mr::LocalFs local(128 * 1024);

  std::printf("=== C1: WordCount combiner trade-off (map time vs shuffle "
              "bytes) ===\n\n");
  std::printf("%8s %12s %12s %14s %14s %10s\n", "corpus", "map ms", "map ms",
              "shuffle B", "shuffle B", "shuffle");
  std::printf("%8s %12s %12s %14s %14s %10s\n", "KiB", "plain", "combiner",
              "plain", "combiner", "reduction");

  for (const uint64_t kib : {256, 1024, 4096}) {
    mh::data::TextCorpusGenerator generator(
        {.seed = 11, .vocabulary_size = 3000, .target_bytes = kib * 1024});
    const std::string input = (tmp / ("corpus" + std::to_string(kib))).string();
    local.writeFile(input, generator.generate());

    mh::mr::LocalJobRunner runner(local);
    const auto plain = runner.run(mh::apps::makeWordCountJob(
        {input}, (tmp / ("plain" + std::to_string(kib))).string(), false));
    const auto combined = runner.run(mh::apps::makeWordCountJob(
        {input}, (tmp / ("comb" + std::to_string(kib))).string(), true));
    if (!plain.succeeded() || !combined.succeeded()) {
      std::printf("job failed\n");
      return 1;
    }
    using namespace mh::mr::counters;
    const auto plain_shuffle =
        plain.counters.value(kShuffleGroup, kShuffleBytes);
    const auto comb_shuffle =
        combined.counters.value(kShuffleGroup, kShuffleBytes);
    std::printf("%8llu %12lld %12lld %14lld %14lld %9.1fx\n",
                static_cast<unsigned long long>(kib),
                static_cast<long long>(plain.map_millis),
                static_cast<long long>(combined.map_millis),
                static_cast<long long>(plain_shuffle),
                static_cast<long long>(comb_shuffle),
                static_cast<double>(plain_shuffle) /
                    static_cast<double>(comb_shuffle));
  }
  std::printf("\nshape reproduced: the combiner adds map-side work (extra "
              "sort+reduce pass per spill) and cuts shuffle volume by the "
              "per-split key-repetition factor.\n");
  fs::remove_all(tmp);

  std::printf("\n=== per-task vs in-node combining (3-node cluster, 2 MiB "
              "corpus, ~16 maps) ===\n\n");
  const Tradeoff zipf = runTradeoff("zipfian", zipfianCorpus(2 * 1024 * 1024, 42));
  const Tradeoff unif = runTradeoff("uniform", uniformCorpus(2 * 1024 * 1024, 43));

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"bench\": \"innode_combiner\",\n";
  const auto emit = [&json](const char* name, const Tradeoff& t,
                            bool trailing_comma) {
    json << "  \"" << name << "\": {\n"
         << "    \"per_task_shuffle_bytes\": " << t.per_task.shuffle_bytes
         << ",\n"
         << "    \"innode_shuffle_bytes\": " << t.innode.shuffle_bytes << ",\n"
         << "    \"shuffle_reduction\": " << t.reduction << ",\n"
         << "    \"per_task_ms\": " << t.per_task.millis << ",\n"
         << "    \"innode_ms\": " << t.innode.millis << ",\n"
         << "    \"innode_combine_records_in\": " << t.innode.records_in
         << ",\n"
         << "    \"innode_combine_records_out\": " << t.innode.records_out
         << ",\n"
         << "    \"outputs_byte_identical\": "
         << (t.identical ? "true" : "false") << "\n"
         << "  }" << (trailing_comma ? "," : "") << "\n";
  };
  emit("zipfian", zipf, true);
  emit("uniform", unif, false);
  json << "}\n";
  json.close();
  std::printf("wrote %s\n", out_path.c_str());

  // Shape gates: byte-identity in every mode on both corpora; the zipfian
  // shuffle must shrink >= 2x in-node vs per-task. The uniform corpus is
  // report-only — low cross-map duplication is exactly the case where
  // in-node combining is not expected to win.
  if (!zipf.identical || !unif.identical) return 1;
  if (zipf.reduction < 2.0) return 1;
  return 0;
}
