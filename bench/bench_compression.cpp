// Tentpole benchmark — pluggable compression. Three parts:
//
//  1. Codec micro-throughput: encode/decode MB/s for mh-lz and var-rle on
//     three corpora (natural text, zipfian words, incompressible noise),
//     with the achieved ratio. Incompressible input must not collapse
//     throughput: frames fall back to stored.
//  2. Compressed at-rest reads: on a cluster whose DataNodes store mh-lz
//     frames, a node-local short-circuit read (decode straight from the
//     co-located store, no RPC) vs the seed-style copying RPC path.
//  3. End-to-end: zipfian WordCount (no combiner, so the shuffle carries
//     the full map output) and the airline mean-delay job, each with all
//     three seams off vs on. Outputs must be byte-identical; the zipfian
//     WordCount must move >= 1.5x fewer shuffle bytes with the seams on.
//
// Writes a machine-readable summary to BENCH_compression.json (or argv[1])
// and exits non-zero if a gate fails.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "mh/apps/airline.h"
#include "mh/apps/wordcount.h"
#include "mh/common/codec.h"
#include "mh/common/rng.h"
#include "mh/common/serde.h"
#include "mh/common/stopwatch.h"
#include "mh/data/airline.h"
#include "mh/hdfs/dfs_client.h"
#include "mh/hdfs/mini_cluster.h"
#include "mh/mr/mini_mr_cluster.h"
#include "mh/net/network.h"

namespace {

using namespace mh;

constexpr size_t kMicroBytes = 4 * 1024 * 1024;
constexpr int kReps = 3;

Bytes textCorpus(size_t n) {
  static const char* kSentences[] = {
      "the cluster keeps every replica on a different rack when it can ",
      "a map task prefers the node that already holds its split ",
      "reducers merge sorted runs without ever holding one whole ",
      "the namenode leaves safe mode once the block reports arrive ",
  };
  Bytes out;
  Rng rng(1);
  while (out.size() < n) out += kSentences[rng.uniform(4)];
  out.resize(n);
  return out;
}

/// Zipf-ish word stream: rank r drawn with probability proportional to 1/r
/// over a 1000-word vocabulary — the shape of real word-count inputs.
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

Bytes noiseCorpus(size_t n, uint64_t seed) {
  Rng rng(seed);
  Bytes out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.next() & 0xff);
  return out;
}

template <typename Fn>
int64_t bestOfReps(Fn&& run) {
  int64_t best = INT64_MAX;
  for (int r = 0; r < kReps; ++r) {
    Stopwatch watch;
    run();
    best = std::min(best, watch.elapsedMicros());
  }
  return best;
}

double mbPerSec(size_t bytes, int64_t micros) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0) /
         (static_cast<double>(micros) / 1e6);
}

struct MicroRow {
  std::string codec, corpus;
  double encode_mbps, decode_mbps, ratio;
};

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

struct EndToEnd {
  int64_t millis = 0;
  int64_t shuffle_bytes = 0;
  std::map<std::string, Bytes> parts;
};

EndToEnd runJob(const std::string& job, bool seams_on) {
  Config conf;
  conf.setInt("dfs.replication", 2);
  conf.setInt("dfs.blocksize", 256 * 1024);
  conf.setInt("mapred.tasktracker.heartbeat.ms", 20);
  conf.setInt("dfs.heartbeat.interval.ms", 50);
  if (seams_on) conf.set("dfs.block.compression.codec", "mh-lz");
  mr::MiniMrCluster cluster({.num_nodes = 3, .conf = conf});

  mr::JobSpec spec;
  if (job == "wordcount") {
    // No combiner: the shuffle carries the full map output, which is what
    // the compression seam is being asked to shrink.
    cluster.client().writeFile("/in/corpus.txt",
                               zipfianCorpus(2 * 1024 * 1024, 42));
    spec = apps::makeWordCountJob({"/in"}, "/out", /*with_combiner=*/false,
                                  /*num_reducers=*/3);
  } else {
    data::AirlineGenerator gen({.seed = 9, .rows = 20'000});
    cluster.client().writeFile("/in/airline.csv", gen.generateCsv());
    spec = apps::makeAirlineDelayJob(apps::AirlineVariant::kCombiner, {"/in"},
                                     "/out", /*num_reducers=*/2);
  }
  if (seams_on) {
    spec.conf.set("mapred.map.output.compression.codec", "mh-lz");
    spec.conf.set("mapred.shuffle.compression", "mh-lz");
  }

  Stopwatch watch;
  const auto result = cluster.runJob(std::move(spec));
  EndToEnd e;
  e.millis = watch.elapsedMillis();
  if (!result.succeeded()) {
    std::fprintf(stderr, "%s failed: %s\n", job.c_str(),
                 result.error.c_str());
    std::exit(1);
  }
  e.shuffle_bytes = result.counters.value(mr::counters::kShuffleGroup,
                                          mr::counters::kShuffleBytes);
  e.parts = readParts(cluster);
  return e;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_compression.json";

  // ---- 1. Codec micro-throughput. ------------------------------------------
  const std::pair<std::string, Bytes> corpora[] = {
      {"text", textCorpus(kMicroBytes)},
      {"zipfian", zipfianCorpus(kMicroBytes, 7)},
      {"incompressible", noiseCorpus(kMicroBytes, 8)},
  };
  std::printf("=== codec micro-throughput (%zu MiB per corpus, best of %d) "
              "===\n\n",
              kMicroBytes >> 20, kReps);
  std::printf("%-8s %-16s %12s %12s %8s\n", "codec", "corpus", "enc MB/s",
              "dec MB/s", "ratio");
  std::vector<MicroRow> micro;
  bool micro_identical = true;
  for (CodecKind kind : {CodecKind::kMhLz, CodecKind::kVarRle}) {
    for (const auto& [name, raw] : corpora) {
      Bytes encoded;
      const int64_t enc_us =
          bestOfReps([&] { encoded = codecEncode(kind, raw); });
      Buffer decoded;
      const int64_t dec_us = bestOfReps([&] { decoded = codecDecode(encoded); });
      micro_identical = micro_identical && decoded.view() == raw;
      MicroRow row{std::string(codecName(kind)), name,
                   mbPerSec(raw.size(), enc_us), mbPerSec(raw.size(), dec_us),
                   static_cast<double>(raw.size()) /
                       static_cast<double>(encoded.size())};
      std::printf("%-8s %-16s %12.0f %12.0f %8.2f\n", row.codec.c_str(),
                  row.corpus.c_str(), row.encode_mbps, row.decode_mbps,
                  row.ratio);
      micro.push_back(row);
    }
  }

  // ---- 2. Compressed at-rest reads: short-circuit vs copying RPC. ----------
  // The co-design claim: with blocks stored compressed, a co-located reader
  // short-circuits — checksum + decode straight off the resident replica,
  // zero RPC, zero wire bytes — while the copying RPC path ships the full
  // RAW bytes over the fabric (the store decodes server-side). The fabric
  // is paced at gigabit-era bandwidth, the NIC class of the paper's
  // teaching cluster; loopback stays free, so the short-circuit side gains
  // nothing from the pacing.
  Config dfs_conf;
  dfs_conf.setInt("dfs.replication", 2);
  dfs_conf.setInt("dfs.blocksize", 1 * 1024 * 1024);
  dfs_conf.setInt("dfs.heartbeat.interval.ms", 50);
  dfs_conf.set("dfs.block.compression.codec", "mh-lz");
  hdfs::MiniDfsCluster dfs({.num_datanodes = 2, .conf = dfs_conf});
  const Bytes file = textCorpus(16 * 1024 * 1024);
  dfs.client().writeFile("/bench/text.bin", file);
  const auto blocks = dfs.client().getBlockLocations("/bench/text.bin");
  dfs.network()->setLatencyMicros(200);
  dfs.network()->setBandwidthBytesPerSec(125'000'000);  // 1 Gbps

  // Copying RPC path from an off-node consumer: one readBlock call() per
  // block, each reply materialized into an owned Bytes, then concatenated.
  Bytes copied;
  const int64_t rpc_us = bestOfReps([&] {
    copied.clear();
    for (const auto& located : blocks) {
      copied += dfs.network()
                    ->call("client", located.hosts.front(),
                           hdfs::kDataNodePort, "readBlock",
                           pack(located.block.id, uint64_t{0},
                                located.block.size),
                           "read")
                    .str();
    }
  });

  Config sc_conf = dfs.conf();
  sc_conf.setBool("dfs.client.read.shortcircuit", true);
  hdfs::DfsClient sc_client(sc_conf, dfs.network(), "node01", "namenode");
  std::vector<BufferView> sc_views;
  const int64_t sc_us = bestOfReps(
      [&] { sc_views = sc_client.readFileViews("/bench/text.bin"); });
  Bytes sc_bytes;
  for (const BufferView& v : sc_views) sc_bytes.append(v.view());
  dfs.network()->setLatencyMicros(0);
  dfs.network()->setBandwidthBytesPerSec(0);
  const bool sc_identical = copied == file && sc_bytes == file;
  const double sc_speedup =
      static_cast<double>(rpc_us) / static_cast<double>(sc_us);
  std::printf("\ncompressed block reads (16 MiB, mh-lz at rest, 1 Gbps "
              "fabric): copying RPC %lld us (%.0f MB/s) vs co-located "
              "short-circuit %lld us (%.0f MB/s) -> %.2fx, byte-identical: "
              "%s\n",
              static_cast<long long>(rpc_us), mbPerSec(file.size(), rpc_us),
              static_cast<long long>(sc_us), mbPerSec(file.size(), sc_us),
              sc_speedup, sc_identical ? "yes" : "NO");

  // ---- 3. End-to-end jobs, seams off vs on. --------------------------------
  const EndToEnd wc_off = runJob("wordcount", false);
  const EndToEnd wc_on = runJob("wordcount", true);
  const bool wc_identical = !wc_off.parts.empty() &&
                            wc_off.parts == wc_on.parts;
  const double shuffle_reduction =
      static_cast<double>(wc_off.shuffle_bytes) /
      static_cast<double>(wc_on.shuffle_bytes);
  std::printf("\nzipfian wordcount (no combiner): shuffle %lld B off vs "
              "%lld B on -> %.2fx reduction; wall %lld -> %lld ms; "
              "byte-identical: %s\n",
              static_cast<long long>(wc_off.shuffle_bytes),
              static_cast<long long>(wc_on.shuffle_bytes), shuffle_reduction,
              static_cast<long long>(wc_off.millis),
              static_cast<long long>(wc_on.millis),
              wc_identical ? "yes" : "NO");

  const EndToEnd air_off = runJob("airline", false);
  const EndToEnd air_on = runJob("airline", true);
  const bool air_identical = !air_off.parts.empty() &&
                             air_off.parts == air_on.parts;
  std::printf("airline mean-delay (combiner): shuffle %lld B off vs %lld B "
              "on; wall %lld -> %lld ms; byte-identical: %s\n",
              static_cast<long long>(air_off.shuffle_bytes),
              static_cast<long long>(air_on.shuffle_bytes),
              static_cast<long long>(air_off.millis),
              static_cast<long long>(air_on.millis),
              air_identical ? "yes" : "NO");

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"bench\": \"compression\",\n"
       << "  \"micro_bytes\": " << kMicroBytes << ",\n"
       << "  \"reps\": " << kReps << ",\n"
       << "  \"micro\": [\n";
  for (size_t i = 0; i < micro.size(); ++i) {
    json << "    {\"codec\": \"" << micro[i].codec << "\", \"corpus\": \""
         << micro[i].corpus << "\", \"encode_mb_per_sec\": "
         << micro[i].encode_mbps << ", \"decode_mb_per_sec\": "
         << micro[i].decode_mbps << ", \"ratio\": " << micro[i].ratio << "}"
         << (i + 1 < micro.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"short_circuit_speedup\": " << sc_speedup << ",\n"
       << "  \"wordcount_shuffle_bytes_off\": " << wc_off.shuffle_bytes
       << ",\n"
       << "  \"wordcount_shuffle_bytes_on\": " << wc_on.shuffle_bytes << ",\n"
       << "  \"wordcount_shuffle_reduction\": " << shuffle_reduction << ",\n"
       << "  \"wordcount_off_ms\": " << wc_off.millis << ",\n"
       << "  \"wordcount_on_ms\": " << wc_on.millis << ",\n"
       << "  \"airline_shuffle_bytes_off\": " << air_off.shuffle_bytes
       << ",\n"
       << "  \"airline_shuffle_bytes_on\": " << air_on.shuffle_bytes << ",\n"
       << "  \"airline_off_ms\": " << air_off.millis << ",\n"
       << "  \"airline_on_ms\": " << air_on.millis << ",\n"
       << "  \"outputs_byte_identical\": "
       << (micro_identical && sc_identical && wc_identical && air_identical
               ? "true"
               : "false")
       << "\n}\n";
  json.close();
  std::printf("wrote %s\n", out_path.c_str());

  // Shape gates: byte-identity everywhere; the zipfian shuffle must shrink
  // >= 1.5x; compressed short-circuit reads must beat the copying RPC path
  // >= 2x.
  if (!micro_identical || !sc_identical || !wc_identical || !air_identical) {
    return 1;
  }
  if (shuffle_reduction < 1.5) return 1;
  if (sc_speedup < 2.0) return 1;
  return 0;
}
