// Tentpole benchmark — pipelined shuffle (slowstart reduce launch +
// background fetch + incremental merge). One slow-map WordCount over a
// zipfian corpus runs twice on identical clusters:
//
//   * baseline:  mapred.reduce.slowstart.completed.maps = 1.0 — reduces
//     launch only after the whole map phase, so the shuffle is a serial
//     phase appended to the job.
//   * pipelined: slowstart = 0.05 (the production default) — reduces
//     launch after the first map success and fetch/fold map outputs while
//     the remaining maps run.
//
// Per-link bandwidth pacing plus padded map-output values make the shuffle
// a meaningful fraction of the baseline job, the way cross-rack links do
// on a real cluster; both runs share the exact same knobs, so the ONLY
// difference is when the shuffle happens.
//
// Gates (exit non-zero on failure):
//   * wall clock: baseline / pipelined >= 1.3x;
//   * byte-identical part files across the two runs;
//   * the shuffle's share of the critical path strictly shrinks;
//   * both runs fold every map output through the one reduce-shuffle path
//     (SHUFFLE_PIPELINED_RUNS >= maps x reducers), and their phases still
//     partition the wall clock.
//
// Writes the machine-readable summary BENCH_pipelined_shuffle.json (or
// argv[1]).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "mh/common/rng.h"
#include "mh/common/stopwatch.h"
#include "mh/common/strings.h"
#include "mh/common/trace_analysis.h"
#include "mh/mr/fs_view.h"
#include "mh/mr/mini_mr_cluster.h"

namespace {

using namespace mh;

/// Zipf-distributed words (skewed keys, like real text): ~2000 lines of
/// "w<rank>" tokens over a 400-word vocabulary, s = 1.1.
std::string zipfCorpus(uint64_t seed) {
  Rng rng(seed);
  const ZipfSampler zipf(400, 1.1);
  std::string out;
  for (int line = 0; line < 2000; ++line) {
    const uint64_t words = 3 + rng.uniform(6);
    for (uint64_t w = 0; w < words; ++w) {
      out += "w" + std::to_string(zipf.sample(rng));
      out.push_back(w + 1 == words ? '\n' : ' ');
    }
  }
  return out;
}

constexpr int kReducers = 2;

/// Identical cluster tuning for both runs; only `slowstart` differs.
Config benchConf(const std::string& slowstart) {
  Config conf;
  conf.setInt("dfs.replication", 2);
  conf.setInt("dfs.blocksize", 2048);
  conf.setInt("mapred.tasktracker.map.tasks.maximum", 1);
  conf.setInt("mapred.tasktracker.heartbeat.ms", 10);
  conf.setInt("mapred.jobtracker.monitor.interval.ms", 10);
  // One fetch copy serializes the per-reducer shuffle, so the paced fabric
  // turns it into a visible phase (as a congested link would).
  conf.setInt("mapred.reduce.parallel.copies", 1);
  conf.set("mapred.reduce.slowstart.completed.maps", slowstart);
  return conf;
}

struct RunOutcome {
  int64_t wall_ms = 0;
  double shuffle_share = 0.0;  // of the critical-path wall clock
  bool phases_partition = false;
  int64_t pipelined_runs = 0;
  int64_t pipelined_bytes = 0;
  uint32_t maps_total = 0;
  std::map<std::string, Bytes> parts;
  bool succeeded = false;
};

RunOutcome runOnce(const std::string& slowstart, const std::string& text) {
  mr::MiniMrCluster cluster({.num_nodes = 3, .conf = benchConf(slowstart)});
  // Pace every link at 512 KiB/s: with ~64 B of value padding per token the
  // shuffle moves ~1 MB, turning it into a phase worth hiding. The paced
  // fabric also carries the (tiny) DFS block reads, identically both runs.
  cluster.network()->setBandwidthBytesPerSec(512 * 1024);
  cluster.tracer().setEnabled(true);
  cluster.client().writeFile("/in/corpus.txt", text);

  mr::JobSpec spec;
  spec.name = "zipf-wordcount";
  spec.input_paths = {"/in"};
  spec.output_dir = "/out";
  spec.num_reducers = kReducers;
  // Slow map: ~0.6 ms of "compute" per line keeps the map phase long
  // enough for an early-launched reduce to hide the whole shuffle under
  // it. Each occurrence ships a padded value so the shuffle carries real
  // weight; the reducer counts occurrences, so the output stays tiny.
  spec.mapper = mr::mapperFromLambda(
      [](std::string_view, std::string_view value, mr::TaskContext& ctx) {
        static const std::string kPad(64, 'x');
        std::this_thread::sleep_for(std::chrono::microseconds(600));
        for (const auto& w : splitWhitespace(value)) {
          ctx.emit(Bytes(w), Bytes(kPad));
        }
      });
  spec.reducer = mr::reducerFromLambda(
      [](std::string_view key, mr::ValuesIterator& values,
         mr::TaskContext& ctx) {
        int64_t count = 0;
        while (values.next()) ++count;
        ctx.emitTyped<std::string, std::string>(std::string(key),
                                                std::to_string(count));
      });

  RunOutcome out;
  Stopwatch sw;
  const mr::JobResult result = cluster.runJob(std::move(spec));
  out.wall_ms = sw.elapsedMillis();
  out.succeeded = result.succeeded();
  if (!out.succeeded) {
    std::fprintf(stderr, "slowstart=%s job failed: %s\n", slowstart.c_str(),
                 result.error.c_str());
    return out;
  }
  out.maps_total = cluster.jobTracker().listJobs().front().maps_total;
  out.pipelined_runs = result.counters.value(
      mr::counters::kShuffleGroup, mr::counters::kShufflePipelinedRuns);
  out.pipelined_bytes = result.counters.value(
      mr::counters::kShuffleGroup, mr::counters::kShufflePipelinedBytes);

  const CriticalPathReport path =
      computeCriticalPath(cluster.tracer().snapshot(), result.trace_id);
  std::printf("--- slowstart=%s ---\n%s", slowstart.c_str(),
              path.renderAscii().c_str());
  int64_t phase_sum = 0;
  for (const auto& p : path.phases) phase_sum += p.micros;
  out.phases_partition = path.found && phase_sum == path.total_us;
  if (path.found && path.total_us > 0) {
    out.shuffle_share = static_cast<double>(path.phaseMicros("shuffle")) /
                        static_cast<double>(path.total_us);
  }

  mr::HdfsFs fs(cluster.client());
  for (const auto& file : fs.listFiles("/out")) {
    const auto slash = file.find_last_of('/');
    const std::string base = file.substr(slash + 1);
    if (base.rfind("part-", 0) != 0) continue;
    out.parts[base] = fs.readRange(file, 0, fs.fileLength(file));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_pipelined_shuffle.json";
  const std::string text = zipfCorpus(17);

  const RunOutcome baseline = runOnce("1.0", text);
  const RunOutcome pipelined = runOnce("0.05", text);

  const double speedup =
      pipelined.wall_ms > 0
          ? static_cast<double>(baseline.wall_ms) / pipelined.wall_ms
          : 0.0;
  const bool bytes_identical = baseline.succeeded && pipelined.succeeded &&
                               !baseline.parts.empty() &&
                               baseline.parts == pipelined.parts;
  // Both runs shuffle through the same path, so each reduce folds at least
  // one run per map either way. The overlap itself is proven by the
  // shuffle-share and speedup gates below.
  const int64_t runs_expected =
      static_cast<int64_t>(baseline.maps_total) * kReducers;
  const bool every_run_folded = baseline.pipelined_runs >= runs_expected &&
                                pipelined.pipelined_runs >= runs_expected &&
                                pipelined.pipelined_bytes > 0;
  const bool share_shrank = pipelined.shuffle_share < baseline.shuffle_share;

  std::printf("slow-map zipf wordcount, %u maps x %d reducers:\n",
              baseline.maps_total, kReducers);
  std::printf("  slowstart=1.0   %5lld ms  shuffle %4.1f%% of critical "
              "path  (%lld shuffled runs)\n",
              static_cast<long long>(baseline.wall_ms),
              100.0 * baseline.shuffle_share,
              static_cast<long long>(baseline.pipelined_runs));
  std::printf("  slowstart=0.05  %5lld ms  shuffle %4.1f%% of critical "
              "path  (%lld shuffled runs, %lld bytes)\n",
              static_cast<long long>(pipelined.wall_ms),
              100.0 * pipelined.shuffle_share,
              static_cast<long long>(pipelined.pipelined_runs),
              static_cast<long long>(pipelined.pipelined_bytes));
  std::printf("  speedup %.2fx, outputs byte-identical: %s, shuffle share "
              "shrank: %s\n",
              speedup, bytes_identical ? "yes" : "NO",
              share_shrank ? "yes" : "NO");

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"bench\": \"pipelined_shuffle\",\n"
       << "  \"maps_total\": " << baseline.maps_total << ",\n"
       << "  \"baseline_ms\": " << baseline.wall_ms << ",\n"
       << "  \"pipelined_ms\": " << pipelined.wall_ms << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"baseline_shuffle_share\": " << baseline.shuffle_share << ",\n"
       << "  \"pipelined_shuffle_share\": " << pipelined.shuffle_share
       << ",\n"
       << "  \"pipelined_runs\": " << pipelined.pipelined_runs << ",\n"
       << "  \"pipelined_bytes\": " << pipelined.pipelined_bytes << ",\n"
       << "  \"outputs_byte_identical\": "
       << (bytes_identical ? "true" : "false") << ",\n"
       << "  \"phases_partition_wall_clock\": "
       << (baseline.phases_partition && pipelined.phases_partition
               ? "true"
               : "false")
       << "\n}\n";
  json.close();
  std::printf("wrote %s\n", out_path.c_str());

  if (!baseline.succeeded || !pipelined.succeeded) return 1;
  if (!bytes_identical) return 1;
  if (!every_run_folded) return 1;
  if (!baseline.phases_partition || !pipelined.phases_partition) return 1;
  if (!share_shrank) return 1;
  if (speedup < 1.3) return 1;
  return 0;
}
