// The three workloads. Each one sets up its cluster several times (set-up
// is itself a metric), runs one client in a closed loop for the requested
// time, checks every answer against an oracle, and reports either the
// end-to-end metrics (untraced run) or the per-layer ones (traced run).
//
//   classroom-wc  the paper's first lab as students run it: WordCount with
//                 its combiner, 3 reducers, a ~2 MiB corpus in 64 KiB blocks
//                 on the default 3-node cluster. Heartbeat-bound.
//   bulk-wc       plain WordCount over ~64 MiB staged in 16 MiB blocks, so
//                 4 maps run in one wave. Collect/sort/spill-bound.
//   hdfs-staging  no MapReduce: put ~1 MiB files, get them back, and small
//                 namespace operations, on a journaling NameNode.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "mh/apps/wordcount.h"
#include "mh/common/stats.h"
#include "mh/common/stopwatch.h"
#include "mh/common/trace_analysis.h"
#include "mh/data/text_corpus.h"
#include "mh/hdfs/edit_log.h"
#include "mh/mr/local_runner.h"
#include "mh/mr/mini_mr_cluster.h"

namespace perfbench {
namespace {

using namespace mh;
namespace fs = std::filesystem;

constexpr uint32_t kReducers = 3;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
/// Floor on closed-loop operations per measured window, so a slow machine
/// still yields a median.
constexpr int kMinOps = 3;

/// A JSON string literal (run metadata holds paths from the environment).
std::string json(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

std::string partName(uint32_t partition) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "part-%05u", partition);
  return buf;
}

uint64_t countLines(std::string_view text) {
  return static_cast<uint64_t>(std::count(text.begin(), text.end(), '\n'));
}

std::vector<std::string_view> slice(std::string_view data, size_t piece,
                                    size_t max_pieces) {
  std::vector<std::string_view> pieces;
  for (size_t off = 0; off < data.size() && pieces.size() < max_pieces;
       off += piece) {
    pieces.push_back(data.substr(off, piece));
  }
  return pieces;
}

/// Blocks deleted from the namespace leave the DataNodes on later
/// heartbeats; sample the resident-bytes gauges until four readings 50 ms
/// apart agree (longer than one 100 ms DataNode heartbeat), at most ~3 s.
double settledResidentBytes(MetricsRegistry& root) {
  double last = -1;
  for (int i = 0, same = 0; i < 60 && same < 4; ++i) {
    const double now = residentBytes(root);
    same = now == last ? same + 1 : 0;
    last = now;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return last;
}

/// Sample count and the highest of p99/p90/p75 with at least ten samples
/// above it, as run metadata next to the median `op_ms`.
std::string latencyTail(const std::vector<double>& ms) {
  std::string out = "{\"ops\": " + std::to_string(ms.size());
  for (const double p : {99.0, 90.0, 75.0}) {
    if (static_cast<double>(ms.size()) * (100 - p) / 100 >= 10) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), ", \"p%.0f_ms\": %.6g", p,
                    percentile(ms, p));
      out += buf;
      break;
    }
  }
  return out + "}";
}

// ---- job-scoped per-layer metrics -----------------------------------------

/// Signals derived from one job's JobHistory (milliseconds since submit).
struct HistorySignals {
  double first_task_ms = 0;
  double reduce_tail_ms = 0;
  double map_ms_p50 = 0;
  double reduce_ms_p50 = 0;
};

HistorySignals fromHistory(const mr::JobHistory& history) {
  HistorySignals s;
  std::vector<double> map_ms, reduce_ms;
  int64_t first_map_start = history.finish_ms;
  int64_t last_map_finish = 0;
  for (const auto& a : history.attempts) {
    if (a.is_map) first_map_start = std::min(first_map_start, a.start_ms);
    if (!a.finished || !a.succeeded) continue;
    (a.is_map ? map_ms : reduce_ms)
        .push_back(static_cast<double>(a.finish_ms - a.start_ms));
    if (a.is_map) last_map_finish = std::max(last_map_finish, a.finish_ms);
  }
  s.first_task_ms = static_cast<double>(first_map_start);
  s.reduce_tail_ms = static_cast<double>(history.finish_ms - last_map_finish);
  s.map_ms_p50 = median(map_ms);
  s.reduce_ms_p50 = median(reduce_ms);
  return s;
}

/// Slot idle time of one traced job, ms: on each TaskTracker, every task
/// span's end is paired with the earliest later start of a task of the same
/// kind there. A later start means the job still had unassigned work when
/// the slot freed, so the gap is a usable slot waiting for a heartbeat to
/// report the finish and hand out the next task. JobHistory cannot show
/// this gap: the JobTracker stamps attempts at assignment and at the
/// completion report, both on the same heartbeats, so in the history a
/// freed slot is refilled at once. The tasks' own spans show when the work
/// really ran.
double slotIdleMs(const std::vector<TraceEvent>& events, uint64_t trace_id) {
  std::map<std::pair<std::string, bool>, std::vector<int64_t>> ends, starts;
  for (const auto& e : events) {
    if (e.trace_id != trace_id || !e.span ||
        !e.component.starts_with("tasktracker.")) {
      continue;
    }
    const bool is_map = e.name.starts_with("MAP ");
    if (!is_map && !e.name.starts_with("REDUCE ")) continue;
    starts[{e.component, is_map}].push_back(e.ts_us);
    ends[{e.component, is_map}].push_back(e.ts_us + e.dur_us);
  }
  int64_t idle_us = 0;
  for (auto& [slot, slot_ends] : ends) {
    std::vector<int64_t>& begins = starts[slot];
    std::sort(slot_ends.begin(), slot_ends.end());
    std::sort(begins.begin(), begins.end());
    auto next = begins.begin();
    for (const int64_t end : slot_ends) {
      next = std::lower_bound(next, begins.end(), end);
      if (next == begins.end()) break;
      idle_us += *next - end;
      ++next;
    }
  }
  return static_cast<double>(idle_us) / 1000;
}

/// What the traced half of a run learns from each job's span tree.
struct TracedJob {
  CriticalPathReport path;
  double slot_idle_ms = 0;
};

/// Job-scoped per-layer metrics: JobHistory-derived jt.*/task.*, job
/// counters, and, from the traced jobs, slot idle time and critical-path
/// shares. With no jobs (hdfs-staging) every one of them reads 0: there is
/// no job and no job critical path.
void addJobMetrics(const std::vector<mr::JobResult>& jobs,
                   const std::vector<TracedJob>& traced, Outcome& out) {
  std::vector<double> idle, first, tail, map_p50, reduce_p50;
  for (const auto& job : traced) idle.push_back(job.slot_idle_ms);
  for (const auto& job : jobs) {
    const HistorySignals s = fromHistory(job.history);
    first.push_back(s.first_task_ms);
    tail.push_back(s.reduce_tail_ms);
    map_p50.push_back(s.map_ms_p50);
    reduce_p50.push_back(s.reduce_ms_p50);
  }
  out.add("jt.slot_idle_ms", median(idle), "ms");
  out.add("jt.first_task_ms", median(first), "ms");
  out.add("jt.reduce_tail_ms", median(tail), "ms");
  out.add("task.map_ms_p50", median(map_p50), "ms");
  out.add("task.reduce_ms_p50", median(reduce_p50), "ms");

  namespace c = mr::counters;
  const std::pair<const char*, const char*> counters[] = {
      {c::kTaskGroup, c::kMapSpills},
      {c::kTaskGroup, c::kSpilledRecords},
      {c::kTaskGroup, c::kMergeSegments},
      {c::kShuffleGroup, c::kShuffleFetchMillis},
      {c::kShuffleGroup, c::kShufflePipelinedRuns}};
  for (const auto& [group, name] : counters) {
    std::vector<double> values;
    for (const auto& job : jobs) {
      values.push_back(static_cast<double>(job.counters.value(group, name)));
    }
    out.add(std::string("counter.") + name, median(values),
            std::string_view(name).ends_with("MILLIS") ? "ms" : "count");
  }
  std::vector<double> shuffle;
  for (const auto& job : jobs) {
    shuffle.push_back(static_cast<double>(
        job.counters.value(c::kShuffleGroup, c::kShuffleBytes)));
  }
  out.add("shuffle_bytes", median(shuffle), "bytes");

  for (const char* phase : kTracePhases) {
    std::vector<double> shares;
    for (const auto& job : traced) {
      if (job.path.total_us > 0) {
        shares.push_back(static_cast<double>(job.path.phaseMicros(phase)) /
                         static_cast<double>(job.path.total_us));
      }
    }
    out.add(std::string("cp.") + phase, median(shares), "share");
  }
}

/// Run metadata shared by every workload: how the numbers were produced.
void addBuildMeta(const Args& args, Outcome& out) {
#ifdef __OPTIMIZE__
  constexpr bool kOptimized = true;
#else
  constexpr bool kOptimized = false;
#endif
  if (!kOptimized) {
    std::fprintf(stderr,
                 "WARNING: perfbench was built without optimisation; its "
                 "timings do not describe the shipping code\n");
  }
  out.meta.emplace_back("workload", json(args.workload));
  out.meta.emplace_back("seed", std::to_string(args.seed));
  out.meta.emplace_back("seconds", std::to_string(args.seconds));
  out.meta.emplace_back("trace", args.trace ? "true" : "false");
  out.meta.emplace_back("build_type", json(MH_BUILD_TYPE));
  out.meta.emplace_back("optimized", kOptimized ? "true" : "false");
  out.meta.emplace_back("nproc",
                        std::to_string(std::thread::hardware_concurrency()));
  out.meta.emplace_back("load", json("closed loop, 1 client, 1 op in flight"));
}

/// The cluster settings the workload runs under, as the daemons resolve
/// them: explicit entries win, otherwise the engine's defaults.
std::string effectiveConfig(const Config& conf,
                            std::vector<std::pair<std::string, std::string>>
                                extra) {
  const auto value = [&](const char* key, const char* def) {
    return json(conf.get(key, def));
  };
  std::vector<std::pair<std::string, std::string>> entries = {
      {"dfs.blocksize", value("dfs.blocksize", "65536")},
      {"dfs.replication", value("dfs.replication", "3")},
      {"dfs.heartbeat.interval.ms", value("dfs.heartbeat.interval.ms", "100")},
      {"dfs.namenode.name.dir", value("dfs.namenode.name.dir", "")},
      {"dfs.namenode.edits.sync", value("dfs.namenode.edits.sync", "always")},
      {"mapred.tasktracker.heartbeat.ms",
       value("mapred.tasktracker.heartbeat.ms", "50")},
      {"mapred.tasktracker.map.tasks.maximum",
       value("mapred.tasktracker.map.tasks.maximum", "2")},
      {"mapred.tasktracker.reduce.tasks.maximum",
       value("mapred.tasktracker.reduce.tasks.maximum", "1")},
      {"mapred.reduce.slowstart.completed.maps",
       value("mapred.reduce.slowstart.completed.maps", "0.05")},
      {"io.sort.mb", value("io.sort.mb", "32")}};
  for (auto& e : extra) entries.push_back(std::move(e));
  std::string out = "{";
  for (size_t i = 0; i < entries.size(); ++i) {
    out += (i ? ", " : "") + json(entries[i].first) + ": " + entries[i].second;
  }
  return out + "}";
}

// ---- MapReduce workloads --------------------------------------------------

struct MrShape {
  uint64_t corpus_bytes;
  size_t vocabulary;
  bool combiner;
  /// Staging block size; 0 keeps the cluster default (64 KiB).
  uint64_t block_size;
};

constexpr MrShape kClassroom{2 << 20, 5000, true, 0};
constexpr MrShape kBulk{64 << 20, 20000, false, 16 << 20};

Bytes generateCorpus(const MrShape& shape, uint64_t seed) {
  return data::TextCorpusGenerator({.seed = seed,
                                    .vocabulary_size = shape.vocabulary,
                                    .target_bytes = shape.corpus_bytes})
      .generate();
}

mr::JobSpec wordCount(const MrShape& shape, const std::string& input,
                      const std::string& output) {
  return apps::makeWordCountJob({input}, output, shape.combiner, kReducers);
}

/// The serial LocalJobRunner's part files for the same input — the oracle
/// every cluster job must match byte for byte. Computed once per run,
/// outside setup_s.
std::vector<Bytes> localOracle(const MrShape& shape, const Bytes& corpus,
                               const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir / "in");
  std::ofstream(dir / "in" / "corpus.txt", std::ios::binary) << corpus;
  mr::LocalFs local;
  const mr::JobResult result = mr::LocalJobRunner(local).run(
      wordCount(shape, (dir / "in").string(), (dir / "out").string()));
  if (!result.succeeded()) {
    throw std::runtime_error("local oracle job failed: " + result.error);
  }
  std::vector<Bytes> parts;
  for (uint32_t p = 0; p < kReducers; ++p) {
    const std::string path = (dir / "out" / partName(p)).string();
    parts.push_back(local.readRange(path, 0, local.fileLength(path)));
  }
  fs::remove_all(dir);
  return parts;
}

/// Client-side costs of checking and clearing one job's output.
struct OutputCheck {
  bool ok = true;
  double get_s = 0;
  uint64_t get_bytes = 0;
  double meta_s = 0;
  int meta_ops = 0;
};

/// Lists the output directory (it must hold exactly the part files), reads
/// every part back and compares it to the oracle, then deletes the
/// directory, as a student clears /out before the next run.
OutputCheck checkAndClearOutput(hdfs::DfsClient& client, const std::string& dir,
                                const std::vector<Bytes>& oracle) {
  OutputCheck check;
  Stopwatch list_watch;
  const auto listing = client.listStatus(dir);
  check.meta_s += list_watch.elapsedSeconds();
  std::vector<std::string> names;
  for (const auto& status : listing) names.push_back(status.path);
  std::sort(names.begin(), names.end());
  std::vector<std::string> expected;
  for (uint32_t p = 0; p < kReducers; ++p) {
    expected.push_back(dir + "/" + partName(p));
  }
  check.ok = names == expected;
  for (uint32_t p = 0; p < kReducers && check.ok; ++p) {
    Stopwatch get_watch;
    const Bytes part = client.readFile(expected[p]);
    check.get_s += get_watch.elapsedSeconds();
    check.get_bytes += part.size();
    check.ok = part == oracle[p];
  }
  Stopwatch remove_watch;
  client.remove(dir, /*recursive=*/true);
  check.meta_s += remove_watch.elapsedSeconds();
  check.meta_ops = 2;
  return check;
}

struct JobSample {
  double ms = 0;
  mr::JobResult result;
  OutputCheck output;
};

class MrRunner {
 public:
  MrRunner(const MrShape& shape, const Args& args, Outcome& out)
      : shape_(shape), args_(args), out_(out) {}

  void run() {
    Stopwatch generate_watch;
    corpus_ = generateCorpus(shape_, args_.seed);
    const double generate_s = generate_watch.elapsedSeconds();
    oracle_ = localOracle(shape_, corpus_, args_.work_dir / "local-oracle");

    std::vector<double> setup_s;
    for (int i = 0; i < (args_.trace ? 1 : kSetups); ++i) {
      setup_s.push_back(setUp());
    }
    out_.meta.emplace_back("input_bytes", std::to_string(corpus_.size()));
    out_.meta.emplace_back("input_records",
                           std::to_string(countLines(corpus_)));
    out_.meta.emplace_back("corpus_generate_s", std::to_string(generate_s));
    out_.meta.emplace_back(
        "cluster_config",
        effectiveConfig(cluster_->conf(),
                        {{"input_block_size",
                          std::to_string(shape_.block_size ? shape_.block_size
                                                           : 65536)},
                         {"combiner", shape_.combiner ? "true" : "false"},
                         {"reducers", std::to_string(kReducers)},
                         {"nodes", "3"}}));

    if (!args_.trace) {
      const std::vector<JobSample> jobs = loop(args_.seconds);
      std::vector<double> ms;
      for (const auto& job : jobs) ms.push_back(job.ms);
      out_.meta.emplace_back("op_ms_samples", latencyTail(ms));
      out_.add("setup_s", median(setup_s), "s");
      out_.add("op_ms", median(ms), "ms");
      out_.add("peak_rss_mb", peakRssMb(), "MB");
      return;
    }
    traced();
  }

 private:
  /// Cluster start, input generation and staging, and one warm-up job.
  double setUp() {
    cluster_.reset();
    Stopwatch watch;
    cluster_ = std::make_unique<mr::MiniMrCluster>();
    corpus_ = generateCorpus(shape_, args_.seed);
    auto client = cluster_->client();
    Stopwatch put_watch;
    client.writeFile("/in/corpus.txt", corpus_, 0, shape_.block_size);
    put_s_ = put_watch.elapsedSeconds();
    // Warm-up inside set-up: the first job on a fresh cluster runs ~1.7x
    // slower (2153 ms vs ~1215 ms measured on a 32 MiB job), so timing it
    // would make job latency depend on how many jobs a run fits.
    JobSample warm = runJob("/warmup");
    const double seconds = watch.elapsedSeconds();
    checkJob(warm, "/warmup", "warm-up job");
    return seconds;
  }

  JobSample runJob(const std::string& dir) {
    JobSample sample;
    Stopwatch watch;
    sample.result = cluster_->runJob(wordCount(shape_, "/in", dir));
    sample.ms = static_cast<double>(watch.elapsedMicros()) / 1000;
    return sample;
  }

  void checkJob(JobSample& sample, const std::string& dir,
                std::string_view what) {
    auto client = cluster_->client();
    if (sample.result.succeeded()) {
      sample.output = checkAndClearOutput(client, dir, oracle_);
    } else {
      sample.output.ok = false;
      std::fprintf(stderr, "job failed: %s\n", sample.result.error.c_str());
    }
    out_.check(sample.output.ok,
               std::string(what) + " output == LocalJobRunner output");
  }

  /// Closed loop: one job in flight; the next is submitted once the
  /// previous one finished and its output was checked and cleared.
  std::vector<JobSample> loop(double seconds,
                              std::vector<TracedJob>* traced = nullptr) {
    std::vector<JobSample> jobs;
    Stopwatch window;
    while (window.elapsedSeconds() < seconds ||
           static_cast<int>(jobs.size()) < kMinOps) {
      const std::string dir = "/out/j" + std::to_string(jobs_run_++);
      if (traced != nullptr) cluster_->tracer().clear();
      JobSample sample = runJob(dir);
      if (traced != nullptr) {
        const auto events = cluster_->tracer().snapshot();
        const uint64_t id = sample.result.trace_id;
        traced->push_back(
            {computeCriticalPath(events, id), slotIdleMs(events, id)});
        out_.check(traced->back().path.found &&
                       cluster_->tracer().droppedEvents() == 0,
                   "traced job has a complete span tree");
      }
      checkJob(sample, dir, "job");
      jobs.push_back(std::move(sample));
    }
    return jobs;
  }

  void traced() {
    auto& network = *cluster_->network();
    // Untraced half: latency baseline plus the registry/fabric/JobHistory
    // signals, unperturbed by span recording.
    const SignalSnapshot before = snapshotSignals(network);
    const std::vector<JobSample> plain = loop(args_.seconds / 2);
    const SignalSnapshot after = snapshotSignals(network);

    // Traced half: critical-path shares per job.
    cluster_->tracer().setEnabled(true);
    std::vector<TracedJob> spans;
    const std::vector<JobSample> traced_jobs = loop(args_.seconds / 2, &spans);
    cluster_->tracer().setEnabled(false);

    std::vector<mr::JobResult> results;
    std::vector<double> plain_ms, traced_ms;
    OutputCheck io;
    for (const auto& job : plain) {
      results.push_back(job.result);
      plain_ms.push_back(job.ms);
      io.get_s += job.output.get_s;
      io.get_bytes += job.output.get_bytes;
      io.meta_s += job.output.meta_s;
      io.meta_ops += job.output.meta_ops;
    }
    for (const auto& job : traced_jobs) traced_ms.push_back(job.ms);

    addJobMetrics(results, spans, out_);
    addSignalMetrics(before, after, static_cast<int64_t>(plain.size()), out_);
    out_.add("trace.overhead", median(traced_ms) / median(plain_ms), "ratio");
    out_.add("dfs.put_mb_s", static_cast<double>(corpus_.size()) / put_s_ / 1e6,
             "MB/s");
    out_.add("dfs.get_mb_s", static_cast<double>(io.get_bytes) / io.get_s / 1e6,
             "MB/s");
    out_.add("nn.meta_ops_s", io.meta_ops / io.meta_s, "op/s");
    auto client = cluster_->client();
    const double resident = settledResidentBytes(cluster_->metrics());
    out_.add("stored_bytes_per_user_byte",
             resident / static_cast<double>(client.fsck().total_bytes),
             "ratio");

    // Layer section on this workload's data: its 64 KiB blocks (at most
    // 16 MiB of them) and its map splits (at most 8).
    const uint64_t split =
        shape_.block_size ? shape_.block_size : uint64_t{64 * 1024};
    mr::JobSpec spec = wordCount(shape_, "/in", "/out");
    spec.validateAndDefault();
    LayerInput input{.blocks = slice(corpus_, 64 * 1024, 256),
                     .splits = slice(corpus_, split, 8),
                     .spec = &spec,
                     .paths = {"/in/corpus.txt"},
                     .work_dir = args_.work_dir};
    for (uint32_t p = 0; p < kReducers; ++p) {
      input.paths.push_back("/out/" + partName(p));
    }
    measureLayers(input, out_);
  }

  const MrShape& shape_;
  const Args& args_;
  Outcome& out_;
  Bytes corpus_;
  std::vector<Bytes> oracle_;
  std::unique_ptr<mr::MiniMrCluster> cluster_;
  double put_s_ = 0;
  int jobs_run_ = 0;
};

// ---- hdfs-staging ----------------------------------------------------------

constexpr int kStagedFiles = 8;
constexpr uint64_t kStagedFileBytes = 1 << 20;
/// Staged files kept live; the oldest is deleted as each new one lands.
/// 64 rounds (~250 ms) outlast the NameNode's 50 ms replication monitor
/// plus a 100 ms DataNode heartbeat. With 8, files were deleted while a
/// re-replication command for a block still in its write pipeline was
/// queued; the DataNode heartbeat then failed with NotFoundError and about
/// 12% of deleted replicas stayed resident (peak RSS grew ~100 MB/s).
constexpr size_t kWindow = 64;
/// mkdirs, 1-byte create, rename, listStatus, delete.
constexpr int kMetaOpsPerRound = 5;

struct Round {
  uint64_t bytes = 0;  ///< Size of the file put, then read back.
  double put_s = 0;
  double get_s = 0;
  double meta_s = 0;
  double total_ms() const { return (put_s + get_s + meta_s) * 1000; }
};

class StagingRunner {
 public:
  StagingRunner(const Args& args, Outcome& out) : args_(args), out_(out) {}

  void run() {
    std::vector<double> setup_s;
    for (int i = 0; i < (args_.trace ? 1 : kSetups); ++i) {
      setup_s.push_back(setUp());
    }
    uint64_t bytes = 0, records = 0;
    for (const Bytes& file : files_) {
      bytes += file.size();
      records += countLines(file);
    }
    out_.meta.emplace_back("input_bytes", std::to_string(bytes));
    out_.meta.emplace_back("input_records", std::to_string(records));
    out_.meta.emplace_back(
        "cluster_config",
        effectiveConfig(cluster_->conf(),
                        {{"staged_files", std::to_string(kStagedFiles)},
                         {"live_window", std::to_string(kWindow)},
                         {"datanodes", "3"}}));

    if (!args_.trace) {
      const std::vector<Round> rounds = loop(args_.seconds);
      std::vector<double> ms;
      for (const Round& r : rounds) ms.push_back(r.total_ms());
      finalChecks();
      out_.meta.emplace_back("op_ms_samples", latencyTail(ms));
      out_.add("setup_s", median(setup_s), "s");
      out_.add("op_ms", median(ms), "ms");
      out_.add("peak_rss_mb", peakRssMb(), "MB");
      return;
    }
    traced();
  }

 private:
  fs::path nameDir() const { return args_.work_dir / "namenode"; }

  /// Cluster start (fresh journal), file generation, and warm-up rounds
  /// until the live window is full.
  double setUp() {
    cluster_.reset();
    fs::remove_all(nameDir());
    live_.clear();
    rounds_ = 0;
    Stopwatch watch;
    Config conf;
    // A deployment path, not a tuning knob: journaling on, fresh per set-up.
    conf.set("dfs.namenode.name.dir", nameDir().string());
    cluster_ = std::make_unique<hdfs::MiniDfsCluster>(
        hdfs::MiniDfsOptions{.num_datanodes = 3, .conf = conf});
    files_.clear();
    for (int f = 0; f < kStagedFiles; ++f) {
      files_.push_back(
          data::TextCorpusGenerator({.seed = args_.seed * 1000 + f + 1,
                                     .target_bytes = kStagedFileBytes})
              .generate());
    }
    // Warm-up fills the live window, so every measured round does the same
    // five namespace operations, its delete included.
    while (live_.size() < kWindow) round();
    return watch.elapsedSeconds();
  }

  /// One closed-loop round: put a file, get it back, then the namespace
  /// burst. Every answer is checked against the workload's own model.
  Round round() {
    auto client = cluster_->client();
    const int r = rounds_++;
    const Bytes& data = files_[r % kStagedFiles];
    const std::string path = "/stage/f" + std::to_string(r);
    Round timing{.bytes = data.size()};

    Stopwatch put_watch;
    client.writeFile(path, data);
    timing.put_s = put_watch.elapsedSeconds();
    live_.push_back(path);

    Stopwatch get_watch;
    const Bytes back = client.readFile(path);
    timing.get_s = get_watch.elapsedSeconds();
    out_.check(back == data, "staged file reads back byte-identical");

    const std::string dir = "/ns/r" + std::to_string(r);
    Stopwatch meta_watch;
    client.mkdirs(dir);
    client.writeFile(dir + "/a", "x");
    client.rename(dir + "/a", dir + "/b");
    const auto listing = client.listStatus(dir);
    if (live_.size() > kWindow) {
      client.remove(live_.front(), /*recursive=*/false);
      live_.pop_front();
    }
    timing.meta_s = meta_watch.elapsedSeconds();
    out_.check(listing.size() == 1 && listing[0].path == dir + "/b" &&
                   listing[0].length == 1,
               "listStatus after rename matches the model");
    return timing;
  }

  std::vector<Round> loop(double seconds) {
    std::vector<Round> rounds;
    Stopwatch window;
    while (window.elapsedSeconds() < seconds ||
           static_cast<int>(rounds.size()) < kMinOps) {
      rounds.push_back(round());
    }
    return rounds;
  }

  /// End-of-run oracles: fsck healthy at full replication, the namespace
  /// matches the model, and the journal replays to the same file count.
  void finalChecks() {
    auto client = cluster_->client();
    const bool settled = cluster_->waitHealthy();
    const hdfs::FsckReport report = client.fsck();
    out_.check(settled && report.healthy && report.under_replicated == 0,
               "fsck healthy at full replication");

    std::vector<std::string> staged;
    for (const auto& status : client.listStatus("/stage")) {
      staged.push_back(status.path);
    }
    std::vector<std::string> model(live_.begin(), live_.end());
    std::sort(staged.begin(), staged.end());
    std::sort(model.begin(), model.end());
    // Live staged files plus one tiny file per round.
    const uint64_t expected_files =
        live_.size() + static_cast<uint64_t>(rounds_);
    out_.check(staged == model && report.total_files == expected_files,
               "namespace listing matches the workload model");

    const hdfs::LoadedStorage loaded = hdfs::EditLog::load(nameDir());
    hdfs::Namespace ns = loaded.image.empty()
                             ? hdfs::Namespace()
                             : hdfs::Namespace::loadImage(loaded.image);
    hdfs::replayEdits(ns, loaded.edits, loaded.image_txn);
    out_.check(ns.fileCount() == report.total_files,
               "edit log replays to the live file count");
  }

  void traced() {
    auto& network = *cluster_->network();
    const SignalSnapshot before = snapshotSignals(network);
    const std::vector<Round> plain = loop(args_.seconds / 2);
    const SignalSnapshot after = snapshotSignals(network);
    cluster_->tracer().setEnabled(true);
    const std::vector<Round> traced_rounds = loop(args_.seconds / 2);
    cluster_->tracer().setEnabled(false);
    finalChecks();

    std::vector<double> plain_ms, traced_ms;
    double put_s = 0, get_s = 0, meta_s = 0, bytes = 0;
    for (const Round& r : plain) {
      plain_ms.push_back(r.total_ms());
      bytes += static_cast<double>(r.bytes);
      put_s += r.put_s;
      get_s += r.get_s;
      meta_s += r.meta_s;
    }
    for (const Round& r : traced_rounds) traced_ms.push_back(r.total_ms());
    const double n = static_cast<double>(plain.size());

    addJobMetrics({}, {}, out_);
    addSignalMetrics(before, after, static_cast<int64_t>(plain.size()), out_);
    out_.add("trace.overhead", median(traced_ms) / median(plain_ms), "ratio");
    out_.add("dfs.put_mb_s", bytes / put_s / 1e6, "MB/s");
    out_.add("dfs.get_mb_s", bytes / get_s / 1e6, "MB/s");
    out_.add("nn.meta_ops_s", n * kMetaOpsPerRound / meta_s, "op/s");
    auto client = cluster_->client();
    const double resident = settledResidentBytes(cluster_->metrics());
    out_.add("stored_bytes_per_user_byte",
             resident / static_cast<double>(client.fsck().total_bytes),
             "ratio");

    std::vector<std::string_view> whole(files_.begin(), files_.end());
    std::vector<std::string_view> blocks;
    for (const auto file : whole) {
      for (const auto block : slice(file, 64 * 1024, SIZE_MAX)) {
        blocks.push_back(block);
      }
    }
    mr::JobSpec spec =
        apps::makeWordCountJob({"/stage"}, "/out", false, kReducers);
    spec.validateAndDefault();
    LayerInput input{.blocks = blocks,
                     .splits = whole,
                     .spec = &spec,
                     .replay_dir = nameDir(),
                     .work_dir = args_.work_dir};
    for (int f = 0; f < kStagedFiles; ++f) {
      input.paths.push_back("/stage/f" + std::to_string(f));
    }
    measureLayers(input, out_);
  }

  const Args& args_;
  Outcome& out_;
  std::vector<Bytes> files_;
  std::unique_ptr<hdfs::MiniDfsCluster> cluster_;
  std::deque<std::string> live_;
  int rounds_ = 0;
};

}  // namespace

Outcome runClassroomWc(const Args& args) {
  Outcome out;
  addBuildMeta(args, out);
  MrRunner(kClassroom, args, out).run();
  return out;
}

Outcome runBulkWc(const Args& args) {
  Outcome out;
  addBuildMeta(args, out);
  MrRunner(kBulk, args, out).run();
  return out;
}

Outcome runHdfsStaging(const Args& args) {
  Outcome out;
  addBuildMeta(args, out);
  StagingRunner(args, out).run();
  return out;
}

}  // namespace perfbench
