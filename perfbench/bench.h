#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mh/common/metrics.h"
#include "mh/mr/job.h"
#include "mh/net/network.h"

/// \file bench.h
/// Shared pieces of the scoreboard benchmark: the command-line arguments,
/// the result a workload hands back to main(), and the helpers that turn
/// cluster signals (registry histograms, fabric traffic, JobHistory) into
/// numbers. The load is always one client in a closed loop: the next job or
/// file operation starts only after the previous one returned.

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Work directory inside the checkout (local oracle, name dirs, probes).
  std::filesystem::path work_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports: the oracle tally (attempted/failed), the
/// metrics of the requested mode, and run metadata as pre-rendered JSON
/// values.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> meta;

  /// Tallies one oracle-checked operation; a failure is also explained on
  /// stderr so a wrong answer is never just a number.
  void check(bool ok, std::string_view what);
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

Outcome runClassroomWc(const Args& args);
Outcome runBulkWc(const Args& args);
Outcome runHdfsStaging(const Args& args);

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> samples);

// ---- cluster signals --------------------------------------------------------

/// Bucket counts of one registry histogram at a point in time, so a window
/// (the measured loop, not set-up) can be read as a difference.
struct HistogramWindow {
  std::vector<uint64_t> buckets;
  uint64_t count = 0;
};
HistogramWindow readHistogram(mh::MetricsRegistry& registry,
                              const std::string& name);
/// Median of the samples recorded between `before` and `after`, by linear
/// interpolation inside the log2 bucket that holds it (as
/// LatencyHistogram::percentile does); 0 when the window is empty.
double windowMedian(const HistogramWindow& before,
                    const HistogramWindow& after);

/// The RPC methods whose fabric latency the per-layer section reports.
inline constexpr const char* kRpcMethods[] = {
    "writeBlock", "readBlock", "addBlock", "create", "complete",
    "getBlockLocations"};

/// Registry and fabric state at one instant; two of them bracket the
/// measured loop.
struct SignalSnapshot {
  std::vector<HistogramWindow> rpc;  ///< One per kRpcMethods entry.
  HistogramWindow heartbeat;
  std::map<std::string, mh::net::TrafficStats> traffic;
};
SignalSnapshot snapshotSignals(mh::net::Network& network);

/// Adds rpc.*, net.remote_mb.* / net.local_mb.read and
/// rpc.heartbeat.calls_per_job for the window [before, after] over `ops`
/// operations.
void addSignalMetrics(const SignalSnapshot& before,
                      const SignalSnapshot& after, int64_t ops,
                      Outcome& out);

/// Sum of every DataNode's `blockstore.resident.bytes` gauge.
double residentBytes(mh::MetricsRegistry& root);

/// Peak resident set size of this process, MiB.
double peakRssMb();

// ---- per-layer direct calls ------------------------------------------------

/// The workload's own data, cut the way the layers see it.
struct LayerInput {
  /// The workload's bytes in 64 KiB pieces (HDFS's default block size).
  std::vector<std::string_view> blocks;
  /// Map splits as the job would read them; the first one feeds the
  /// MapOutputBuffer timing, all of them feed the merge timings.
  std::vector<std::string_view> splits;
  /// The workload's WordCount spec (combiner, reducer count).
  const mh::mr::JobSpec* spec = nullptr;
  /// File paths the workload creates, the shape of the edit-log probe.
  std::vector<std::string> paths;
  /// Journal to replay for editlog.replay_txn_s; empty: replay the probe's
  /// own journal (the MapReduce workloads run without journaling).
  std::filesystem::path replay_dir;
  std::filesystem::path work_dir;
};

/// Times the layers' public functions on `input` and appends net.call_*,
/// crc32c.*, codec.*, block_store.*, editlog.*, edits.*, mob.* and merge.*.
void measureLayers(const LayerInput& input, Outcome& out);

}  // namespace perfbench
