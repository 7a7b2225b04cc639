// Readers for the signals the cluster already exposes: the metrics
// registry's RPC histograms, the fabric's per-tag traffic, the DataNodes'
// resident-bytes gauges, plus the process's peak RSS.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "bench.h"

namespace perfbench {

void Outcome::check(bool ok, std::string_view what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "ORACLE FAILED: %.*s\n", static_cast<int>(what.size()),
                 what.data());
  }
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : (samples[mid - 1] + samples[mid]) / 2;
}

HistogramWindow readHistogram(mh::MetricsRegistry& registry,
                              const std::string& name) {
  HistogramWindow window;
  window.buckets.assign(mh::LatencyHistogram::kBuckets, 0);
  if (!registry.hasHistogram(name)) return window;
  const mh::LatencyHistogram& histogram = registry.histogram(name);
  for (size_t i = 0; i < mh::LatencyHistogram::kBuckets; ++i) {
    window.buckets[i] = histogram.bucketCount(i);
    window.count += window.buckets[i];
  }
  return window;
}

double windowMedian(const HistogramWindow& before,
                    const HistogramWindow& after) {
  const uint64_t total = after.count - before.count;
  if (total == 0) return 0;
  const double rank = 0.5 * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t i = 0; i < after.buckets.size(); ++i) {
    const uint64_t in_bucket = after.buckets[i] - before.buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= rank) {
      using mh::LatencyHistogram;
      const double low = static_cast<double>(LatencyHistogram::bucketLow(i));
      const double high = static_cast<double>(LatencyHistogram::bucketHigh(i));
      const double fraction =
          (rank - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      return low + fraction * (high - low);
    }
    seen += in_bucket;
  }
  return 0;
}

SignalSnapshot snapshotSignals(mh::net::Network& network) {
  mh::MetricsRegistry& fabric = network.metrics().child("network");
  SignalSnapshot snapshot;
  for (const char* method : kRpcMethods) {
    snapshot.rpc.push_back(
        readHistogram(fabric, std::string("rpc.") + method + ".micros"));
  }
  snapshot.heartbeat = readHistogram(fabric, "rpc.heartbeat.micros");
  snapshot.traffic = network.stats();
  return snapshot;
}

void addSignalMetrics(const SignalSnapshot& before,
                      const SignalSnapshot& after, int64_t ops,
                      Outcome& out) {
  const double per_op = 1.0 / static_cast<double>(std::max<int64_t>(ops, 1));
  for (size_t i = 0; i < std::size(kRpcMethods); ++i) {
    const std::string name = std::string("rpc.") + kRpcMethods[i];
    out.add(name + ".p50_us", windowMedian(before.rpc[i], after.rpc[i]), "us");
    out.add(name + ".calls",
            static_cast<double>(after.rpc[i].count - before.rpc[i].count) *
                per_op,
            "calls/op");
  }
  // The method name "heartbeat" is shared by TaskTracker -> JobTracker and
  // DataNode -> NameNode beats, so this counts both kinds; the run says so.
  out.meta.emplace_back("heartbeat_note",
                        "\"rpc.heartbeat.calls_per_job counts DataNode and "
                        "TaskTracker beats: both use the method name "
                        "heartbeat\"");
  out.add("rpc.heartbeat.calls_per_job",
          static_cast<double>(after.heartbeat.count - before.heartbeat.count) *
              per_op,
          "calls/op");

  const auto traffic = [](const SignalSnapshot& s, const char* tag) {
    const auto it = s.traffic.find(tag);
    return it == s.traffic.end() ? mh::net::TrafficStats{} : it->second;
  };
  for (const char* tag : {"shuffle", "pipeline", "replication"}) {
    const double bytes = static_cast<double>(traffic(after, tag).remote_bytes -
                                             traffic(before, tag).remote_bytes);
    out.add(std::string("net.remote_mb.") + tag, bytes / 1e6 * per_op,
            "MB/op");
  }
  const double local_read = static_cast<double>(
      traffic(after, "read").local_bytes - traffic(before, "read").local_bytes);
  out.add("net.local_mb.read", local_read / 1e6 * per_op, "MB/op");
}

double residentBytes(mh::MetricsRegistry& root) {
  double total = 0;
  for (const std::string& child : root.childNames()) {
    if (child.starts_with("datanode.")) {
      total += root.child(child).gaugeValue("blockstore.resident.bytes");
    }
  }
  return total;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
