#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mh/common/buffer.h"
#include "mh/common/bytes.h"
#include "mh/common/error.h"
#include "mh/common/metrics.h"
#include "mh/common/trace.h"
#include "mh/mr/types.h"

/// \file map_output_store.h
/// Per-TaskTracker storage for finished map tasks' partition outputs. Each
/// (map, partition) output is one buffer holding the map's sorted segments
/// and their length table (kv_stream.h). Reduce tasks fetch from here over
/// the network (the shuffle); the JobTracker tells trackers to purge a
/// job's outputs once it finishes.
///
/// Runs are held behind shared_ptr so serving a fetch only bumps a
/// refcount under the store mutex; the (simulated) wire copy happens on the
/// caller's thread, and a concurrent purge cannot pull the buffer out from
/// under an in-flight fetch.
///
/// A map output is stored, served and fetched as the same bytes, and
/// serving never asks which codec framed them: when the job's map-output
/// codec (`mapred.map.output.compression.codec`) is on, each segment was
/// encoded once at spill time, ships as stored, and is decoded once by the
/// reducer on arrival. Only the in-node combine, which merges stored
/// segments, decodes and re-encodes.
///
/// One request shape serves every shuffle fetch: a reducer names the maps
/// it expects from this node and one partition (`serve`). One named map is
/// served as stored, a zero-copy view. Several named maps are **in-node
/// combining** (`mapred.innode.combine`, a job conf key; it needs the
/// attachments from `attach()`): the store merges their outputs for the
/// partition through the job's combiner, so the reducer fetches one run
/// per *node* instead of one per map. Nothing is combined at put time and
/// nothing is cached: each request merges exactly the named maps' current
/// outputs, so a re-executed or speculative attempt that replaced its slot
/// contributes exactly once, and a map that re-ran elsewhere is never
/// served twice from two nodes. Only combiner jobs combine in-node, so
/// every map output it merges holds one segment; a multi-segment output
/// there is an IllegalStateError.

namespace mh::mr {

class JobRegistry;
struct JobSpec;

class MapOutputStore {
 public:
  MapOutputStore() = default;
  MapOutputStore(const MapOutputStore&) = delete;
  MapOutputStore& operator=(const MapOutputStore&) = delete;

  /// Wires the store into its owning tracker: job specs (combiner factory
  /// and conf seams), a metrics child for the `mapoutput.replaced.runs`
  /// and `innode.*` counters, and tracing for INNODE_COMBINE spans. A
  /// detached store (tests) behaves like plain per-map storage.
  void attach(JobRegistry* registry, MetricsRegistry* metrics,
              TraceCollector* trace, std::string trace_component);

  /// Installs (or replaces — speculative duplicates and re-executions) one
  /// map's per-partition runs. A replacement bumps the
  /// `mapoutput.replaced.runs` counter.
  void put(JobId job, uint32_t map_index, std::vector<Bytes> partitions);

  /// Partition `partition` of the outputs of `maps` (any order, not
  /// empty): one map's output exactly as stored, as a zero-copy view, or
  /// several maps' outputs merged through the combiner into one run, built
  /// for this request and not kept. A merge counts in the
  /// `innode.combined.runs`, `innode.records.in/out` and
  /// `innode.bytes.saved` counters. An absent map (purged, or lost with a
  /// tracker restart) throws NotFoundError naming it (`missingMapMessage`),
  /// so the fetcher blames the right map for re-execution.
  BufferView serve(JobId job, uint32_t partition, std::vector<uint32_t> maps);

  void purgeJob(JobId job);

  /// The jobs this store holds outputs for, ascending.
  std::vector<JobId> jobIds() const;

  void clear();

  /// O(1): a running total of the per-map stored runs, maintained by
  /// put/purgeJob/clear, so gauge reads never walk the store while shuffle
  /// fetches contend for the mutex.
  uint64_t totalBytes() const;

 private:
  /// One finished map attempt's output: per-partition runs in stored form
  /// (encoded when the job's map-output codec is on), by map index.
  using MapRuns = std::vector<std::shared_ptr<const Bytes>>;
  using JobSlots = std::map<uint32_t, MapRuns>;

  static uint64_t runsBytes(const MapRuns& runs);

  std::shared_ptr<const JobSpec> specFor(JobId job) const;
  /// The map's stored runs; nullptr when it has no output here.
  const MapRuns* findLocked(JobId job, uint32_t map_index) const;

  /// Merges `runs` (one per map, canonical order) through `spec`'s
  /// combiner into one stored-form run, and meters the merge. Throws
  /// IllegalStateError when the job has no combiner.
  std::shared_ptr<const Bytes> combineRuns(
      JobId job, const JobSpec* spec, const std::vector<uint32_t>& maps,
      const std::vector<std::shared_ptr<const Bytes>>& runs);

  mutable std::mutex mutex_;
  std::map<JobId, JobSlots> jobs_;
  uint64_t total_bytes_ = 0;

  JobRegistry* registry_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  TraceCollector* trace_ = nullptr;
  std::string component_ = "mapoutputstore";
  Counter* replaced_runs_ = nullptr;
  Counter* combined_runs_ = nullptr;
  Counter* bytes_saved_ = nullptr;
  Counter* records_in_ = nullptr;
  Counter* records_out_ = nullptr;
};

}  // namespace mh::mr
