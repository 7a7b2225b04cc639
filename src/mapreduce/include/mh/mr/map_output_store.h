#pragma once

#include <functional>
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
#include "mh/mr/counters.h"
#include "mh/mr/types.h"

/// \file map_output_store.h
/// Per-TaskTracker storage for finished map tasks' partition outputs. Each
/// (map, partition) output is one buffer holding the map's sorted segments
/// and their length table (kv_stream.h), served whole as one zero-copy
/// view. Reduce tasks fetch from here over the network (the shuffle); the
/// JobTracker tells trackers to purge a job's outputs once it finishes.
///
/// Runs are held behind shared_ptr so serving a fetch only bumps a
/// refcount under the store mutex; the (simulated) wire copy happens on the
/// caller's thread, and a concurrent purge cannot pull the buffer out from
/// under an in-flight fetch.
///
/// A map output is stored, served and fetched as the same bytes: when the
/// job's map-output codec (`mapred.map.output.compression.codec`) is on,
/// each segment was encoded once at spill time, ships as stored, and is
/// decoded once by the reducer at merge input. The serving tracker never
/// encodes or decodes a plain map output.
///
/// Beyond plain per-map storage, the store is the home of **in-node
/// combining** (`mapred.innode.combine`, a job conf key; it needs the
/// attachments from `attach()`): when the job has a combiner, completed
/// maps' runs for the same job are merged node-locally (KvRunMerger +
/// combiner) into one consolidated run per partition, so a reducer fetches
/// one run per *node* instead of one per map. Indexing is generation-aware:
/// every `put()` bumps the slot's generation, and a combined run remembers
/// the exact (map, generation) set it was built from — a late, re-executed,
/// or speculative attempt invalidates the aggregate and contributes exactly
/// once to the next build. Reducers name the exact map set they expect
/// (`serveNodeOutput`), so a map that re-ran elsewhere is never served twice
/// from two nodes' aggregates. Only combiner jobs combine in-node, so every
/// map output it merges holds one segment; a multi-segment output there is
/// an IllegalStateError. Aggregates are charged to the tracker heap budget
/// via the `TryChargeFn`; over budget a build serves uncached.

namespace mh::mr {

class JobRegistry;
struct JobSpec;

class MapOutputStore {
 public:
  /// Heap-budget hook: charge `delta` bytes (negative releases). Returns
  /// false when the budget refuses the growth — the store then serves the
  /// node aggregate it built without caching it. Must never throw.
  using TryChargeFn = std::function<bool(int64_t)>;

  MapOutputStore() = default;
  ~MapOutputStore();
  MapOutputStore(const MapOutputStore&) = delete;
  MapOutputStore& operator=(const MapOutputStore&) = delete;

  /// Wires the store into its owning tracker: job specs (combiner factory
  /// and conf seams), a metrics child for the `mapoutput.replaced.runs` /
  /// `innode.combined.runs` / `innode.bytes.saved` counters, tracing for
  /// INNODE_COMBINE spans, and the heap-budget hook that bounds combined
  /// runs. A detached store (tests) behaves like plain per-map storage.
  void attach(JobRegistry* registry, MetricsRegistry* metrics,
              TraceCollector* trace, std::string trace_component,
              TryChargeFn try_charge);

  /// Installs (or replaces — speculative duplicates and re-executions) one
  /// map's per-partition runs. A replacement bumps the slot generation and
  /// the `mapoutput.replaced.runs` counter, and invalidates any node
  /// aggregate the prior attempt contributed to. When in-node combining is
  /// on for the job and the node holds runs from at least two maps, they
  /// are merged into the node aggregate here (the
  /// INNODE_COMBINE_* counters land in `counters`, typically the map
  /// task's, so attempt replacement keeps them exactly-once).
  void put(JobId job, uint32_t map_index, std::vector<Bytes> partitions,
           Counters* counters = nullptr);

  /// Throws NotFoundError when the output is absent (e.g. after a purge or
  /// tracker restart) — the fetch failure reduces report to the JobTracker.
  std::shared_ptr<const Bytes> get(JobId job, uint32_t map_index,
                                   uint32_t partition) const;

  bool has(JobId job, uint32_t map_index) const;

  /// Serve-side byte accounting for codec-framed map output: the raw and
  /// encoded sizes of the stored segments served. Both stay 0 when the
  /// serve shipped plain bytes.
  struct ServeStats {
    int64_t raw_bytes = 0;
    int64_t compressed_bytes = 0;
  };

  /// One map's output for `partition`, exactly as stored: a zero-copy view
  /// of the buffer. Stats count segment bytes, not the table.
  BufferView serveMapOutput(JobId job, uint32_t map_index, uint32_t partition,
                            ServeStats* stats = nullptr);

  /// The node-combined run for `partition` covering exactly `maps` — the
  /// in-node combine serve path. Uses the cached aggregate when its member
  /// generations are current, otherwise merges (combiner included) for the
  /// requested set. Throws NotFoundError naming the first absent map
  /// ("missing map=<i>") so the fetcher attributes the failure to the right
  /// map for re-execution.
  BufferView serveNodeOutput(JobId job, uint32_t partition,
                             const std::vector<uint32_t>& maps,
                             ServeStats* stats = nullptr);

  void purgeJob(JobId job);

  /// The jobs this store holds outputs for, ascending.
  std::vector<JobId> jobIds() const;

  void clear();

  /// O(1): a running total of the per-map stored runs, maintained by
  /// put/purgeJob/clear, so gauge reads never walk the store while shuffle
  /// fetches contend for the mutex.
  uint64_t totalBytes() const;

  /// Current slot generation, 0 when the map has no output here (test and
  /// diagnostic hook).
  uint64_t generation(JobId job, uint32_t map_index) const;

  /// Bytes currently charged to the heap budget for node aggregates (test
  /// and diagnostic hook).
  int64_t cachedBytes() const;

 private:
  /// One finished map attempt's output: per-partition runs in stored form
  /// (encoded when the job's map-output codec is on).
  struct MapSlot {
    std::vector<std::shared_ptr<const Bytes>> runs;
    uint64_t generation = 0;
  };

  /// A node aggregate for one exact member set: per-partition combined
  /// runs, valid while every member's slot still has the recorded
  /// generation.
  struct NodeRun {
    std::map<uint32_t, uint64_t> members;  ///< map_index -> build generation
    std::vector<std::shared_ptr<const Bytes>> runs;
  };

  struct JobSlots {
    std::map<uint32_t, MapSlot> maps;
    std::map<std::vector<uint32_t>, NodeRun> combined;
    uint64_t next_generation = 1;
  };

  static uint64_t runsBytes(
      const std::vector<std::shared_ptr<const Bytes>>& runs);

  std::shared_ptr<const JobSpec> specFor(JobId job) const;
  bool tryChargeLocked(int64_t delta);
  void releaseLocked(int64_t bytes);
  void dropNodeRunLocked(NodeRun& node);
  bool currentLocked(const JobSlots& slots, const NodeRun& node) const;
  void maybeCombineOnPut(JobId job, const JobSpec& spec, Counters* counters);

  /// Combined per-partition runs for exactly `members` — cache hit when
  /// current, otherwise a fresh merge (installed when still current and the
  /// heap budget allows). Throws NotFoundError ("missing map=<i>") when a
  /// member has no output here.
  std::vector<std::shared_ptr<const Bytes>> nodeRuns(
      JobId job, const JobSpec* spec, const std::vector<uint32_t>& members,
      Counters* counters);

  mutable std::mutex mutex_;
  std::map<JobId, JobSlots> jobs_;
  uint64_t total_bytes_ = 0;
  int64_t charged_ = 0;

  JobRegistry* registry_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  TraceCollector* trace_ = nullptr;
  std::string component_ = "mapoutputstore";
  TryChargeFn try_charge_;
  Counter* replaced_runs_ = nullptr;
  Counter* combined_runs_ = nullptr;
  Counter* bytes_saved_ = nullptr;
};

}  // namespace mh::mr
