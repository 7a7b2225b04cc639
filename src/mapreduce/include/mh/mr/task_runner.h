#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "mh/common/buffer.h"
#include "mh/common/trace.h"
#include "mh/mr/job.h"

/// \file task_runner.h
/// The map-side and reduce-side execution cores, shared verbatim by the
/// serial LocalJobRunner and the distributed TaskTracker — which is how the
/// library guarantees the two execution modes compute identical results.
///
/// Map side: read split -> map() -> partition -> collect into the
/// arena-backed MapOutputBuffer (sort/spill under the io.sort.mb budget,
/// combiner per spill) -> one segmented output per partition: the sorted
/// spill segments, or one merged segment. See map_output_buffer.h.
/// Reduce side: streaming k-way merge over the (already sorted) segments
/// of every map for one partition (decoded on arrival by intakeMapOutput)
/// -> group by key -> reduce() -> committed part file.

namespace mh::mr {

struct MapTaskResult {
  /// One segmented output (kv_stream.h) per reduce partition: the map's
  /// sorted (and combined) segments, in spill order.
  std::vector<Bytes> partitions;
  Counters counters;
  int64_t millis = 0;
  /// Wall time spent inside the buffer's index sorts (the tracker feeds
  /// this into its `map.sort.micros` histogram).
  int64_t sort_micros = 0;
};

/// Executes one map task over `split`. `heap` (optional) is the
/// TaskTracker's memory-budget callback passed through to the TaskContext.
/// `trace`/`trace_component` (optional) route phase events into the
/// cluster's trace journal; the LocalJobRunner passes neither. `metrics`
/// (optional) hosts the per-codec encode/decode histograms when the
/// map-output compression seam is on.
/// Exceptions from user code propagate to the caller (task failure).
/// The record counters (MAP_INPUT/OUTPUT_RECORDS, MAP_OUTPUT_BYTES) are
/// tallied in locals and land in the result's counters only when the task
/// succeeds.
MapTaskResult runMapTask(const JobSpec& spec, FileSystemView& fs,
                         const InputSplit& split,
                         TaskContext::HeapFn heap = {},
                         TraceCollector* trace = nullptr,
                         std::string_view trace_component = {},
                         MetricsRegistry* metrics = nullptr);

struct ReduceTaskResult {
  Counters counters;
  int64_t millis = 0;
};

/// The reduce side's intake of one fetched map output — a segmented output
/// (kv_stream.h), a single map's or a node-combined one — and the only
/// place a reducer decodes. Splits it into its segments; with `decode` (the
/// job's map-output codec is on) decodes each once, so the output's
/// encoded buffer can go as soon as the caller drops it, and counts
/// SHUFFLE_COMPRESSED_BYTES / SHUFFLE_RAW_BYTES into `counters`. Charges
/// nothing: whoever holds the segments charges them (IncrementalMerger in
/// a TaskTracker's reduce). Returns raw kv_stream segments in spill order,
/// for IncrementalMerger or runReduceTask. With `trace`, the decode runs
/// inside a SHUFFLE_DECODE span, where its DECOMPRESS spans nest;
/// `metrics` hosts the codec's decode histogram.
std::vector<BufferView> intakeMapOutput(const BufferView& output, bool decode,
                                        Counters& counters,
                                        MetricsRegistry* metrics = nullptr,
                                        TraceCollector* trace = nullptr,
                                        std::string_view trace_component = {});

/// Executes one reduce task over the collected raw map segments for
/// `partition`, in (map, spill) order (refcounted views — shuffled
/// segments are merged in place, never copied) and commits
/// output_dir/part-NNNNN via `fs`.
ReduceTaskResult runReduceTask(const JobSpec& spec, FileSystemView& fs,
                               uint32_t partition, uint32_t attempt,
                               const std::vector<BufferView>& input_runs,
                               TaskContext::HeapFn heap = {},
                               TraceCollector* trace = nullptr,
                               std::string_view trace_component = {});

}  // namespace mh::mr
