#include "mh/mr/task_runner.h"

#include <memory>

#include "mh/common/codec.h"
#include "mh/common/stopwatch.h"
#include "mh/mr/kv_stream.h"
#include "mh/mr/map_output_buffer.h"
#include "mh/mr/merge.h"

namespace mh::mr {

namespace {

using namespace counters;

/// Publishes a task-local tally in one increment. A zero tally adds no row,
/// so a task that emitted nothing reports no such counter.
void publish(Counters& c, std::string_view name, int64_t tally) {
  if (tally != 0) c.increment(kTaskGroup, name, tally);
}

}  // namespace

MapTaskResult runMapTask(const JobSpec& spec, FileSystemView& fs,
                         const InputSplit& split, TaskContext::HeapFn heap,
                         TraceCollector* trace,
                         std::string_view trace_component,
                         MetricsRegistry* metrics) {
  Stopwatch watch;
  MapTaskResult result;
  Counters& c = result.counters;

  const auto input_format = spec.input_format();
  const auto partitioner = spec.partitioner();
  const uint32_t parts = spec.num_reducers;

  // Collect into the arena-backed sort/spill buffer: no per-record
  // allocation, bounded working set (io.sort.mb), combiner run per spill.
  // The record counters are plain locals, published once the task has
  // succeeded: no per-record lock or counter-map lookup.
  MapOutputBuffer buffer(spec, c, heap, &fs, trace, trace_component, metrics);
  int64_t input_records = 0;
  int64_t output_records = 0;
  int64_t output_bytes = 0;
  TaskContext map_ctx(
      spec.conf, c,
      [&](std::string_view key, std::string_view value) {
        ++output_records;
        output_bytes += static_cast<int64_t>(key.size() + value.size());
        buffer.collect(key, value, partitioner->partition(key, parts));
      },
      heap, &fs);

  {
    const auto mapper = spec.mapper();
    const auto reader = input_format->createReader(fs, split, spec.conf);
    mapper->setup(map_ctx);
    std::string_view key;
    std::string_view value;
    while (reader->next(key, value)) {
      ++input_records;
      mapper->map(key, value, map_ctx);
    }
    mapper->cleanup(map_ctx);
  }

  result.partitions = buffer.finishSegments();
  publish(c, kMapInputRecords, input_records);
  publish(c, kMapOutputRecords, output_records);
  publish(c, kMapOutputBytes, output_bytes);
  result.sort_micros = buffer.sortMicros();
  result.millis = watch.elapsedMillis();
  return result;
}

std::vector<BufferView> intakeMapOutput(const BufferView& output, bool decode,
                                        Counters& counters,
                                        MetricsRegistry* metrics,
                                        TraceCollector* trace,
                                        std::string_view trace_component) {
  std::vector<BufferView> segments = splitSegments(output);
  if (decode && !segments.empty()) {
    TraceSpan span(trace, trace_component, "SHUFFLE_DECODE");
    int64_t stored = 0;
    int64_t raw = 0;
    for (BufferView& segment : segments) {
      stored += static_cast<int64_t>(segment.size());
      segment = codecDecode(segment.view(), metrics, trace, trace_component);
      raw += static_cast<int64_t>(segment.size());
    }
    counters.increment(kShuffleGroup, kShuffleCompressedBytes, stored);
    counters.increment(kShuffleGroup, kShuffleRawBytes, raw);
    span.arg("segments", std::to_string(segments.size()));
    span.arg("bytes", std::to_string(raw));
  }
  return segments;
}

ReduceTaskResult runReduceTask(const JobSpec& spec, FileSystemView& fs,
                               uint32_t partition, uint32_t attempt,
                               const std::vector<BufferView>& input_runs,
                               TaskContext::HeapFn heap, TraceCollector* trace,
                               std::string_view trace_component) {
  Stopwatch watch;
  ReduceTaskResult result;
  Counters& c = result.counters;

  // Merge setup (loser-tree construction) gets its own span so the
  // critical-path report can attribute it separately from reduce compute.
  // Each input run is already key-sorted, so they stream through a k-way
  // merge: keys/values reach the reducer as views into the fetched (or
  // decoded-on-arrival) buffers.
  std::unique_ptr<KvRunMerger> merger;
  {
    TraceSpan merge_span(trace, trace_component,
                         "MERGE r" + std::to_string(partition));
    merger = std::make_unique<KvRunMerger>(
        std::vector<std::string_view>(input_runs.begin(), input_runs.end()));
    merge_span.arg("segments", std::to_string(merger->segmentCount()));
  }

  c.increment(kTaskGroup, kMergeSegments,
              static_cast<int64_t>(merger->segmentCount()));

  const auto output_format = spec.output_format();
  const auto writer =
      output_format->createWriter(fs, spec.output_dir, partition, attempt);
  int64_t output_records = 0;
  TaskContext reduce_ctx(
      spec.conf, c,
      [&](std::string_view key, std::string_view value) {
        ++output_records;
        writer->write(key, value);
      },
      heap, &fs);

  const auto reducer = spec.reducer();
  int64_t groups = 0;
  reducer->setup(reduce_ctx);
  while (merger->nextGroup()) {
    reducer->reduce(merger->key(), merger->values(), reduce_ctx);
    ++groups;
  }
  reducer->cleanup(reduce_ctx);
  c.increment(kTaskGroup, kReduceInputGroups, groups);
  c.increment(kTaskGroup, kReduceInputRecords, merger->recordsRead());
  writer->close();
  publish(c, kReduceOutputRecords, output_records);

  result.millis = watch.elapsedMillis();
  return result;
}

}  // namespace mh::mr
