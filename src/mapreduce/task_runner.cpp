#include "mh/mr/task_runner.h"

#include <memory>

#include "mh/common/stopwatch.h"
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

ReduceTaskResult runReduceTask(const JobSpec& spec, FileSystemView& fs,
                               uint32_t partition, uint32_t attempt,
                               const std::vector<BufferView>& input_runs,
                               TaskContext::HeapFn heap, TraceCollector* trace,
                               std::string_view trace_component,
                               MetricsRegistry* metrics) {
  Stopwatch watch;
  ReduceTaskResult result;
  Counters& c = result.counters;

  // The map-output codec delivers each segment as a framed codec stream;
  // unwrap them at the merge input. The conf gate keeps raw bytes that
  // merely resemble a codec header from being misdecoded when it is off.
  const bool encoded =
      codecFromName(spec.conf.get(keys::kMapOutputCodec)) != CodecKind::kNone;
  // Merge setup — run decode plus loser-tree construction — gets its own
  // span so the critical-path report can attribute it separately from
  // reduce compute (DECOMPRESS spans from the codec nest inside it).
  std::unique_ptr<DecodedRunSet> run_set;
  std::unique_ptr<KvRunMerger> merger;
  {
    TraceSpan merge_span(trace, trace_component,
                         "MERGE r" + std::to_string(partition));
    run_set = std::make_unique<DecodedRunSet>(
        std::vector<std::string_view>(input_runs.begin(), input_runs.end()),
        encoded, metrics, trace, trace_component);
    // Merge phase: each input run is already key-sorted, so stream them
    // through a k-way merge — no run is ever decoded whole beyond that
    // unwrap, and keys/values reach the reducer as views into the fetched
    // (or freshly decoded) buffers.
    merger = std::make_unique<KvRunMerger>(run_set->views());
    merge_span.arg("segments", std::to_string(merger->segmentCount()));
  }
  if (run_set->encodedBytes() > 0) {
    c.increment(kShuffleGroup, kShuffleCompressedBytes,
                run_set->encodedBytes());
    c.increment(kShuffleGroup, kShuffleRawBytes, run_set->rawBytes());
  }
  // The decoded buffers join the reduce working set for the whole merge;
  // charge them alongside the fetched (encoded) runs the caller charged.
  struct DecodeHeapGuard {
    TaskContext::HeapFn* heap;
    int64_t amount = 0;
    ~DecodeHeapGuard() {
      if (amount != 0 && *heap) (*heap)(-amount);
    }
  } decode_guard{&heap};
  if (heap && run_set->decodedHeapBytes() > 0) {
    decode_guard.amount = run_set->decodedHeapBytes();
    heap(decode_guard.amount);
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
