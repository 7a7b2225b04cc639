#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "mh/common/codec.h"
#include "mh/common/trace.h"
#include "mh/mr/job.h"

/// \file map_output_buffer.h
/// The map side's collect/sort/spill core — this library's MapOutputBuffer.
///
/// The buffer is partition-major. Each reducer's partition gets its own
/// frame arena and its own index, created when its first record arrives
/// (a job with thousands of reducers pays only for the ones a map feeds).
/// `collect` appends the record to its partition's arena as its kv_stream
/// frame (`[varint klen][key][varint vlen][value]`, the bytes KvWriter
/// writes) and a 16-byte `{key prefix, offset, length class}` entry to its
/// partition's index. Nothing is heap-allocated per record.
///
/// A spill sorts each non-empty partition on its own. A stable LSD radix
/// sort over the 8 prefix bytes orders the partition by prefix, then by
/// insertion; there is no partition digit. Its digits are 8 bits wide, and
/// a digit every entry shares is skipped. A scan over the equal-prefix runs
/// finishes the order: a run whose keys all have one length class below 9
/// holds equal keys and is done; a run that mixes classes (keys that
/// differ only in trailing NULs) or holds keys of 9+ bytes gets one
/// comparison sort on (length class, key bytes past the prefix, offset).
/// The result is byte-lexicographic by key, then insertion order. The
/// spill then copies the partition's frames, verbatim and in sorted order,
/// into a segment presized to the arena's bytes. With a combiner nothing is
/// copied first: the combiner reads the sorted index in place as key
/// groups, and its output is framed straight into the segment
/// (`combineMerge`). A partition's arena is a fraction of the batch, so
/// the sort and the copy work closer to the core; the radix sort's scratch
/// buffer is shared and sized to the largest partition, not the batch.
///
/// The buffer has a hard budget. When the working set (arena bytes, index
/// bytes, and a radix buffer as long as the index, summed over the
/// partitions: two index entries per record) crosses
/// `io.sort.mb * io.sort.spill.percent`, the buffer sorts, runs the
/// combiner (per spill, as real Hadoop does), appends one sorted segment
/// per partition to that partition's output — a *spill* — and resets the
/// arenas. An arena or index keeps its allocation for the next batch only
/// if the batch just spilled filled at least half of it, so the buffers a
/// spill keeps are at most twice that batch, however the map's records
/// move between partitions. A map task's collect working set is therefore
/// bounded regardless of input size. The budget is the same for any
/// partition layout, so the spill points do not depend on how records
/// spread over reducers.
///
/// The per-partition outputs are the map output: `finishSegments()` spills
/// the remainder and closes each with its segment table (kv_stream.h). A
/// map with no combiner ships its spill segments unmerged, however many
/// there are; the reducer's k-way merge is the only merge they go through.
/// A combiner job that spilled more than once merges each partition's
/// segments into one through the loser-tree `KvRunMerger` and a final
/// combine pass (which is what shrinks its shuffle), and ships that one
/// segment. `finish()` merges the shipped segments for callers that want
/// one run, by copying each record's frame verbatim.
///
/// The arenas, indexes, radix buffer and retained segments are charged
/// against the TaskTracker heap budget through the task's HeapFn
/// (capacity-accurate, released when the buffer dies), so a map's memory
/// discipline is visible on the same gauge as the reduce side's shuffle
/// working set.
///
/// Counter semantics (Hadoop-faithful):
///   MAP_SPILLS       — number of sort/spill passes this task ran
///   SPILLED_RECORDS  — records written to spill segments, plus records
///                      written again by a final merge: each record counts
///                      once per pass that writes it. Equals map output
///                      records for a combiner-less task, which ships its
///                      segments
///   COMBINE_INPUT/OUTPUT_RECORDS — grow with every spill *and* with the
///                      final merge's combine pass

namespace mh::mr {

class KeyGroups;

class MapOutputBuffer {
 public:
  /// `spec` supplies conf (budget keys, the map-output codec) and the
  /// optional combiner factory; `counters` receives the spill/combine
  /// counters; `heap` (optional) is the TaskTracker budget callback;
  /// `fs`/`trace`/`trace_component` (optional) plumb side-data access for
  /// combiners and SORT_SPILL spans; `metrics` (optional) hosts the
  /// per-codec encode/decode histograms.
  MapOutputBuffer(const JobSpec& spec, Counters& counters,
                  TaskContext::HeapFn heap, FileSystemView* fs,
                  TraceCollector* trace, std::string_view trace_component,
                  MetricsRegistry* metrics = nullptr);
  ~MapOutputBuffer();
  MapOutputBuffer(const MapOutputBuffer&) = delete;
  MapOutputBuffer& operator=(const MapOutputBuffer&) = delete;

  /// Appends one record. May trigger a synchronous sort+spill when the
  /// working set crosses the spill threshold. A single record larger than
  /// the whole threshold is admitted and spilled solo (the arena briefly
  /// overshoots by that one record).
  void collect(std::string_view key, std::string_view value,
               uint32_t partition);

  /// Spills whatever is still buffered and returns the map output, one
  /// segmented output (kv_stream.h) per partition: the spill segments
  /// themselves, or — with a combiner and several spills — the one
  /// segment the final combining merge wrote. Call at most once, after the
  /// mapper's cleanup(), instead of finish().
  std::vector<Bytes> finishSegments();

  /// finishSegments(), then each partition's segments merged into one
  /// sorted kv_stream run (codec-framed when the map-output codec is on).
  /// Call at most once, instead of finishSegments().
  std::vector<Bytes> finish();

  /// Sort/spill passes so far (the MAP_SPILLS counter).
  int64_t spillCount() const { return spill_count_; }

  /// Cumulative wall time inside index sorts, for the tracker's
  /// `map.sort.micros` histogram.
  int64_t sortMicros() const { return sort_nanos_ / 1000; }

  /// Current charged working set, bytes (test/diagnostic hook).
  int64_t chargedBytes() const { return charged_; }

  /// Capacity of the retained spill segments, summed from the buffers
  /// themselves (test/diagnostic hook).
  int64_t retainedSegmentBytes() const;

 private:
  /// 16 bytes per record. `prefix` caches the key's first 8 bytes
  /// big-endian (zero-padded); `offset` addresses the partition's arena, so
  /// the budget is clamped below 2^32 bytes; `length_class` is
  /// min(key_len, 9). Equal (prefix, class < 9) means equal keys, so only
  /// class-9 keys ever need their bytes compared.
  struct IndexEntry {
    uint64_t prefix;
    uint32_t offset;        ///< the record's frame starts here
    uint32_t length_class;  ///< min(key_len, 9)
  };
  static_assert(sizeof(IndexEntry) == 16);

  /// One reducer's share of the current batch, and its output so far.
  struct Partition {
    Bytes arena;                    ///< this batch's frames, back to back
    std::vector<IndexEntry> index;  ///< one entry per frame in `arena`
    /// The partition's spill segments, in spill order; empty ones are
    /// not kept.
    std::vector<Bytes> segments;
  };

  /// Arenas, indexes, and a radix buffer as long as the indexes: the
  /// budget counts two index entries per buffered record.
  size_t workingSet() const {
    return batch_bytes_ + 2 * batch_records_ * sizeof(IndexEntry);
  }

  /// Sorts `part`'s index (see the file comment) and returns the sorted
  /// entries: in the index itself or in `radix_`, wherever the last radix
  /// pass left them.
  const IndexEntry* sortPartition(Partition& part);
  void spill();
  /// Replaces `out` — one finished segment — with its encoding when the
  /// map-output codec is on, bumping the SPILL_RAW/COMPRESSED_BYTES
  /// counters. No-op otherwise.
  void maybeEncode(Bytes& out);
  /// Merges `segments` (spill segments, codec-framed when the codec is on)
  /// into `out` as one segment, combining when the job has a combiner, and
  /// adds the records written to SPILLED_RECORDS.
  void mergeSegments(const std::vector<std::string_view>& segments,
                     Bytes& out);
  /// Runs the combiner over `groups`, framing its output into `out`, and
  /// adds the pass to COMBINE_INPUT/OUTPUT_RECORDS with one increment each.
  /// Returns records written.
  int64_t combine(KeyGroups& groups, Bytes& out);
  /// Re-syncs the heap charge to the current capacities; may throw
  /// OutOfMemoryError from the HeapFn (the charge is recorded first, so
  /// the destructor releases exactly what was added).
  void syncCharge();

  const JobSpec& spec_;
  Counters& counters_;
  TaskContext::HeapFn heap_;
  FileSystemView* fs_;
  TraceCollector* trace_;
  std::string trace_component_;
  MetricsRegistry* metrics_;

  uint32_t partitions_;
  size_t spill_threshold_;
  /// `mapred.map.output.compression.codec`: spill runs are encoded at
  /// spill time, so the retained runs — and their heap charge — are the
  /// compressed bytes.
  CodecKind codec_ = CodecKind::kNone;

  /// parts_[p] is partition p's state, created by its first record; the
  /// table itself is sized by the first collect.
  std::vector<std::unique_ptr<Partition>> parts_;
  /// The radix sort's ping-pong buffer, shared by every partition's sort.
  /// It grows to the largest partition a spill has sorted and keeps its
  /// length (and heap charge) across spills.
  std::vector<IndexEntry> radix_;
  size_t batch_bytes_ = 0;    ///< frame bytes across the arenas
  size_t batch_records_ = 0;  ///< entries across the indexes
  /// Arena and index capacities summed over the partitions: the part of
  /// the charge collect can change.
  size_t capacity_bytes_ = 0;
  size_t spill_bytes_ = 0;  ///< capacity across retained segments

  int64_t charged_ = 0;
  int64_t spill_count_ = 0;
  int64_t sort_nanos_ = 0;
  bool finished_ = false;
};

}  // namespace mh::mr
