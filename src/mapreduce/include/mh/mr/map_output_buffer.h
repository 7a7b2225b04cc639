#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "mh/common/codec.h"
#include "mh/common/trace.h"
#include "mh/mr/job.h"

/// \file map_output_buffer.h
/// The map side's collect/sort/spill core — this library's MapOutputBuffer.
///
/// Map emissions append each record to one contiguous arena as its
/// kv_stream frame (`[varint klen][key][varint vlen][value]`, the bytes
/// KvWriter writes), and a parallel index of 16-byte `{key prefix,
/// offset, partition | length class}` entries describes the records.
/// Nothing is heap-allocated per record. One stable LSD radix sort over
/// 8-bit digits of the index (the length class, the 8 prefix bytes, then
/// the partition bytes) orders the batch partition-major, then
/// byte-lexicographically by key, then by insertion; keys longer than the
/// prefix that tie on it land adjacent, and each such run is finished by a
/// comparison sort on the remaining key bytes and insertion order. The
/// record bytes never move until the spill copies each frame, verbatim and
/// in index order, into its partition's output.
///
/// The buffer has a hard budget. When the working set (arena bytes, index
/// bytes, and the radix sort's equally long second buffer) crosses
/// `io.sort.mb * io.sort.spill.percent`, the buffer sorts, runs the
/// combiner (per spill, as real Hadoop does), appends one sorted segment
/// per partition to that partition's output — a *spill* — and resets the
/// arena. A map task's collect working set is therefore bounded regardless
/// of input size.
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
/// The arena, index, radix buffer, and retained segments are charged
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

class KvRunMerger;

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
  int64_t sortMicros() const { return sort_micros_; }

  /// Current charged working set, bytes (test/diagnostic hook).
  int64_t chargedBytes() const { return charged_; }

 private:
  /// 16 bytes per record; offsets address the arena, so the budget is
  /// clamped below 2^32 bytes. `prefix` caches the key's first 8 bytes
  /// big-endian (zero-padded); `meta` packs the partition above a 4-bit
  /// length class, min(key_len, 9). Equal (partition, prefix, class < 9)
  /// means equal keys, so only class-9 keys ever need their bytes compared.
  struct IndexEntry {
    uint64_t prefix;
    uint32_t offset;  ///< the record's frame starts here
    uint32_t meta;    ///< partition << 4 | min(key_len, 9)
  };
  static_assert(sizeof(IndexEntry) == 16);

  static uint32_t partitionOf(const IndexEntry& e) { return e.meta >> 4; }
  std::string_view keyAt(const IndexEntry& e) const;
  /// The record's whole kv_stream frame, as a spill run stores it.
  std::string_view frameAt(const IndexEntry& e) const;

  /// Arena, index, and the radix buffer the sort will size to the index.
  size_t workingSet() const {
    return arena_.size() + 2 * index_.size() * sizeof(IndexEntry);
  }

  void sortIndex();
  void spill();
  /// Encodes `out`'s bytes from `begin` on — one finished segment — in
  /// place when the map-output codec is on, bumping the
  /// SPILL_RAW/COMPRESSED_BYTES counters. No-op otherwise.
  void maybeEncodeTail(Bytes& out, size_t begin);
  /// Merges `segments` (spill segments, codec-framed when the codec is on)
  /// into `out` as one segment, combining when the job has a combiner, and
  /// adds the records written to SPILLED_RECORDS.
  void mergeSegments(const std::vector<std::string_view>& segments,
                     Bytes& out);
  /// Runs the combiner over `merger`'s key groups, framing its output into
  /// `out`, and adds the pass to COMBINE_INPUT/OUTPUT_RECORDS with one
  /// increment each. Returns records written.
  int64_t combine(KvRunMerger& merger, Bytes& out);
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

  Bytes arena_;
  std::vector<IndexEntry> index_;
  /// The radix sort's ping-pong buffer; it keeps its length (and heap
  /// charge) across spills, so each sort reuses it.
  std::vector<IndexEntry> radix_;
  /// outputs_[p] holds partition p's spill segments back to back, each
  /// segment_lengths_[p][i] bytes long; empty segments are not recorded.
  std::vector<Bytes> outputs_;
  std::vector<std::vector<uint64_t>> segment_lengths_;
  size_t spill_bytes_ = 0;  ///< total bytes across retained segments

  int64_t charged_ = 0;
  int64_t spill_count_ = 0;
  int64_t sort_micros_ = 0;
  bool finished_ = false;
};

}  // namespace mh::mr
