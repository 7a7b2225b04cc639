#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "mh/common/serde.h"

/// \file types.h
/// Core MapReduce value conventions.
///
/// The engine moves opaque byte strings. Typed user code converts through
/// `MrCodec<T>`: `std::string` passes through **unwrapped** (so text data
/// stays readable in intermediate and output files, like Hadoop's Text),
/// every other type round-trips through its `Serde<T>` (the custom-Writable
/// mechanism). Keys compare byte-lexicographically during the sort/shuffle;
/// Serde's varint encodings are injective, so grouping is exact for any key
/// type.

namespace mh::mr {

/// One record flowing between stages.
struct KeyValue {
  Bytes key;
  Bytes value;

  bool operator==(const KeyValue&) const = default;
};

/// Encode/decode between user types and engine byte strings.
template <typename T>
struct MrCodec {
  static Bytes enc(const T& v) { return serialize(v); }
  static T dec(std::string_view b) { return deserialize<T>(b); }
};

/// Strings are raw bytes — no length prefix — since each key/value already
/// occupies its own buffer.
template <>
struct MrCodec<std::string> {
  static Bytes enc(const std::string& v) { return v; }
  static std::string dec(std::string_view b) { return std::string(b); }
};

/// Job identifier assigned by the JobTracker.
using JobId = uint32_t;

/// Well-known port numbers (Hadoop 1.x defaults).
inline constexpr int kJobTrackerPort = 50030;
inline constexpr int kTaskTrackerPort = 50060;

/// Counter groups and names used by the engine. Applications may add their
/// own groups freely.
namespace counters {
inline constexpr const char* kTaskGroup = "task";
inline constexpr const char* kMapInputRecords = "MAP_INPUT_RECORDS";
inline constexpr const char* kMapOutputRecords = "MAP_OUTPUT_RECORDS";
inline constexpr const char* kMapOutputBytes = "MAP_OUTPUT_BYTES";
inline constexpr const char* kCombineInputRecords = "COMBINE_INPUT_RECORDS";
inline constexpr const char* kCombineOutputRecords = "COMBINE_OUTPUT_RECORDS";
inline constexpr const char* kReduceInputGroups = "REDUCE_INPUT_GROUPS";
inline constexpr const char* kReduceInputRecords = "REDUCE_INPUT_RECORDS";
inline constexpr const char* kReduceOutputRecords = "REDUCE_OUTPUT_RECORDS";
inline constexpr const char* kSpilledRecords = "SPILLED_RECORDS";
inline constexpr const char* kMapSpills = "MAP_SPILLS";
inline constexpr const char* kMergeSegments = "MERGE_SEGMENTS";
/// Spill-run bytes before/after map-output compression; equal counts are
/// never recorded — both stay 0 while the codec is off.
inline constexpr const char* kSpillRawBytes = "SPILL_RAW_BYTES";
inline constexpr const char* kSpillCompressedBytes = "SPILL_COMPRESSED_BYTES";
/// In-node combining (`mapred.innode.combine`): records entering/leaving
/// tracker-level merges of completed map outputs, and the time spent
/// merging. Charged to the map task that triggered the merge, so PR-4
/// attempt-replacement keeps them exactly-once like every task counter.
inline constexpr const char* kInnodeCombineRecordsIn =
    "INNODE_COMBINE_RECORDS_IN";
inline constexpr const char* kInnodeCombineRecordsOut =
    "INNODE_COMBINE_RECORDS_OUT";
inline constexpr const char* kInnodeCombineMillis = "INNODE_COMBINE_MILLIS";

inline constexpr const char* kJobGroup = "job";
inline constexpr const char* kDataLocalMaps = "DATA_LOCAL_MAPS";
inline constexpr const char* kRackLocalMaps = "RACK_LOCAL_MAPS";
inline constexpr const char* kRemoteMaps = "REMOTE_MAPS";
inline constexpr const char* kLaunchedMaps = "TOTAL_LAUNCHED_MAPS";
inline constexpr const char* kLaunchedReduces = "TOTAL_LAUNCHED_REDUCES";
inline constexpr const char* kFailedMaps = "FAILED_MAPS";
inline constexpr const char* kFailedReduces = "FAILED_REDUCES";
inline constexpr const char* kSpeculativeMaps = "TOTAL_SPECULATIVE_MAPS";

inline constexpr const char* kShuffleGroup = "shuffle";
inline constexpr const char* kShuffleBytes = "SHUFFLE_BYTES";
inline constexpr const char* kShuffleFetchMillis = "SHUFFLE_FETCH_MILLIS";
inline constexpr const char* kShuffleFetchRetries = "SHUFFLE_FETCH_RETRIES";
/// Reduce-input run bytes after/before decoding shuffled payloads; both
/// stay 0 while no compression seam is enabled.
inline constexpr const char* kShuffleRawBytes = "SHUFFLE_RAW_BYTES";
inline constexpr const char* kShuffleCompressedBytes =
    "SHUFFLE_COMPRESSED_BYTES";
/// Reduce shuffle: runs/bytes every reduce fetched and folded, whether or
/// not the fetch overlapped the map phase (slowstart=1.0 included), and runs
/// discarded + re-fetched because a completion-feed invalidation
/// (speculative win, lost tracker, map re-execution) made them stale.
inline constexpr const char* kShufflePipelinedRuns = "SHUFFLE_PIPELINED_RUNS";
inline constexpr const char* kShufflePipelinedBytes =
    "SHUFFLE_PIPELINED_BYTES";
inline constexpr const char* kShufflePipelinedRefetches =
    "SHUFFLE_PIPELINED_REFETCHES";
}  // namespace counters

}  // namespace mh::mr
