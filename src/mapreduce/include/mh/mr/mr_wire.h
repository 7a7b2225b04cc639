#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "mh/common/serde.h"
#include "mh/mr/fs_view.h"
#include "mh/mr/types.h"

/// \file mr_wire.h
/// Control-plane messages between TaskTrackers and the JobTracker, plus
/// their Serde specializations.
///
/// Note on "jar distribution": mapper/reducer factories are C++ closures and
/// cannot cross the wire, so a shared in-process JobRegistry stands in for
/// Hadoop's out-of-band jar shipping; only job ids, task indices, splits,
/// and output locations travel in these messages (see DESIGN.md
/// substitutions).

namespace mh::mr {

/// Counter rows on the wire.
using CounterRows = std::vector<std::tuple<std::string, std::string, int64_t>>;

/// A finished (or failed) task attempt, reported on the next heartbeat.
struct TaskStatusReport {
  JobId job = 0;
  uint32_t task_index = 0;
  bool is_map = true;
  uint32_t attempt = 0;
  bool succeeded = false;
  std::string error;
  CounterRows counters;
  int64_t millis = 0;
};

enum class AssignmentKind : uint8_t { kMap = 0, kReduce = 1 };

/// Where one map task's output lives.
struct MapOutputLocation {
  uint32_t map_index = 0;
  std::string host;

  bool operator==(const MapOutputLocation&) const = default;
};

struct TaskAssignment {
  AssignmentKind kind = AssignmentKind::kMap;
  JobId job = 0;
  uint32_t task_index = 0;
  uint32_t attempt = 0;
  InputSplit split;                             ///< maps only
  std::vector<MapOutputLocation> map_outputs;   ///< reduces only
  /// The job's causal trace identity (0 when tracing is off at the
  /// JobTracker). Task threads install this as their ambient context, so
  /// MAP/REDUCE spans on the tracker parent to the job's root span.
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  /// Reduces only: total maps in the job and the event-feed cursor this
  /// assignment's `map_outputs` snapshot is current through. With slowstart
  /// a reduce launches before every map finished — the missing locations
  /// arrive as MapCompletionEvents with ids > `event_cursor` on later
  /// heartbeats.
  uint32_t total_maps = 0;
  uint64_t event_cursor = 0;
};

/// One entry in a job's map-completion event feed. Event ids are monotonic
/// per job; a tracker subscribed at cursor `c` receives every event with
/// `event_id > c` exactly once (the feed is replayed from the JobTracker's
/// in-memory log, so heartbeat loss only delays delivery).
struct MapCompletionEvent {
  JobId job = 0;
  uint64_t event_id = 0;
  uint32_t map_index = 0;
  /// false: the map succeeded on `host`. true: its announced output
  /// became stale (tracker lost, fetch-failure re-execution) — runs fetched
  /// for it must be discarded. A map succeeds again only after such an
  /// event, so a consumer that reads ids in order needs nothing more.
  bool invalidated = false;
  std::string host;
};

/// A tracker's per-job subscription position, sent with each heartbeat for
/// every job it is running a pipelined reduce of.
struct ShuffleEventCursor {
  JobId job = 0;
  uint64_t after = 0;  ///< deliver events with event_id > after
};

/// The heartbeat request travels as the tuple
///   (host, free_map_slots, free_reduce_slots, reports, cursors, held_jobs,
///    may_wait)
/// where `held_jobs` lists every job the tracker still keeps state for (map
/// outputs or an active shuffle) and `may_wait` says none of its running
/// tasks can finish without news from the JobTracker, which may then hold
/// the beat until it has some.
struct TrackerHeartbeatReply {
  bool reregister = false;
  std::vector<TaskAssignment> assignments;
  /// The presented held jobs that are finished (or unknown): their map
  /// outputs and shuffles can go.
  std::vector<JobId> purge_jobs;
  /// Map-completion events answering the tracker's ShuffleEventCursors.
  std::vector<MapCompletionEvent> map_events;
};

/// Why a reduce attempt failed its shuffle: `host` could not serve the
/// output of map `map_index`, which the JobTracker then re-executes.
struct FetchFailure {
  std::string host;
  uint32_t map_index = 0;
};

namespace wire_detail {
/// The decimal index at `pos` of `text`; nullopt when none starts there.
inline std::optional<uint32_t> indexAt(std::string_view text, size_t pos) {
  uint32_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data() + pos, end, value);
  if (ec != std::errc{}) return std::nullopt;
  return value;
}
}  // namespace wire_detail

/// A failed reduce attempt's error: "fetch-failure host=<h> map=<i>:
/// <cause>". The blamed map comes before the cause, and parseFetchFailure
/// reads the tags right after "fetch-failure ", so a cause that names a map
/// of its own never wins.
inline std::string formatFetchFailure(const FetchFailure& failure,
                                      std::string_view cause) {
  return "fetch-failure host=" + failure.host +
         " map=" + std::to_string(failure.map_index) + ": " +
         std::string(cause);
}

/// The fetch-failure that `error` carries (an exception-type prefix may
/// precede it); nullopt when it carries none.
inline std::optional<FetchFailure> parseFetchFailure(std::string_view error) {
  constexpr std::string_view kHost = "fetch-failure host=";
  constexpr std::string_view kMap = " map=";
  const size_t at = error.find(kHost);
  if (at == std::string_view::npos) return std::nullopt;
  const size_t host_begin = at + kHost.size();
  const size_t host_end = error.find(' ', host_begin);
  if (host_end == std::string_view::npos ||
      error.substr(host_end, kMap.size()) != kMap) {
    return std::nullopt;
  }
  const auto map_index =
      wire_detail::indexAt(error, host_end + kMap.size());
  if (!map_index) return std::nullopt;
  return FetchFailure{
      std::string(error.substr(host_begin, host_end - host_begin)),
      *map_index};
}

/// A serve's error for a named map the tracker does not hold:
/// "map output <job> missing map=<i>".
inline std::string missingMapMessage(JobId job, uint32_t map_index) {
  return "map output " + std::to_string(job) +
         " missing map=" + std::to_string(map_index);
}

/// The map a serve's error names as missing; nullopt when none.
inline std::optional<uint32_t> parseMissingMap(std::string_view error) {
  constexpr std::string_view kMissing = " missing map=";
  const size_t at = error.find(kMissing);
  if (at == std::string_view::npos) return std::nullopt;
  return wire_detail::indexAt(error, at + kMissing.size());
}

}  // namespace mh::mr

namespace mh {

template <>
struct Serde<mr::InputSplit> {
  static void encode(ByteWriter& w, const mr::InputSplit& v) {
    w.writeBytes(v.path);
    w.writeVarU64(v.offset);
    w.writeVarU64(v.length);
    Serde<std::vector<std::string>>::encode(w, v.hosts);
  }
  static mr::InputSplit decode(ByteReader& r) {
    mr::InputSplit v;
    v.path = r.readString();
    v.offset = r.readVarU64();
    v.length = r.readVarU64();
    v.hosts = Serde<std::vector<std::string>>::decode(r);
    return v;
  }
};

template <>
struct Serde<mr::TaskStatusReport> {
  static void encode(ByteWriter& w, const mr::TaskStatusReport& v) {
    w.writeVarU64(v.job);
    w.writeVarU64(v.task_index);
    w.writeBool(v.is_map);
    w.writeVarU64(v.attempt);
    w.writeBool(v.succeeded);
    w.writeBytes(v.error);
    Serde<mr::CounterRows>::encode(w, v.counters);
    w.writeVarI64(v.millis);
  }
  static mr::TaskStatusReport decode(ByteReader& r) {
    mr::TaskStatusReport v;
    v.job = static_cast<mr::JobId>(r.readVarU64());
    v.task_index = static_cast<uint32_t>(r.readVarU64());
    v.is_map = r.readBool();
    v.attempt = static_cast<uint32_t>(r.readVarU64());
    v.succeeded = r.readBool();
    v.error = r.readString();
    v.counters = Serde<mr::CounterRows>::decode(r);
    v.millis = r.readVarI64();
    return v;
  }
};

template <>
struct Serde<mr::MapOutputLocation> {
  static void encode(ByteWriter& w, const mr::MapOutputLocation& v) {
    w.writeVarU64(v.map_index);
    w.writeBytes(v.host);
  }
  static mr::MapOutputLocation decode(ByteReader& r) {
    mr::MapOutputLocation v;
    v.map_index = static_cast<uint32_t>(r.readVarU64());
    v.host = r.readString();
    return v;
  }
};

template <>
struct Serde<mr::TaskAssignment> {
  static void encode(ByteWriter& w, const mr::TaskAssignment& v) {
    w.writeU8(static_cast<uint8_t>(v.kind));
    w.writeVarU64(v.job);
    w.writeVarU64(v.task_index);
    w.writeVarU64(v.attempt);
    Serde<mr::InputSplit>::encode(w, v.split);
    Serde<std::vector<mr::MapOutputLocation>>::encode(w, v.map_outputs);
    w.writeVarU64(v.trace_id);
    w.writeVarU64(v.parent_span_id);
    w.writeVarU64(v.total_maps);
    w.writeVarU64(v.event_cursor);
  }
  static mr::TaskAssignment decode(ByteReader& r) {
    mr::TaskAssignment v;
    v.kind = static_cast<mr::AssignmentKind>(r.readU8());
    v.job = static_cast<mr::JobId>(r.readVarU64());
    v.task_index = static_cast<uint32_t>(r.readVarU64());
    v.attempt = static_cast<uint32_t>(r.readVarU64());
    v.split = Serde<mr::InputSplit>::decode(r);
    v.map_outputs = Serde<std::vector<mr::MapOutputLocation>>::decode(r);
    v.trace_id = r.readVarU64();
    v.parent_span_id = r.readVarU64();
    v.total_maps = static_cast<uint32_t>(r.readVarU64());
    v.event_cursor = r.readVarU64();
    return v;
  }
};

template <>
struct Serde<mr::MapCompletionEvent> {
  static void encode(ByteWriter& w, const mr::MapCompletionEvent& v) {
    w.writeVarU64(v.job);
    w.writeVarU64(v.event_id);
    w.writeVarU64(v.map_index);
    w.writeBool(v.invalidated);
    w.writeBytes(v.host);
  }
  static mr::MapCompletionEvent decode(ByteReader& r) {
    mr::MapCompletionEvent v;
    v.job = static_cast<mr::JobId>(r.readVarU64());
    v.event_id = r.readVarU64();
    v.map_index = static_cast<uint32_t>(r.readVarU64());
    v.invalidated = r.readBool();
    v.host = r.readString();
    return v;
  }
};

template <>
struct Serde<mr::ShuffleEventCursor> {
  static void encode(ByteWriter& w, const mr::ShuffleEventCursor& v) {
    w.writeVarU64(v.job);
    w.writeVarU64(v.after);
  }
  static mr::ShuffleEventCursor decode(ByteReader& r) {
    mr::ShuffleEventCursor v;
    v.job = static_cast<mr::JobId>(r.readVarU64());
    v.after = r.readVarU64();
    return v;
  }
};

template <>
struct Serde<mr::TrackerHeartbeatReply> {
  static void encode(ByteWriter& w, const mr::TrackerHeartbeatReply& v) {
    w.writeBool(v.reregister);
    Serde<std::vector<mr::TaskAssignment>>::encode(w, v.assignments);
    Serde<std::vector<mr::JobId>>::encode(w, v.purge_jobs);
    Serde<std::vector<mr::MapCompletionEvent>>::encode(w, v.map_events);
  }
  static mr::TrackerHeartbeatReply decode(ByteReader& r) {
    mr::TrackerHeartbeatReply v;
    v.reregister = r.readBool();
    v.assignments = Serde<std::vector<mr::TaskAssignment>>::decode(r);
    v.purge_jobs = Serde<std::vector<mr::JobId>>::decode(r);
    v.map_events = Serde<std::vector<mr::MapCompletionEvent>>::decode(r);
    return v;
  }
};

}  // namespace mh
