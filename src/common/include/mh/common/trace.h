#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file trace.h
/// Structured event journal for job-history tracing. Daemons record point
/// events (`instant`) and RAII scopes (`TraceSpan`) with monotonic
/// timestamps, a component name (the swimlane: "jobtracker",
/// "tasktracker.node01", ...), and key=value attributes. Events land in a
/// bounded ring buffer (oldest overwritten) and export as Chrome
/// trace-event JSON — load the file in `chrome://tracing` or
/// https://ui.perfetto.dev to see per-daemon swimlanes with one span per
/// map/reduce attempt — or as line-delimited JSON for scripting.
///
/// Events are **causally linked**, Dapper-style: every span gets a unique
/// `span_id` and inherits `trace_id`/`parent_span_id` from the ambient
/// thread-local `TraceContext`, which the span installs for its own
/// lifetime. RPC handlers run synchronously on the caller's thread, so a
/// span recorded inside a handler becomes a child of the caller's active
/// span with no explicit plumbing; crossing a real thread boundary (task
/// pools, I/O helpers) takes one `TraceContextScope` on the new thread.
/// The JobTracker mints one `trace_id` per job, so a whole job — maps,
/// spills, shuffles, DFS I/O on every daemon, even injected faults — forms
/// one tree (see `trace_analysis.h` for critical-path reports over it).
///
/// Tracing is **disabled by default**: a disabled collector costs one
/// relaxed atomic load per would-be event, no clock read, no allocation,
/// no span-id allocation (`idsAllocated()` lets tests assert this).

namespace mh {

/// Causal position of the current activity: which trace it belongs to and
/// which span children should attach to. `trace_id == 0` means "not inside
/// any trace" — events still record, they just float outside every tree.
struct TraceContext {
  uint64_t trace_id = 0;        ///< One per job (or other root activity).
  uint64_t span_id = 0;         ///< The active span; children parent here.
  uint64_t parent_span_id = 0;  ///< The active span's own parent.

  bool valid() const { return trace_id != 0; }
};

/// The calling thread's ambient context (zero-initialized by default).
TraceContext currentTraceContext();

/// RAII: installs `ctx` (and optionally a human-readable track name such
/// as "m3 a0") as the calling thread's ambient context, restoring the
/// previous one on destruction. Use when work hops threads: capture
/// `currentTraceContext()` before spawning, install it inside the worker.
/// Must be destroyed on the thread that constructed it.
class TraceContextScope {
 public:
  explicit TraceContextScope(const TraceContext& ctx,
                             std::string_view track = {});
  ~TraceContextScope();
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext saved_;
  std::string saved_track_;
  bool track_changed_ = false;
};

struct TraceEvent {
  std::string component;  ///< Swimlane ("jobtracker", "datanode.node02").
  std::string name;       ///< Event name ("MAP m3 a0", "SUBMIT").
  bool span = false;      ///< true: complete span; false: instant event.
  int64_t ts_us = 0;      ///< Start time, micros since collector epoch.
  int64_t dur_us = 0;     ///< Span duration (0 for instants).
  uint64_t tid = 0;       ///< Hashed originating thread id.
  uint64_t trace_id = 0;  ///< Trace this event belongs to (0 = none).
  uint64_t span_id = 0;   ///< Unique id for spans (0 for instants).
  uint64_t parent_span_id = 0;  ///< Enclosing span at record time.
  std::string track;      ///< Stable display track ("m3 a0"); may be "".
  std::vector<std::pair<std::string, std::string>> args;
};

class TraceCollector {
 public:
  static constexpr size_t kDefaultCapacity = 16384;

  explicit TraceCollector(size_t capacity = kDefaultCapacity);
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Micros since this collector's construction (monotonic clock).
  int64_t nowMicros() const;

  /// Allocates a fresh nonzero id (trace ids and span ids share the
  /// space, so a trace id never collides with a span id).
  uint64_t newId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  /// How many ids have ever been allocated — a disabled collector must
  /// never allocate any (asserted by the fast-path gate test).
  uint64_t idsAllocated() const {
    return next_id_.load(std::memory_order_relaxed) - 1;
  }

  /// Records a point event in the calling thread's ambient context.
  /// No-op while disabled.
  void instant(std::string_view component, std::string_view name,
               std::vector<std::pair<std::string, std::string>> args = {});

  /// Records a point event in an explicit context (for threads that act
  /// on behalf of a job without ambient context, e.g. the JobTracker's
  /// heartbeat/monitor threads). No-op while disabled.
  void instant(const TraceContext& ctx, std::string_view component,
               std::string_view name,
               std::vector<std::pair<std::string, std::string>> args = {});

  /// Records a completed span [ts_us, ts_us + dur_us). No-op while
  /// disabled (spans started while enabled still land if recording ends
  /// after a disable; the ring stays bounded either way).
  void record(TraceEvent event);

  /// Chronological copy of the buffered events (oldest first).
  std::vector<TraceEvent> snapshot() const;

  void clear();
  size_t size() const;
  size_t capacity() const { return capacity_; }
  /// Events overwritten because the ring was full.
  uint64_t droppedEvents() const;

  /// `{"traceEvents": [...], "droppedEvents": N}` with one process lane
  /// per component (process_name metadata events) and one named thread
  /// track per `TraceEvent::track` (thread_name metadata events) — the
  /// format chrome://tracing loads. Events that never set a track fall
  /// back to a per-thread "tid NNN" track.
  std::string exportChromeJson() const;

  /// One JSON object per line, chronological, preceded by a header line
  /// `{"type":"header","dropped_events":N,"event_count":M}` so truncated
  /// exports are self-describing.
  std::string exportJsonl() const;

 private:
  const size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};

  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;  ///< Up to capacity_ events.
  size_t next_ = 0;               ///< Ring write cursor.
  uint64_t dropped_ = 0;
};

/// RAII span: captures the start time at construction, records a span
/// event at destruction. While alive it is the thread's ambient context,
/// so nested spans/instants (including those inside RPC handlers invoked
/// from this thread) become its children. Constructed against a disabled
/// (or null) collector it does nothing — not even read the clock. Must be
/// destroyed on the thread that constructed it.
class TraceSpan {
 public:
  TraceSpan(TraceCollector* collector, std::string_view component,
            std::string_view name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a key=value attribute to the span (no-op when inactive).
  void arg(std::string_view key, std::string_view value);

  bool active() const { return collector_ != nullptr; }
  /// This span's causal context (zero when inactive).
  TraceContext context() const;

 private:
  TraceCollector* collector_ = nullptr;  ///< Null when inactive.
  TraceEvent event_;
  TraceContext prev_;  ///< Ambient context to restore on destruction.
};

}  // namespace mh
