#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <type_traits>

#include "mh/common/config.h"
#include "mh/common/error.h"
#include "mh/mr/counters.h"
#include "mh/mr/types.h"

/// \file api.h
/// The user-facing MapReduce programming model: Mapper, Reducer (also used
/// as Combiner), Partitioner, and the task context they run in. This is the
/// "programming API libraries" half of the course's two-aspect split —
/// everything here works identically under the serial LocalJobRunner (no
/// HDFS, assignment 1) and the distributed engine (assignment 2).

namespace mh::mr {

class FileSystemView;

/// Simulated out-of-heap condition (the Java heap-leak lesson).
class OutOfMemoryError : public Error {
 public:
  explicit OutOfMemoryError(const std::string& what)
      : Error("OutOfMemoryError: " + what) {}
};

/// Runtime services available to a running task.
///
/// **Emitted records are views.** `emit` hands the key and value to the
/// next stage as views that are valid only for the duration of the call:
/// every sink (the map-side sort buffer, the reduce output writer, the
/// combiner's collector) copies the bytes before it returns. A mapper or
/// reducer may therefore emit from one buffer it reuses for every record.
class TaskContext {
 public:
  using EmitFn = std::function<void(std::string_view, std::string_view)>;
  using HeapFn = std::function<void(int64_t)>;

  TaskContext(const Config& conf, Counters& counters, EmitFn emit,
              HeapFn heap = {}, FileSystemView* fs = nullptr)
      : conf_(conf),
        counters_(counters),
        emit_(std::move(emit)),
        heap_(std::move(heap)),
        fs_(fs) {}

  /// Adapts a sink that takes owned `(Bytes, Bytes)` records, copying each
  /// emitted view into the strings it is handed.
  template <typename Fn>
    requires(!std::is_invocable_v<Fn&, std::string_view, std::string_view> &&
             std::is_invocable_v<Fn&, Bytes, Bytes>)
  TaskContext(const Config& conf, Counters& counters, Fn emit,
              HeapFn heap = {}, FileSystemView* fs = nullptr)
      : TaskContext(conf, counters,
                    EmitFn([emit = std::move(emit)](
                               std::string_view key,
                               std::string_view value) mutable {
                      emit(Bytes(key), Bytes(value));
                    }),
                    std::move(heap), fs) {}

  /// Emits one raw record to the next stage. The views need to stay valid
  /// only until the call returns.
  void emit(std::string_view key, std::string_view value) {
    emit_(key, value);
  }

  /// Typed emit through MrCodec.
  template <typename K, typename V>
  void emitTyped(const K& key, const V& value) {
    emit_(MrCodec<K>::enc(key), MrCodec<V>::enc(value));
  }

  Counters& counters() { return counters_; }
  const Config& conf() const { return conf_; }

  /// Declares task heap growth/shrink (bytes). The TaskTracker charges this
  /// against its memory budget; exceeding it raises OutOfMemoryError or
  /// crashes the tracker depending on configuration — reproducing the
  /// deadline-night "memory leaks crashed the task tracker" episode.
  void allocateHeap(int64_t delta_bytes) {
    if (heap_) heap_(delta_bytes);
  }

  /// The file system the task runs against — how tasks open SIDE DATA
  /// files (the course's movie-genre / song-album join tables). Throws
  /// IllegalStateError when the runtime provided none.
  FileSystemView& fs() {
    if (fs_ == nullptr) {
      throw IllegalStateError("no FileSystemView available in this context");
    }
    return *fs_;
  }

 private:
  const Config& conf_;
  Counters& counters_;
  EmitFn emit_;
  HeapFn heap_;
  FileSystemView* fs_;
};

/// Iterates the values of one reduce group.
class ValuesIterator {
 public:
  virtual ~ValuesIterator() = default;
  /// Next raw value, or nullopt at the end of the group.
  virtual std::optional<std::string_view> next() = 0;

  /// Typed convenience.
  template <typename V>
  std::optional<V> nextTyped() {
    const auto raw = next();
    if (!raw) return std::nullopt;
    return MrCodec<V>::dec(*raw);
  }
};

class Mapper {
 public:
  virtual ~Mapper() = default;
  virtual void setup(TaskContext&) {}
  /// Called once per input record.
  virtual void map(std::string_view key, std::string_view value,
                   TaskContext& ctx) = 0;
  /// Called after the last record — where in-mapper combining flushes.
  virtual void cleanup(TaskContext&) {}
};

class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual void setup(TaskContext&) {}
  /// Called once per distinct key with all its values.
  virtual void reduce(std::string_view key, ValuesIterator& values,
                      TaskContext& ctx) = 0;
  virtual void cleanup(TaskContext&) {}
};

class Partitioner {
 public:
  virtual ~Partitioner() = default;
  /// Maps a key to a reduce partition in [0, num_partitions).
  virtual uint32_t partition(std::string_view key,
                             uint32_t num_partitions) const = 0;
};

/// Hadoop's default: hash(key) mod partitions (FNV-1a here).
class HashPartitioner final : public Partitioner {
 public:
  uint32_t partition(std::string_view key,
                     uint32_t num_partitions) const override {
    uint64_t h = 1469598103934665603ull;
    for (const char c : key) {
      h ^= static_cast<uint8_t>(c);
      h *= 1099511628211ull;
    }
    return static_cast<uint32_t>(h % num_partitions);
  }
};

using MapperFactory = std::function<std::unique_ptr<Mapper>()>;
using ReducerFactory = std::function<std::unique_ptr<Reducer>()>;
using PartitionerFactory = std::function<std::unique_ptr<Partitioner>()>;

/// Wraps a callable as a Mapper — handy for small jobs and tests.
template <typename Fn>
class LambdaMapper final : public Mapper {
 public:
  explicit LambdaMapper(Fn fn) : fn_(std::move(fn)) {}
  void map(std::string_view key, std::string_view value,
           TaskContext& ctx) override {
    fn_(key, value, ctx);
  }

 private:
  Fn fn_;
};

template <typename Fn>
MapperFactory mapperFromLambda(Fn fn) {
  return [fn]() { return std::make_unique<LambdaMapper<Fn>>(fn); };
}

template <typename Fn>
class LambdaReducer final : public Reducer {
 public:
  explicit LambdaReducer(Fn fn) : fn_(std::move(fn)) {}
  void reduce(std::string_view key, ValuesIterator& values,
              TaskContext& ctx) override {
    fn_(key, values, ctx);
  }

 private:
  Fn fn_;
};

template <typename Fn>
ReducerFactory reducerFromLambda(Fn fn) {
  return [fn]() { return std::make_unique<LambdaReducer<Fn>>(fn); };
}

}  // namespace mh::mr
