#pragma once

#include <cstdint>
#include <string_view>

/// \file config_keys.h
/// The config schema: every key the engine reads, declared once with its
/// type, default, inclusive range (or allowed values) and scope. Read a key
/// through its typed handle, `conf.get(keys::kIoSortMb)`; Config::validate
/// rejects what the table does not admit. docs/CONFIG.md describes each key.

namespace mh::keys {

/// A job key travels in JobSpec::conf; one a job leaves unset resolves from
/// the cluster conf, then from the table default. A daemon key configures
/// one daemon and is rejected in a job conf.
enum class Scope : uint8_t { kJob, kDaemon };

/// A typed handle on one table row: `T` is int64_t, double or bool (the key
/// admits [min, max]) or std::string_view (any text, or one of `choices`).
template <typename T>
struct Key {
  std::string_view name;
  T def, min, max;
  std::string_view choices;  ///< '|'-separated; empty admits any text
  Scope scope;
};

// X(handle, type, name, default, min, max, choices, scope)
// clang-format off
#define MH_CONFIG_KEYS(X) \
  X(kDfsReplication, int64_t, "dfs.replication", 3, 1, 512, "", Daemon) \
  X(kDfsBlocksize, int64_t, "dfs.blocksize", 65536, 1, int64_t{1} << 40, "", Daemon) \
  X(kDfsHeartbeatIntervalMs, int64_t, "dfs.heartbeat.interval.ms", 100, 1, 86'400'000, "", Daemon) \
  X(kNamenodeHeartbeatExpiryMs, int64_t, "dfs.namenode.heartbeat.expiry.ms", 1000, 1, 86'400'000, "", Daemon) \
  X(kNamenodeMonitorIntervalMs, int64_t, "dfs.namenode.monitor.interval.ms", 50, 1, 86'400'000, "", Daemon) \
  X(kNamenodePendingReplicationTimeoutMs, int64_t, "dfs.namenode.pending.replication.timeout.ms", 2000, 0, 86'400'000, "", Daemon) \
  X(kNamenodeNameDir, std::string_view, "dfs.namenode.name.dir", "", "", "", "", Daemon) \
  X(kNamenodeEditsSync, std::string_view, "dfs.namenode.edits.sync", "always", "", "", "always|batch", Daemon) \
  X(kNamenodeCheckpointTxns, int64_t, "dfs.namenode.checkpoint.txns", 100000, 0, INT64_MAX, "", Daemon) \
  X(kNamenodeCheckpointPeriodMs, int64_t, "dfs.namenode.checkpoint.period.ms", 0, 0, 86'400'000, "", Daemon) \
  X(kDatanodeCapacity, int64_t, "dfs.datanode.capacity", 1'073'741'824, 0, INT64_MAX, "", Daemon) \
  X(kDatanodeRack, std::string_view, "dfs.datanode.rack", "/default-rack", "", "", "", Daemon) \
  X(kBlockCompressionCodec, std::string_view, "dfs.block.compression.codec", "none", "", "", "none|mh-lz|var-rle", Daemon) \
  X(kClientRetries, int64_t, "dfs.client.retries", 3, 1, 100, "", Daemon) \
  X(kClientRetryBackoffMs, int64_t, "dfs.client.retry.backoff.ms", 5, 0, 60'000, "", Daemon) \
  X(kClientParallelReads, int64_t, "dfs.client.parallel.reads", 4, 1, 64, "", Daemon) \
  X(kTrackerMapSlots, int64_t, "mapred.tasktracker.map.tasks.maximum", 2, 0, 64, "", Daemon) \
  X(kTrackerReduceSlots, int64_t, "mapred.tasktracker.reduce.tasks.maximum", 1, 0, 64, "", Daemon) \
  X(kTrackerHeartbeatMs, int64_t, "mapred.tasktracker.heartbeat.ms", 50, 1, 86'400'000, "", Daemon) \
  X(kTrackerMemoryBytes, int64_t, "mapred.tasktracker.memory.bytes", INT64_MAX, 0, INT64_MAX, "", Daemon) \
  X(kTrackerOomPolicy, std::string_view, "mapred.tasktracker.oom.policy", "fail-task", "", "", "fail-task|crash-tracker", Daemon) \
  X(kTrackerExpiryMs, int64_t, "mapred.tasktracker.expiry.ms", 1000, 1, 86'400'000, "", Daemon) \
  X(kReduceParallelCopies, int64_t, "mapred.reduce.parallel.copies", 5, 1, 64, "", Daemon) \
  X(kShuffleFetchRetries, int64_t, "mapred.shuffle.fetch.retries", 3, 1, 100, "", Daemon) \
  X(kShuffleFetchBackoffMs, int64_t, "mapred.shuffle.fetch.backoff.ms", 5, 0, 60'000, "", Daemon) \
  X(kJobTrackerMonitorIntervalMs, int64_t, "mapred.jobtracker.monitor.interval.ms", 50, 1, 86'400'000, "", Daemon) \
  X(kMaxAttempts, int64_t, "mapred.max.attempts", 4, 1, 1000, "", Daemon) \
  X(kTaskTimeoutMs, int64_t, "mapred.task.timeout.ms", 600'000, 0, 86'400'000, "", Daemon) \
  X(kSpeculativeExecution, bool, "mapred.speculative.execution", false, false, true, "", Daemon) \
  X(kSpeculativeMinMs, int64_t, "mapred.speculative.min.ms", 500, 0, 86'400'000, "", Daemon) \
  X(kHbaseWalSegmentOps, int64_t, "hbase.wal.segment.ops", 64, 1, 1'000'000, "", Daemon) \
  X(kBatchCleanupDelaySecs, double, "batch.cleanup.delay.secs", 900, 0, 1e9, "", Daemon) \
  X(kBatchReassignBeforeCleanup, bool, "batch.reassign.before.cleanup", true, false, true, "", Daemon) \
  X(kIoSortMb, int64_t, "io.sort.mb", 32, 1, 2047, "", Job) \
  X(kIoSortSpillPercent, double, "io.sort.spill.percent", 0.8, 0.05, 1, "", Job) \
  X(kReadaheadBytes, int64_t, "mapred.linerecordreader.readahead.bytes", 65536, 1, int64_t{1} << 30, "", Job) \
  X(kMapOutputCodec, std::string_view, "mapred.map.output.compression.codec", "none", "", "", "none|mh-lz|var-rle", Job) \
  X(kInnodeCombine, bool, "mapred.innode.combine", false, false, true, "", Job) \
  X(kReduceSlowstart, double, "mapred.reduce.slowstart.completed.maps", 0.05, 0, 1, "", Job) \
  X(kMoviesSidePath, std::string_view, "movies.side.path", "", "", "", "", Job) \
  X(kMusicSongsPath, std::string_view, "music.songs.path", "", "", "", "", Job)
// clang-format on

#define MH_KEY(handle, type, name, def, lo, hi, choices, scope) \
  inline constexpr Key<type> handle{name, def, lo, hi, choices,  \
                                    Scope::k##scope};
MH_CONFIG_KEYS(MH_KEY)
#undef MH_KEY

/// Calls `fn(handle)` for every row, in table order.
template <typename Fn>
void forEach(Fn&& fn) {
#define MH_EACH(handle, ...) fn(handle);
  MH_CONFIG_KEYS(MH_EACH)
#undef MH_EACH
}

}  // namespace mh::keys
