#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "mh/common/config.h"
#include "mh/common/rng.h"
#include "mh/hdfs/block_manager.h"
#include "mh/hdfs/edit_log.h"
#include "mh/hdfs/namespace.h"
#include "mh/hdfs/types.h"
#include "mh/net/network.h"

/// \file namenode.h
/// The HDFS master: namespace tree + block map + datanode liveness +
/// replication management + safe mode — all metadata in memory, exactly the
/// structure the paper's Figure 2 teaches.
///
/// Threading model mirrors Hadoop 1.x's FSNamesystem: one big lock
/// serializes every operation; a background monitor thread expires stale
/// heartbeats and schedules re-replication / invalidation work, which is
/// delivered to DataNodes piggybacked on their heartbeat replies.
///
/// Held beats: a DataNode's background heartbeat says it may wait. With
/// nothing to tell it, the NameNode holds that beat (releasing the lock)
/// until it queues a command for that host, or dfs.heartbeat.interval.ms
/// passes — so a delete's kDelete reaches the DataNodes at once instead of
/// on their next beat, and an idle DataNode still beats once per interval.
/// Queuing a command wakes only the beat it addresses. Stop and crash
/// release every held beat, and the caller's cancellation (the DataNode
/// stopping, or a manual heartbeat) releases its own.
///
/// Durability (docs/CONFIG.md lists the journal/checkpoint keys): when
/// `dfs.namenode.name.dir` is set, every namespace mutation is journaled to
/// an on-disk edit log before the RPC returns, the monitor writes periodic
/// fsimage checkpoints, and the plain constructor recovers image + edits
/// from that directory (or formats it when empty) — a crash loses no acked
/// mutation.

namespace mh::hdfs {

class NameNode {
 public:
  /// Fresh, empty namespace — unless `dfs.namenode.name.dir` names a
  /// directory with existing edit-log state, in which case the namespace is
  /// recovered from the latest fsimage plus every newer edit segment
  /// (tolerating a torn final record) and the NameNode starts in safe mode
  /// until block reports cover the recovered block map. A missing or empty
  /// directory is formatted and the NameNode starts clean.
  NameNode(Config conf, std::shared_ptr<net::Network> network,
           std::string host = "namenode");

  /// Restart from a saved fsimage. The namespace and expected blocks are
  /// restored, but no replica locations are known, so the NameNode starts in
  /// **safe mode** and leaves only when block reports cover 99.9% of the
  /// blocks — the paper's "at least fifteen minutes for all the Data Nodes
  /// to check for data integrity and report back to the Name Node".
  NameNode(Config conf, std::shared_ptr<net::Network> network,
           std::string host, std::string_view fsimage);

  ~NameNode();
  NameNode(const NameNode&) = delete;
  NameNode& operator=(const NameNode&) = delete;

  /// Binds the RPC endpoint and starts the monitor thread.
  void start();

  /// Stops the monitor and unbinds the endpoint. Idempotent. Synced edits
  /// are flushed, so a clean stop + reconstruct recovers everything.
  void stop();

  /// Simulated kill -9: the host drops off the fabric (in-flight replies
  /// are lost), the monitor dies, and any edit-log records buffered but not
  /// yet synced are discarded — exactly what a machine crash does to the
  /// page cache. The endpoint is released so a new NameNode can recover
  /// from `dfs.namenode.name.dir` and bind. Idempotent.
  void crash();

  const std::string& host() const { return host_; }

  // ----- client protocol -------------------------------------------------

  void mkdirs(const std::string& path);
  bool exists(const std::string& path) const;
  FileStatus getFileStatus(const std::string& path) const;
  std::vector<FileStatus> listStatus(const std::string& path) const;
  std::vector<std::string> listFilesRecursive(const std::string& path) const;

  /// Deletes a path; returns false if it did not exist. Freed blocks are
  /// scheduled for invalidation on their DataNodes.
  bool remove(const std::string& path, bool recursive);

  void rename(const std::string& from, const std::string& to);

  /// Starts a new file. replication/block_size of 0 mean "use the config
  /// default".
  void create(const std::string& path, uint16_t replication = 0,
              uint64_t block_size = 0);

  /// Allocates the next block of an under-construction file and chooses the
  /// replica pipeline. `client_host` gets the first replica when it is a
  /// live DataNode (the data-locality placement rule).
  LocatedBlock addBlock(const std::string& path,
                        const std::string& client_host);

  /// Finalizes a file: records block sizes into the namespace.
  void completeFile(const std::string& path);

  /// Every block of the file with current replica locations, best-first.
  std::vector<LocatedBlock> getBlockLocations(const std::string& path) const;

  /// Client-side checksum failure: marks the replica corrupt; the monitor
  /// re-replicates from a good copy and then invalidates the bad one.
  void reportBadBlock(BlockId block, const std::string& host);

  /// Changes a file's target replication; the monitor converges the actual
  /// replica counts (replicating up or invalidating down).
  void setReplication(const std::string& path, uint16_t replication);

  // ----- datanode protocol ------------------------------------------------

  void registerDataNode(
      const std::string& host, uint64_t capacity_bytes,
      const std::string& rack = std::string(keys::kDatanodeRack.def));

  /// With `may_wait` and nothing to say, holds the beat until a command is
  /// queued for `host`, the interval passes, `cancel` fires, or the
  /// NameNode stops. A cancelled beat leaves its commands queued.
  HeartbeatReply heartbeat(const std::string& host, uint64_t capacity_bytes,
                           uint64_t used_bytes, uint64_t num_blocks,
                           bool may_wait = false,
                           std::stop_token cancel = {});

  /// Full replica inventory from one DataNode. Returns block ids the
  /// DataNode should invalidate (blocks the NameNode no longer knows).
  std::vector<BlockId> blockReport(const std::string& host,
                                   const std::vector<Block>& blocks);

  /// One replica finished writing on `host` (pipeline or re-replication).
  /// Returns false for a block the NameNode no longer knows — e.g. a
  /// re-replication that landed after its file was deleted — which the
  /// DataNode must invalidate, as for an invalid id in a block report.
  bool blockReceived(const std::string& host, Block block);

  // ----- admin ------------------------------------------------------------

  FsckReport fsck() const;
  std::vector<DataNodeInfo> datanodeReport() const;
  bool inSafeMode() const;
  /// Manually enter/leave safe mode (dfsadmin -safemode enter/leave).
  void setSafeMode(bool on);
  /// Serialized namespace for restart.
  Bytes saveImage() const;

  /// Forces a checkpoint now (dfsadmin -saveNamespace): writes
  /// fsimage_<lastTxn> and retires covered edit segments. Returns the txn
  /// the image covers. Throws IllegalStateError when journaling is off.
  uint64_t saveNamespace();

  /// Closes the current edit segment and opens a new one (dfsadmin
  /// -rollEdits). Returns the new segment's first txn. Throws
  /// IllegalStateError when journaling is off.
  uint64_t rollEdits();

  /// True when journaling to dfs.namenode.name.dir is active.
  bool journaling() const { return edits_ != nullptr; }

  uint64_t totalBlocks() const;
  uint64_t liveDataNodes() const;

  /// DataNode heartbeats being held right now (the "heartbeats.held"
  /// gauge).
  size_t heldHeartbeats() const;

  /// Milliseconds since the stalest live DataNode's last heartbeat (0 when
  /// no DataNode is live) — the "heartbeat staleness" gauge.
  int64_t maxHeartbeatStalenessMillis() const;

  /// Runs one monitor pass synchronously (deterministic tests).
  void runMonitorOnce();

 private:
  struct DataNodeDescriptor {
    std::string rack;
    uint64_t capacity = 0;
    uint64_t used = 0;
    uint64_t num_blocks = 0;
    int64_t last_heartbeat_ms = 0;  // steady-clock ms
    bool alive = false;
    bool reported = false;  // block report received since (re-)registration
    std::vector<DataNodeCommand> pending_commands;
    /// The held heartbeat's wake-up, while one is held.
    std::condition_variable_any* held_beat = nullptr;
  };

  static int64_t steadyMillis();
  void installRpc();
  void recoverOrFormatStorage();
  void journalLocked(EditRecord rec);
  uint64_t checkpointLocked();
  void maybeCheckpointLocked();
  void checkNotInSafeModeLocked(const char* op) const;
  void maybeLeaveSafeModeLocked();
  void queueInvalidateLocked(const std::vector<Block>& blocks);
  /// Queues a command for `host` and wakes its held beat, if any.
  void queueCommandLocked(const std::string& host, DataNodeCommand command);
  void releaseHeldBeatsLocked();
  std::vector<PlacementCandidate> aliveCandidatesLocked() const;
  void monitorPassLocked();
  void expireHeartbeatsLocked();
  void scheduleReplicationLocked();
  void handleOverReplicationLocked();
  void handleCorruptReplicasLocked();

  Config conf_;
  std::shared_ptr<net::Network> network_;
  std::string host_;

  // Claimed from the network's registry at construction, before any lock_
  // acquisition; incremented without registry lookups on hot paths.
  MetricsRegistry* metrics_ = nullptr;
  TraceCollector* tracer_ = nullptr;

  mutable std::mutex lock_;  // the FSNamesystem lock
  Namespace namespace_;
  BlockManager blocks_;
  std::unique_ptr<EditLog> edits_;  // null when journaling is off
  int64_t last_checkpoint_steady_ms_ = 0;
  std::map<std::string, DataNodeDescriptor> datanodes_;
  std::map<BlockId, int64_t> pending_replications_;  // block -> scheduled at
  bool safe_mode_ = false;
  bool started_ = false;
  static constexpr uint64_t kPlacementSeed = 1234;  ///< runs replay
  mutable Rng rng_{kPlacementSeed};

  std::jthread monitor_;
};

}  // namespace mh::hdfs
