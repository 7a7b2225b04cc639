#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "mh/common/rng.h"
#include "mh/hdfs/types.h"

/// \file block_manager.h
/// The NameNode's block map: for every block, which DataNodes hold a live
/// replica, which replicas are known corrupt, and what the target
/// replication factor is. Pure state (no locking — the NameNode serializes
/// access); the NameNode's replication monitor consumes the
/// under/over-replication queries to emit DataNode commands.

namespace mh::hdfs {

/// Candidate datanode for placement decisions.
struct PlacementCandidate {
  std::string host;
  uint64_t free_bytes = 0;
  std::string rack;
};

/// Chooses up to `count` distinct target hosts following HDFS's default
/// placement policy:
///   1. the writer's own node when it is a datanode (data locality),
///   2. a node on a DIFFERENT rack (survives a rack failure),
///   3. a second node on that remote rack (bounds inter-rack traffic),
///   4+ random.
/// Within each step, candidates are weighted toward free space; hosts in
/// `exclude` are never chosen. When the topology cannot satisfy a rack
/// constraint the step falls back to "any node". Returns fewer than `count`
/// hosts when the cluster is too small.
std::vector<std::string> choosePlacement(
    const std::vector<PlacementCandidate>& candidates, size_t count,
    const std::string& preferred, const std::set<std::string>& exclude,
    Rng& rng);

class BlockManager {
 public:
  /// Allocates a fresh block id and registers the block with the given
  /// target replication. Size starts at 0 and is set by commitBlock().
  Block allocateBlock(uint16_t replication);

  /// Registers a block already known from an fsimage (NameNode restart).
  void registerBlock(Block block, uint16_t replication);

  /// Guarantees allocateBlock never re-issues an id <= max_seen. Needed on
  /// restart for block ids that were journaled but whose files were later
  /// deleted: a DataNode may still hold the old replica, and re-issuing the
  /// id would alias it onto the new block.
  void reserveBlockIds(BlockId max_seen);

  /// Records the finalized size of a block.
  void commitBlock(BlockId id, uint64_t size);

  /// Forgets a block entirely (file deleted). Unknown ids are ignored.
  void removeBlock(BlockId id);

  bool contains(BlockId id) const;
  uint64_t blockCount() const { return blocks_.size(); }

  /// Replica lifecycle.
  void addReplica(BlockId id, const std::string& host);
  void removeReplica(BlockId id, const std::string& host);
  /// Drops all replicas hosted by `host` (datanode death); returns the
  /// affected block ids.
  std::vector<BlockId> removeAllReplicasOn(const std::string& host);

  /// Marks one replica corrupt (client checksum failure / scanner report).
  void markCorrupt(BlockId id, const std::string& host);
  bool isCorrupt(BlockId id, const std::string& host) const;

  /// Hosts with a live, non-corrupt replica. Unknown blocks yield {}.
  std::vector<std::string> liveReplicas(BlockId id) const;
  /// Hosts whose replica is marked corrupt.
  std::vector<std::string> corruptReplicas(BlockId id) const;

  uint16_t expectedReplication(BlockId id) const;

  /// Changes a block's target replication (setrep). Unknown ids ignored.
  void setExpectedReplication(BlockId id, uint16_t replication);
  uint64_t blockSize(BlockId id) const;

  /// Blocks with fewer live replicas than their target but at least one
  /// live replica (repairable).
  std::vector<BlockId> underReplicated() const;
  /// Blocks with more live replicas than their target.
  std::vector<BlockId> overReplicated() const;
  /// Blocks with zero live replicas.
  std::vector<BlockId> missing() const;
  /// Blocks with at least one corrupt replica.
  std::vector<BlockId> withCorruptReplicas() const;

  /// Number of blocks with >= 1 live replica (safe-mode accounting).
  uint64_t reportedBlocks() const;

 private:
  struct BlockInfo {
    uint64_t size = 0;
    uint16_t replication = 1;
    std::set<std::string> live;
    std::set<std::string> corrupt;
  };

  const BlockInfo& info(BlockId id) const;

  // Hash map: the block map is the NameNode's hottest structure (every
  // report, read, and replication pass hits it), and at a million blocks
  // O(log n) tree walks dominate replay. Queries that drive scheduling
  // return sorted ids so monitor behavior stays deterministic.
  std::unordered_map<BlockId, BlockInfo> blocks_;
  BlockId next_id_ = 1;
};

}  // namespace mh::hdfs
