#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// \file types.h
/// Plain data types shared across the HDFS implementation: blocks, located
/// blocks, file status, datanode descriptors, fsck reports.

namespace mh::hdfs {

/// Globally unique block identifier, allocated by the NameNode.
using BlockId = uint64_t;

/// Well-known ports (mirroring Hadoop 1.x defaults).
inline constexpr int kNameNodePort = 8020;
inline constexpr int kDataNodePort = 50010;

/// A block: identity plus the number of bytes it holds.
struct Block {
  BlockId id = 0;
  uint64_t size = 0;

  bool operator==(const Block&) const = default;
};

/// A block plus where its replicas currently live — what
/// getBlockLocations() hands to clients and the JobTracker.
struct LocatedBlock {
  Block block;
  uint64_t offset = 0;             ///< byte offset of this block in the file
  std::vector<std::string> hosts;  ///< replica locations, best-first
};

/// Metadata for one namespace entry.
struct FileStatus {
  std::string path;
  bool is_dir = false;
  uint64_t length = 0;       ///< total bytes (files only)
  uint16_t replication = 0;  ///< target replication factor (files only)
  uint64_t block_size = 0;
  int64_t mtime_ms = 0;
};

/// NameNode's view of one DataNode, as shown by `hadoop dfsadmin -report`.
struct DataNodeInfo {
  std::string host;
  std::string rack;
  uint64_t capacity_bytes = 0;
  uint64_t used_bytes = 0;
  uint64_t num_blocks = 0;
  int64_t millis_since_heartbeat = 0;
  bool alive = false;
};

/// Result of a namespace + block-map audit (`hadoop fsck /`).
struct FsckReport {
  uint64_t total_files = 0;
  uint64_t total_dirs = 0;
  uint64_t total_bytes = 0;
  uint64_t total_blocks = 0;
  uint64_t min_replication_blocks = 0;  ///< blocks meeting their target
  uint64_t under_replicated = 0;
  uint64_t over_replicated = 0;
  uint64_t corrupt_blocks = 0;   ///< blocks with at least one corrupt replica
  uint64_t missing_blocks = 0;   ///< blocks with zero live replicas
  bool healthy = false;          ///< no corrupt and no missing blocks

  /// Renders the classic fsck summary block.
  std::string render() const;
};

/// A block's per-512-byte-chunk CRC-32Cs as the writer computed them; they
/// ride in the writeBlock request beside the payload.
struct ChunkCrcs {
  std::vector<uint32_t> values;
};

/// Commands a heartbeat reply can carry back to a DataNode.
struct DataNodeCommand {
  enum class Kind : uint8_t {
    kReplicate = 0,  ///< copy `block` to each host in `targets`
    kDelete = 1,     ///< drop the local replica of `block`
  };
  Kind kind = Kind::kDelete;
  BlockId block = 0;
  std::vector<std::string> targets;

  bool operator==(const DataNodeCommand&) const = default;
};

/// What a heartbeat brings back from the NameNode.
struct HeartbeatReply {
  /// Set when the NameNode does not know this DataNode (e.g. after a
  /// NameNode restart): re-register and send a full block report.
  bool reregister = false;
  /// Set when the NameNode has no block report since registration.
  bool request_block_report = false;
  std::vector<DataNodeCommand> commands;
};

}  // namespace mh::hdfs
