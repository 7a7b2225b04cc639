#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "mh/common/bytes.h"
#include "mh/common/metrics.h"
#include "mh/common/trace.h"
#include "mh/hdfs/namespace.h"
#include "mh/hdfs/types.h"

/// \file edit_log.h
/// The NameNode's write-ahead journal: every namespace mutation is appended
/// to an on-disk edit log before the operation is acknowledged, so a crash
/// loses nothing that a client was told succeeded (the production answer to
/// the paper's "at least fifteen minutes" restart-integrity anecdote).
///
/// Storage layout, under one directory (`dfs.namenode.name.dir`):
///
///   fsimage_<txn>   checkpoint: the namespace serialized by
///                   Namespace::saveImage(), covering all edits <= txn
///   edits_<txn>     a segment of framed edit records, first txn in the name
///
/// Each record is framed as [u32 length][u32 CRC-32C of payload][payload].
/// A torn final record (partial frame or checksum mismatch at the very tail
/// of the last segment — a crash mid-write) is tolerated: replay stops at
/// the last complete transaction. A checksum mismatch anywhere else is real
/// corruption and recovery refuses to proceed (ChecksumError) rather than
/// ever building a wrong namespace.
///
/// Checkpointing follows the secondary-NameNode idiom: roll the current
/// segment, write fsimage_<lastTxn>, then retire every segment (and older
/// image) the new image covers.

namespace mh::hdfs {

enum class EditOp : uint8_t {
  kMkdirs = 1,
  kCreate = 2,
  kAddBlock = 3,
  kComplete = 4,
  kDelete = 5,
  kRename = 6,
  kSetReplication = 7,
};

/// One journaled namespace mutation. Which fields are meaningful depends on
/// `op`; unused fields stay default.
struct EditRecord {
  uint64_t txn = 0;  ///< Assigned by EditLog::logEdit.
  EditOp op = EditOp::kMkdirs;
  std::string path;           ///< Primary path (the source for kRename).
  std::string path2;          ///< kRename destination.
  uint16_t replication = 0;   ///< kCreate / kSetReplication.
  uint64_t block_size = 0;    ///< kCreate.
  Block block;                ///< kAddBlock.
  std::vector<Block> blocks;  ///< kComplete: the finalized block list.
  bool recursive = false;     ///< kDelete.

  bool operator==(const EditRecord&) const = default;
};

/// Serializes one record's payload (no frame). Exposed for tests.
Bytes encodeEditRecord(const EditRecord& rec);
/// Inverse of encodeEditRecord; throws InvalidArgumentError on malformed
/// input (only reachable when a CRC-valid frame holds a bad payload).
EditRecord decodeEditRecord(std::string_view payload);

/// Applies one record to a namespace. Idempotent in sequence context:
/// replaying a whole log twice leaves exactly the state of replaying it
/// once (kCreate resets an existing path, kRename clobbers a stale
/// destination, kDelete of a missing path is a no-op, ...).
void applyEdit(Namespace& ns, const EditRecord& rec);

struct ReplayResult {
  uint64_t last_txn = 0;     ///< Highest txn applied (0 when none).
  uint64_t applied = 0;      ///< Records applied (txn > from_txn).
  BlockId max_block_id = 0;  ///< Highest block id journaled, even if the
                             ///< file was later deleted — the id allocator
                             ///< must never re-issue it (a stale replica of
                             ///< the old block would alias the new one).
};

/// Replays `edits` into `ns`, skipping records with txn <= from_txn (those
/// are covered by the fsimage the namespace was loaded from).
ReplayResult replayEdits(Namespace& ns, const std::vector<EditRecord>& edits,
                         uint64_t from_txn = 0);

/// Everything recovered from an edit-log directory.
struct LoadedStorage {
  Bytes image;            ///< Latest checkpoint; empty = fresh namespace.
  uint64_t image_txn = 0; ///< Last txn the image covers.
  std::vector<EditRecord> edits;  ///< All readable records, ascending txn.
  uint64_t last_txn = 0;  ///< max(image_txn, last edit txn).
};

class EditLog {
 public:
  struct Options {
    std::filesystem::path dir;
    /// "always": every logEdit is on disk before it returns (an acked
    /// mutation survives any crash). "batch": records buffer in memory and
    /// hit disk every `batch_txns` (or on sync/roll/checkpoint); a crash
    /// loses the unsynced suffix, like a real page cache.
    std::string sync = "always";
    uint64_t batch_txns = 64;
    MetricsRegistry* metrics = nullptr;  ///< Optional: edits.* signals.
    TraceCollector* tracer = nullptr;    ///< Optional: EDIT_SYNC spans.
  };

  /// Opens the directory for appending at txn `last_txn + 1`. Creates and
  /// formats the directory when it is missing or empty (the fresh-format
  /// case); pass the values recovered by load() when state exists.
  explicit EditLog(Options options, uint64_t last_txn = 0,
                   uint64_t checkpoint_txn = 0);
  ~EditLog();
  EditLog(const EditLog&) = delete;
  EditLog& operator=(const EditLog&) = delete;

  /// Assigns the next txn id, frames and journals the record, and syncs it
  /// per policy. Returns the txn id.
  uint64_t logEdit(EditRecord rec);

  /// Flushes every pending record to disk.
  void sync();

  /// Syncs and starts a new segment at lastTxn()+1 (no-op when the current
  /// segment is empty). Returns the active segment's first txn.
  uint64_t roll();

  /// Secondary-NameNode-style checkpoint of an image covering every txn up
  /// to lastTxn(): roll, write fsimage_<lastTxn> (atomic tmp+rename), then
  /// retire the covered segments and any older image.
  void checkpoint(const Bytes& image);

  /// Simulated kill -9: drops records not yet synced to disk. The next
  /// logEdit txn follows the last *synced* txn, as a restarted process
  /// would see.
  void discardPending();

  uint64_t lastTxn() const { return last_txn_; }
  uint64_t lastSyncedTxn() const { return synced_txn_; }
  uint64_t lastCheckpointTxn() const { return checkpoint_txn_; }
  uint64_t txnsSinceCheckpoint() const { return last_txn_ - checkpoint_txn_; }
  const std::filesystem::path& dir() const { return dir_; }

  /// True when `dir` holds any edit-log state (an image or a segment).
  static bool hasState(const std::filesystem::path& dir);

  /// Reads the latest image and every edit segment. Tolerates a torn tail
  /// in the final segment; throws ChecksumError on mid-log corruption and
  /// IoError on structural damage (torn non-final segment, txns out of
  /// order, unreadable image). Safe on the directory of a running
  /// NameNode: a file a concurrent checkpoint retires is listed again.
  static LoadedStorage load(const std::filesystem::path& dir);

 private:
  void openSegment(uint64_t first_txn);

  std::filesystem::path dir_;
  bool sync_always_ = true;
  uint64_t batch_txns_ = 64;
  MetricsRegistry* metrics_ = nullptr;
  TraceCollector* tracer_ = nullptr;

  std::ofstream out_;
  uint64_t segment_first_txn_ = 1;
  uint64_t last_txn_ = 0;
  uint64_t synced_txn_ = 0;
  uint64_t checkpoint_txn_ = 0;
  Bytes pending_;  ///< Framed records not yet written + flushed.
  uint64_t pending_txns_ = 0;
};

}  // namespace mh::hdfs
