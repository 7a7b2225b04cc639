#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "mh/common/buffer.h"
#include "mh/common/bytes.h"
#include "mh/common/codec.h"
#include "mh/hdfs/types.h"

/// \file block_store.h
/// A DataNode's local replica storage. Replicas carry CRC-32C checksums per
/// 512-byte chunk (like HDFS's .meta sidecars). A read verifies the bytes
/// against them and throws ChecksumError on a mismatch, which is what
/// drives the corrupt-replica / re-replication machinery upstream.
///
/// Each byte is checksummed once on its way in, as in HDFS: the writer
/// computes the chunk CRCs, they travel with the block through the write
/// pipeline (receiveBlock), every DataNode stores the CRCs it received, and
/// only the pipeline tail verifies them before storing — so corruption in
/// transit is rejected instead of being checksummed as it arrives.
///
/// MemBlockStore caches the verdict per resident buffer (verified-once):
/// the first read of a replica re-hashes it, later reads skip the hash,
/// and the tail's replica starts verified because receiveBlock just checked
/// it. The verdict belongs to one store's slot: replicas sharing a pipeline
/// buffer on the forwarding DataNodes still start unverified. Any buffer
/// swap (overwrite, corruptBlock) clears the verdict, and scanAll (the block
/// scanner) always re-hashes. FileBlockStore re-verifies on every read: the
/// file can change under it.
///
/// Reads return refcounted BufferViews (buffer.h): MemBlockStore serves a
/// view of the resident replica itself — zero payload bytes move — while
/// FileBlockStore wraps the freshly read file. Replicas are immutable once
/// written; corruptBlock is copy-on-write so outstanding views never see a
/// mutation.
///
/// A MemBlockStore replica that arrives through the write pipeline
/// (receiveBlock) or re-replication (adoptStored) is a view of the request
/// the DataNode received: every replica of a block shares the one buffer
/// the writer packed, and that buffer lives until the last replica (or read
/// view) drops it. writeBlock, the codec paths and FileBlockStore keep
/// their own copy or encoding.
///
/// Compression (codec.h): when a codec is configured, writeBlock encodes
/// the payload into a framed stream and the store holds only the *stored*
/// (compressed) bytes — chunk checksums, the verified-once cache, usedBytes,
/// scanAll, and replication all operate on that resident form. readBlock
/// decodes into a fresh buffer; readBlockRange decodes only the frames
/// covering the range. blockSize always reports the RAW (logical) size the
/// namespace accounts in; storedSize reports the resident bytes.
///
/// Two implementations: MemBlockStore (fast, used by most tests and the
/// mini-cluster) and FileBlockStore (blk_<id> + blk_<id>.meta files under a
/// root directory — the "physical view at the Linux FS" from the paper's
/// Figure 2).

namespace mh::hdfs {

/// Checksum chunk width, bytes.
inline constexpr size_t kChecksumChunk = 512;

/// Computes the per-chunk CRC vector for a replica payload (crc32cChunks;
/// an empty payload has one chunk, the CRC of nothing).
std::vector<uint32_t> chunkChecksums(std::string_view data);

/// Verifies data against stored chunk CRCs; throws ChecksumError naming
/// `block_id` on the first mismatching chunk.
void verifyChunks(BlockId block_id, std::string_view data,
                  const std::vector<uint32_t>& crcs);

/// A chunk-verified replica in its resident (possibly compressed) form.
struct StoredReplica {
  BufferView stored;       ///< the resident bytes, checksum-verified
  uint64_t raw_size = 0;   ///< logical payload size after decoding
  CodecKind codec = CodecKind::kNone;  ///< how `stored` is encoded
};

class BlockStore {
 public:
  virtual ~BlockStore() = default;

  /// Configures at-rest compression (`dfs.block.compression.codec`). Blocks
  /// written afterwards are stored as framed streams; blocks already stored
  /// raw remain readable. `metrics`/`trace` (optional) route the codec's
  /// encode/decode histograms and COMPRESS/DECOMPRESS spans.
  void configureCodec(CodecKind codec, MetricsRegistry* metrics = nullptr,
                      TraceCollector* trace = nullptr,
                      std::string component = "blockstore");
  CodecKind codec() const { return codec_; }

  /// Stores a replica of the RAW payload, encoding it first when a codec is
  /// configured; overwrites any previous replica of the same block. The
  /// chunk CRCs are computed here.
  void writeBlock(BlockId id, std::string_view data);

  /// The write-pipeline receive path: `crcs` are the writer's chunk CRCs of
  /// the RAW payload, carried in the request. With `verify` (the pipeline
  /// tail) they are checked against `data` first — a mismatch throws
  /// ChecksumError and nothing is stored — and the replica starts verified.
  /// Otherwise they are stored as received, and the replica's first read
  /// checks them. Without a codec the replica holds `data` itself, no copy;
  /// with one it is stored encoded and the stored form's CRCs are computed
  /// after encoding, as writeBlock does; `crcs` then serve only the tail's
  /// check.
  void receiveBlock(BlockId id, BufferView data, std::vector<uint32_t> crcs,
                    bool verify);

  /// Adopts an already-encoded (or raw) replica byte-for-byte, holding
  /// `stored` itself — the replication receive path, which must never
  /// re-encode. Framed payloads are structurally validated to recover the
  /// raw size; their per-frame CRCs still guard the payload end-to-end
  /// (chunk checksums are computed over the wire bytes, so corruption
  /// picked up in transit is caught at decode, not masked by a fresh local
  /// checksum).
  void adoptStored(BlockId id, BufferView stored);

  /// Reads and verifies the replica in its resident form — compressed when
  /// the replica was stored with a codec. No payload copy. This is what
  /// replication ships. Throws NotFoundError / ChecksumError.
  virtual StoredReplica readStored(BlockId id) const = 0;

  /// Reads, checksum-verifies, and (when encoded) decodes the whole
  /// replica. Raw replicas are served as a view of the resident buffer —
  /// no payload copy; encoded replicas decode into a fresh buffer.
  /// Throws NotFoundError / ChecksumError, and IoError when the replica's
  /// codec disagrees with the configured one (an encoded replica must not
  /// be served as raw garbage).
  BufferView readBlock(BlockId id) const;

  /// Reads [offset, offset+len) after verifying the replica. For an
  /// encoded replica only the frames covering the range are decoded. len
  /// clamps to the block end; an offset past the end throws
  /// InvalidArgumentError.
  BufferView readBlockRange(BlockId id, uint64_t offset, uint64_t len) const;

  virtual bool hasBlock(BlockId id) const = 0;
  virtual void deleteBlock(BlockId id) = 0;

  /// RAW (logical) replica size in bytes — what the namespace accounts;
  /// throws NotFoundError.
  virtual uint64_t blockSize(BlockId id) const = 0;

  /// Resident (stored, possibly compressed) size in bytes; throws
  /// NotFoundError.
  virtual uint64_t storedSize(BlockId id) const = 0;

  /// All stored block ids (sorted), as sent in block reports.
  virtual std::vector<BlockId> listBlocks() const = 0;

  /// Number of stored replicas, without building the id list.
  virtual size_t blockCount() const { return listBlocks().size(); }

  /// Sum of replica payload bytes currently resident in the store — the
  /// STORED form, so compressed replicas count their compressed size.
  /// Outstanding read views never inflate this. Each store counts its own
  /// replicas: stores whose replicas share one pipeline buffer each count
  /// it, so their sum can exceed the process's resident bytes.
  virtual uint64_t usedBytes() const = 0;

  /// Verifies every replica's checksums; returns ids that fail. This is the
  /// periodic DataNode block scanner and the post-restart integrity check
  /// the paper reports taking 15 minutes on the real cluster.
  virtual std::vector<BlockId> scanAll() const = 0;

  /// Test/failure-injection hook: flips one byte of the stored payload
  /// without updating checksums. Throws NotFoundError. Copy-on-write:
  /// views handed out before the corruption keep seeing the clean bytes.
  virtual void corruptBlock(BlockId id, size_t byte_offset) = 0;

 protected:
  /// Stores already-encoded bytes with their chunk CRCs, logical size and
  /// codec. `verified` says the CRCs were just checked against `stored`.
  /// MemBlockStore holds the view; FileBlockStore writes it out.
  virtual void putStored(BlockId id, BufferView stored,
                         std::vector<uint32_t> crcs, uint64_t raw_size,
                         CodecKind codec, bool verified) = 0;

  /// Enforces the configured-vs-replica codec policy; raw replicas are
  /// always acceptable (blocks written before compression was enabled).
  void checkReplicaCodec(BlockId id, CodecKind replica_codec) const;

  CodecKind codec_ = CodecKind::kNone;
  MetricsRegistry* codec_metrics_ = nullptr;
  TraceCollector* codec_trace_ = nullptr;
  std::string codec_component_ = "blockstore";
};

/// Replicas held in memory.
class MemBlockStore final : public BlockStore {
 public:
  StoredReplica readStored(BlockId id) const override;
  bool hasBlock(BlockId id) const override;
  void deleteBlock(BlockId id) override;
  uint64_t blockSize(BlockId id) const override;
  uint64_t storedSize(BlockId id) const override;
  std::vector<BlockId> listBlocks() const override;
  size_t blockCount() const override;
  uint64_t usedBytes() const override;
  std::vector<BlockId> scanAll() const override;
  void corruptBlock(BlockId id, size_t byte_offset) override;

 protected:
  void putStored(BlockId id, BufferView stored, std::vector<uint32_t> crcs,
                 uint64_t raw_size, CodecKind codec,
                 bool verified) override;

 private:
  struct Replica {
    /// Stored form (encoded when codec != kNone). A pipeline replica is a
    /// slice of the received request, shared with the other replicas.
    BufferView data;
    std::vector<uint32_t> crcs;
    uint64_t raw_size = 0;
    CodecKind codec = CodecKind::kNone;
    /// Set by the tail's verified receive or the first successful read
    /// verification; later reads of the same resident buffer skip
    /// re-hashing. Any buffer swap (overwrite, corruption) resets it, so
    /// detection is never lost — and scanAll() (the block scanner) always
    /// verifies regardless.
    bool verified = false;
  };

  mutable std::mutex mutex_;
  /// mutable: const reads cache their verification verdict in the slot.
  mutable std::map<BlockId, Replica> replicas_;
  /// Running total of stored replica bytes (O(1) usedBytes; gauge reads
  /// never walk the map while the data path contends for the mutex).
  uint64_t used_bytes_ = 0;
};

/// Replicas as blk_<id> / blk_<id>.meta files under `root`.
class FileBlockStore final : public BlockStore {
 public:
  /// Creates `root` if needed; existing blk_* files are adopted (restart).
  explicit FileBlockStore(std::filesystem::path root);

  StoredReplica readStored(BlockId id) const override;
  bool hasBlock(BlockId id) const override;
  void deleteBlock(BlockId id) override;
  uint64_t blockSize(BlockId id) const override;
  uint64_t storedSize(BlockId id) const override;
  std::vector<BlockId> listBlocks() const override;
  uint64_t usedBytes() const override;
  std::vector<BlockId> scanAll() const override;
  void corruptBlock(BlockId id, size_t byte_offset) override;

  const std::filesystem::path& root() const { return root_; }

 protected:
  void putStored(BlockId id, BufferView stored, std::vector<uint32_t> crcs,
                 uint64_t raw_size, CodecKind codec,
                 bool verified) override;

 private:
  /// Meta sidecar: varint CRC count + u32 CRCs (v1), optionally followed by
  /// u8 codec id + varint raw size (v2). V1 metas — written before
  /// compression existed — imply a raw replica whose logical size is the
  /// data file's size.
  struct Meta {
    std::vector<uint32_t> crcs;
    CodecKind codec = CodecKind::kNone;
    uint64_t raw_size = 0;
    bool has_raw_size = false;
  };

  std::filesystem::path dataPath(BlockId id) const;
  std::filesystem::path metaPath(BlockId id) const;
  Meta readMeta(BlockId id) const;

  std::filesystem::path root_;
  mutable std::mutex mutex_;
};

}  // namespace mh::hdfs
