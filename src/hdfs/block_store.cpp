#include "mh/hdfs/block_store.h"

#include <algorithm>
#include <fstream>

#include "mh/common/crc32.h"
#include "mh/common/error.h"

namespace mh::hdfs {

namespace fs = std::filesystem;

std::vector<uint32_t> chunkChecksums(std::string_view data) {
  if (data.empty()) return {crc32c("")};
  std::vector<uint32_t> crcs((data.size() + kChecksumChunk - 1) /
                             kChecksumChunk);
  crc32cChunks(data, kChecksumChunk, crcs.data());
  return crcs;
}

void verifyChunks(BlockId block_id, std::string_view data,
                  const std::vector<uint32_t>& crcs) {
  const auto expected = chunkChecksums(data);
  if (expected.size() != crcs.size()) {
    throw ChecksumError("block " + std::to_string(block_id) +
                        " chunk count mismatch");
  }
  for (size_t i = 0; i < crcs.size(); ++i) {
    if (expected[i] != crcs[i]) {
      throw ChecksumError("block " + std::to_string(block_id) + " chunk " +
                          std::to_string(i));
    }
  }
}

// ------------------------------------------------------------------ base

void BlockStore::configureCodec(CodecKind codec, MetricsRegistry* metrics,
                                TraceCollector* trace, std::string component) {
  codec_ = codec;
  codec_metrics_ = metrics;
  codec_trace_ = trace;
  codec_component_ = std::move(component);
}

void BlockStore::checkReplicaCodec(BlockId id, CodecKind replica_codec) const {
  if (replica_codec == CodecKind::kNone || replica_codec == codec_) return;
  throw IoError("block " + std::to_string(id) + " is " +
                std::string(codecName(replica_codec)) +
                " encoded but store codec is " +
                std::string(codecName(codec_)));
}

void BlockStore::writeBlock(BlockId id, std::string_view data) {
  if (codec_ == CodecKind::kNone) {
    putStored(id, Buffer::copyOf(data), chunkChecksums(data), data.size(),
              CodecKind::kNone, /*verified=*/false);
    return;
  }
  Bytes encoded = codecEncode(codec_, data, codec_metrics_, codec_trace_,
                              codec_component_);
  std::vector<uint32_t> crcs = chunkChecksums(encoded);
  putStored(id, std::move(encoded), std::move(crcs), data.size(), codec_,
            /*verified=*/false);
}

void BlockStore::receiveBlock(BlockId id, BufferView data,
                              std::vector<uint32_t> crcs, bool verify) {
  if (verify) verifyChunks(id, data.view(), crcs);
  if (codec_ != CodecKind::kNone) {
    writeBlock(id, data.view());
    return;
  }
  const uint64_t raw_size = data.size();
  putStored(id, std::move(data), std::move(crcs), raw_size, CodecKind::kNone,
            verify);
}

void BlockStore::adoptStored(BlockId id, BufferView stored) {
  // Header walk only: the raw size is recovered without decompressing,
  // and a torn stream is rejected before it lands in the store.
  const EncodedStreamInfo info =
      isEncodedStream(stored.view())
          ? encodedStreamInfo(stored.view())
          : EncodedStreamInfo{.codec = CodecKind::kNone,
                              .raw_size = stored.size()};
  std::vector<uint32_t> crcs = chunkChecksums(stored.view());
  putStored(id, std::move(stored), std::move(crcs), info.raw_size, info.codec,
            /*verified=*/false);
}

BufferView BlockStore::readBlock(BlockId id) const {
  StoredReplica replica = readStored(id);
  checkReplicaCodec(id, replica.codec);
  if (replica.codec == CodecKind::kNone) return std::move(replica.stored);
  return BufferView(codecDecode(replica.stored.view(), codec_metrics_,
                                codec_trace_, codec_component_));
}

BufferView BlockStore::readBlockRange(BlockId id, uint64_t offset,
                                      uint64_t len) const {
  StoredReplica replica = readStored(id);
  checkReplicaCodec(id, replica.codec);
  if (replica.codec == CodecKind::kNone) {
    if (offset > replica.stored.size()) {
      throw InvalidArgumentError("range start past end of block " +
                                 std::to_string(id));
    }
    return replica.stored.slice(offset, len);
  }
  try {
    // Only the frames covering [offset, offset+len) are decompressed.
    return codecDecodeRange(replica.stored.view(), offset, len, codec_metrics_,
                            codec_trace_, codec_component_);
  } catch (const InvalidArgumentError&) {
    throw InvalidArgumentError("range start past end of block " +
                               std::to_string(id));
  }
}

// ---------------------------------------------------------------- memory

void MemBlockStore::putStored(BlockId id, BufferView stored,
                              std::vector<uint32_t> crcs, uint64_t raw_size,
                              CodecKind codec, bool verified) {
  Replica replica{std::move(stored), std::move(crcs), raw_size, codec,
                  verified};
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = replicas_[id];
  used_bytes_ -= slot.data.size();  // overwrite: release the old payload
  used_bytes_ += replica.data.size();
  slot = std::move(replica);
}

StoredReplica MemBlockStore::readStored(BlockId id) const {
  // Refcount the resident buffer under the lock, verify outside it: the
  // replica map is immutable-value, so a concurrent overwrite/corrupt swaps
  // the slot's buffer without touching the one we hold.
  Replica replica;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = replicas_.find(id);
    if (it == replicas_.end()) {
      throw NotFoundError("block " + std::to_string(id));
    }
    replica = it->second;
  }
  if (!replica.verified) {
    verifyChunks(id, replica.data.view(), replica.crcs);
    // Mark the slot verified-once — but only if it still holds the bytes
    // we hashed; an overwrite/corruption that raced the verify swapped in
    // other (unverified) bytes and must not inherit our verdict. Our view
    // keeps its backing buffer alive, so an equal pointer is equal bytes.
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = replicas_.find(id);
    if (it != replicas_.end() &&
        it->second.data.data() == replica.data.data() &&
        it->second.data.size() == replica.data.size()) {
      it->second.verified = true;
    }
  }
  return {std::move(replica.data), replica.raw_size, replica.codec};
}

bool MemBlockStore::hasBlock(BlockId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return replicas_.contains(id);
}

void MemBlockStore::deleteBlock(BlockId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = replicas_.find(id);
  if (it == replicas_.end()) return;
  used_bytes_ -= it->second.data.size();
  replicas_.erase(it);
}

uint64_t MemBlockStore::blockSize(BlockId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = replicas_.find(id);
  if (it == replicas_.end()) {
    throw NotFoundError("block " + std::to_string(id));
  }
  return it->second.raw_size;
}

uint64_t MemBlockStore::storedSize(BlockId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = replicas_.find(id);
  if (it == replicas_.end()) {
    throw NotFoundError("block " + std::to_string(id));
  }
  return it->second.data.size();
}

std::vector<BlockId> MemBlockStore::listBlocks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<BlockId> ids;
  ids.reserve(replicas_.size());
  for (const auto& [id, replica] : replicas_) ids.push_back(id);
  return ids;
}

size_t MemBlockStore::blockCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return replicas_.size();
}

uint64_t MemBlockStore::usedBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return used_bytes_;
}

std::vector<BlockId> MemBlockStore::scanAll() const {
  std::map<BlockId, Replica> snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot = replicas_;  // refcounted buffers: no payload copy
  }
  std::vector<BlockId> bad;
  for (const auto& [id, replica] : snapshot) {
    try {
      verifyChunks(id, replica.data.view(), replica.crcs);
    } catch (const ChecksumError&) {
      bad.push_back(id);
    }
  }
  return bad;
}

void MemBlockStore::corruptBlock(BlockId id, size_t byte_offset) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = replicas_.find(id);
  if (it == replicas_.end()) {
    throw NotFoundError("block " + std::to_string(id));
  }
  // Copy-on-write: buffers are shared with outstanding read views, so the
  // corruption lands in a fresh buffer and the slot is swapped. Readers
  // holding the old view keep their clean bytes (as with a page cache).
  if (it->second.data.empty()) {
    throw InvalidArgumentError("cannot corrupt empty block");
  }
  Bytes data(it->second.data.view());
  const size_t pos = byte_offset % data.size();
  data[pos] = static_cast<char>(data[pos] ^ 0x5A);
  it->second.data = Buffer::fromString(std::move(data));
  it->second.verified = false;  // the next read must re-hash and throw
}

// ------------------------------------------------------------------ file

FileBlockStore::FileBlockStore(fs::path root) : root_(std::move(root)) {
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec) throw IoError("create_directories " + root_.string() + ": " + ec.message());
}

fs::path FileBlockStore::dataPath(BlockId id) const {
  return root_ / ("blk_" + std::to_string(id));
}

fs::path FileBlockStore::metaPath(BlockId id) const {
  return root_ / ("blk_" + std::to_string(id) + ".meta");
}

void FileBlockStore::putStored(BlockId id, BufferView stored,
                               std::vector<uint32_t> crcs, uint64_t raw_size,
                               CodecKind codec, bool /*verified*/) {
  std::lock_guard<std::mutex> lock(mutex_);
  {
    std::ofstream out(dataPath(id), std::ios::binary | std::ios::trunc);
    if (!out) throw IoError("open for write: " + dataPath(id).string());
    out.write(stored.data(), static_cast<std::streamsize>(stored.size()));
    if (!out) throw IoError("write: " + dataPath(id).string());
  }
  {
    Bytes meta;
    ByteWriter w(meta);
    w.writeVarU64(crcs.size());
    for (const uint32_t crc : crcs) w.writeU32(crc);
    // v2 extension: codec id + raw size. Metas written before compression
    // existed end after the CRCs and imply codec none / raw == file size.
    w.writeU8(static_cast<uint8_t>(codec));
    w.writeVarU64(raw_size);
    std::ofstream out(metaPath(id), std::ios::binary | std::ios::trunc);
    if (!out) throw IoError("open for write: " + metaPath(id).string());
    out.write(meta.data(), static_cast<std::streamsize>(meta.size()));
    if (!out) throw IoError("write: " + metaPath(id).string());
  }
}

FileBlockStore::Meta FileBlockStore::readMeta(BlockId id) const {
  std::ifstream in(metaPath(id), std::ios::binary);
  if (!in) throw IoError("missing meta for block " + std::to_string(id));
  Bytes raw((std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
  ByteReader r(raw);
  Meta meta;
  const uint64_t n = r.readVarU64();
  meta.crcs.reserve(n);
  for (uint64_t i = 0; i < n; ++i) meta.crcs.push_back(r.readU32());
  if (!r.atEnd()) {
    const uint8_t codec_id = r.readU8();
    meta.codec = codec_id == 0 ? CodecKind::kNone : codecFromId(codec_id);
    meta.raw_size = r.readVarU64();
    meta.has_raw_size = true;
  }
  return meta;
}

StoredReplica FileBlockStore::readStored(BlockId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ifstream in(dataPath(id), std::ios::binary);
  if (!in) throw NotFoundError("block " + std::to_string(id));
  Bytes data((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  const Meta meta = readMeta(id);
  verifyChunks(id, data, meta.crcs);
  const uint64_t raw_size = meta.has_raw_size ? meta.raw_size : data.size();
  // One buffer per read: the file bytes are loaded once and every
  // downstream consumer (RPC reply, range slice, decode) shares that load.
  return {BufferView(Buffer::fromString(std::move(data))), raw_size,
          meta.codec};
}

bool FileBlockStore::hasBlock(BlockId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fs::exists(dataPath(id));
}

void FileBlockStore::deleteBlock(BlockId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::error_code ec;
  fs::remove(dataPath(id), ec);
  fs::remove(metaPath(id), ec);
}

uint64_t FileBlockStore::blockSize(BlockId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::error_code ec;
  const auto size = fs::file_size(dataPath(id), ec);
  if (ec) throw NotFoundError("block " + std::to_string(id));
  try {
    const Meta meta = readMeta(id);
    if (meta.has_raw_size) return meta.raw_size;
  } catch (const IoError&) {
    // adopted bare data file (no meta); its stored size is its raw size
  }
  return size;
}

uint64_t FileBlockStore::storedSize(BlockId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::error_code ec;
  const auto size = fs::file_size(dataPath(id), ec);
  if (ec) throw NotFoundError("block " + std::to_string(id));
  return size;
}

std::vector<BlockId> FileBlockStore::listBlocks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<BlockId> ids;
  for (const auto& entry : fs::directory_iterator(root_)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("blk_", 0) == 0 && name.find(".meta") == std::string::npos) {
      ids.push_back(std::stoull(name.substr(4)));
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

uint64_t FileBlockStore::usedBytes() const {
  uint64_t total = 0;
  for (const BlockId id : listBlocks()) {
    try {
      total += storedSize(id);
    } catch (const NotFoundError&) {
      // raced with a delete; skip
    }
  }
  return total;
}

std::vector<BlockId> FileBlockStore::scanAll() const {
  std::vector<BlockId> bad;
  for (const BlockId id : listBlocks()) {
    try {
      readStored(id);
    } catch (const ChecksumError&) {
      bad.push_back(id);
    } catch (const IoError&) {
      bad.push_back(id);
    }
  }
  return bad;
}

void FileBlockStore::corruptBlock(BlockId id, size_t byte_offset) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::fstream file(dataPath(id),
                    std::ios::binary | std::ios::in | std::ios::out);
  if (!file) throw NotFoundError("block " + std::to_string(id));
  file.seekg(0, std::ios::end);
  const auto size = static_cast<size_t>(file.tellg());
  if (size == 0) throw InvalidArgumentError("cannot corrupt empty block");
  const size_t pos = byte_offset % size;
  file.seekg(static_cast<std::streamoff>(pos));
  char c = 0;
  file.read(&c, 1);
  c = static_cast<char>(c ^ 0x5A);
  file.seekp(static_cast<std::streamoff>(pos));
  file.write(&c, 1);
}

}  // namespace mh::hdfs
