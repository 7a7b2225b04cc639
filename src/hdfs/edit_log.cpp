#include "mh/hdfs/edit_log.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <optional>
#include <utility>

#include "mh/common/crc32.h"
#include "mh/common/error.h"
#include "mh/common/log.h"
#include "mh/common/stopwatch.h"

namespace mh::hdfs {

namespace fs = std::filesystem;

namespace {

constexpr const char* kLog = "editlog";
constexpr uint32_t kImageMagic = 0x4D48464D;  // "MHFM": minihadoop fsimage
constexpr const char* kEditsPrefix = "edits_";
constexpr const char* kImagePrefix = "fsimage_";

std::string txnFileName(const char* prefix, uint64_t txn) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s%020llu", prefix,
                static_cast<unsigned long long>(txn));
  return buf;
}

/// Parses "<prefix><txn>" file names; nullopt for anything else (tmp files,
/// strays).
std::optional<uint64_t> txnFromName(const std::string& name,
                                    const char* prefix) {
  const std::string_view p(prefix);
  if (name.size() <= p.size() || name.compare(0, p.size(), p) != 0) {
    return std::nullopt;
  }
  uint64_t txn = 0;
  const char* first = name.data() + p.size();
  const char* last = name.data() + name.size();
  const auto [ptr, ec] = std::from_chars(first, last, txn);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return txn;
}

/// A listed file that is gone by the time it is read: a checkpoint on the
/// live directory retired it (the new image covers it).
struct RetiredFileError : IoError {
  using IoError::IoError;
};

Bytes readWholeFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in && !fs::exists(path)) {
    throw RetiredFileError("retired while loading: " + path.string());
  }
  if (!in) throw IoError("cannot open " + path.string());
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

struct SegmentContents {
  std::vector<EditRecord> records;
  bool torn = false;  ///< A partial/corrupt record ended the scan at EOF.
};

/// Scans one segment. Stops cleanly at a torn tail (incomplete frame, or a
/// CRC mismatch on the final frame — a bit flip there is indistinguishable
/// from a crash mid-write); throws ChecksumError for a mismatch with more
/// data behind it.
SegmentContents readSegment(const fs::path& path) {
  const Bytes data = readWholeFile(path);
  SegmentContents out;
  ByteReader r(data);
  while (!r.atEnd()) {
    if (r.remaining() < 8) {
      out.torn = true;
      break;
    }
    const uint32_t len = r.readU32();
    const uint32_t crc = r.readU32();
    if (len > r.remaining()) {
      out.torn = true;
      break;
    }
    const std::string_view payload = r.readRaw(len);
    if (crc32c(payload) != crc) {
      if (r.atEnd()) {
        out.torn = true;
        break;
      }
      throw ChecksumError("edit log frame CRC mismatch in " + path.string() +
                          " at byte " +
                          std::to_string(r.position() - len - 8));
    }
    out.records.push_back(decodeEditRecord(payload));
  }
  return out;
}

void appendFrame(Bytes& out, const Bytes& payload) {
  ByteWriter w(out);
  w.writeU32(static_cast<uint32_t>(payload.size()));
  w.writeU32(crc32c(payload));
  w.writeRaw(payload);
}

}  // namespace

Bytes encodeEditRecord(const EditRecord& rec) {
  Bytes out;
  ByteWriter w(out);
  w.writeVarU64(rec.txn);
  w.writeU8(static_cast<uint8_t>(rec.op));
  w.writeBytes(rec.path);
  switch (rec.op) {
    case EditOp::kMkdirs:
      break;
    case EditOp::kCreate:
      w.writeVarU64(rec.replication);
      w.writeVarU64(rec.block_size);
      break;
    case EditOp::kAddBlock:
      w.writeVarU64(rec.block.id);
      w.writeVarU64(rec.block.size);
      break;
    case EditOp::kComplete:
      w.writeVarU64(rec.blocks.size());
      for (const Block& b : rec.blocks) {
        w.writeVarU64(b.id);
        w.writeVarU64(b.size);
      }
      break;
    case EditOp::kDelete:
      w.writeBool(rec.recursive);
      break;
    case EditOp::kRename:
      w.writeBytes(rec.path2);
      break;
    case EditOp::kSetReplication:
      w.writeVarU64(rec.replication);
      break;
  }
  return out;
}

EditRecord decodeEditRecord(std::string_view payload) {
  ByteReader r(payload);
  EditRecord rec;
  rec.txn = r.readVarU64();
  const uint8_t op = r.readU8();
  if (op < static_cast<uint8_t>(EditOp::kMkdirs) ||
      op > static_cast<uint8_t>(EditOp::kSetReplication)) {
    throw InvalidArgumentError("unknown edit opcode " + std::to_string(op));
  }
  rec.op = static_cast<EditOp>(op);
  rec.path = r.readString();
  switch (rec.op) {
    case EditOp::kMkdirs:
      break;
    case EditOp::kCreate:
      rec.replication = static_cast<uint16_t>(r.readVarU64());
      rec.block_size = r.readVarU64();
      break;
    case EditOp::kAddBlock:
      rec.block.id = r.readVarU64();
      rec.block.size = r.readVarU64();
      break;
    case EditOp::kComplete: {
      const uint64_t n = r.readVarU64();
      rec.blocks.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        Block b;
        b.id = r.readVarU64();
        b.size = r.readVarU64();
        rec.blocks.push_back(b);
      }
      break;
    }
    case EditOp::kDelete:
      rec.recursive = r.readBool();
      break;
    case EditOp::kRename:
      rec.path2 = r.readString();
      break;
    case EditOp::kSetReplication:
      rec.replication = static_cast<uint16_t>(r.readVarU64());
      break;
  }
  if (!r.atEnd()) {
    throw InvalidArgumentError("trailing bytes in edit record");
  }
  return rec;
}

void applyEdit(Namespace& ns, const EditRecord& rec) {
  switch (rec.op) {
    case EditOp::kMkdirs:
      ns.mkdirs(rec.path);
      break;
    case EditOp::kCreate:
      // A second replay pass (or a create over a leftover) resets the path;
      // the records that follow rebuild it identically.
      if (ns.exists(rec.path)) ns.remove(rec.path, /*recursive=*/true);
      ns.createFile(rec.path, rec.replication, rec.block_size);
      break;
    case EditOp::kAddBlock: {
      if (!ns.exists(rec.path) || ns.isDirectory(rec.path) ||
          ns.isComplete(rec.path)) {
        break;
      }
      const auto& blocks = ns.fileBlocks(rec.path);
      const bool dup =
          std::any_of(blocks.begin(), blocks.end(),
                      [&](const Block& b) { return b.id == rec.block.id; });
      if (!dup) ns.addBlock(rec.path, rec.block);
      break;
    }
    case EditOp::kComplete:
      if (!ns.exists(rec.path) || ns.isDirectory(rec.path)) break;
      ns.setFileBlocks(rec.path, rec.blocks);
      ns.completeFile(rec.path);
      break;
    case EditOp::kDelete:
      if (ns.exists(rec.path)) ns.remove(rec.path, rec.recursive);
      break;
    case EditOp::kRename:
      if (!ns.exists(rec.path)) break;
      // On a second pass the destination holds the first pass's result;
      // replace it with this pass's (identical) source.
      if (ns.exists(rec.path2)) ns.remove(rec.path2, /*recursive=*/true);
      ns.rename(rec.path, rec.path2);
      break;
    case EditOp::kSetReplication:
      if (!ns.exists(rec.path) || ns.isDirectory(rec.path)) break;
      ns.setReplication(rec.path, rec.replication);
      break;
  }
}

ReplayResult replayEdits(Namespace& ns, const std::vector<EditRecord>& edits,
                         uint64_t from_txn) {
  ReplayResult result;
  result.last_txn = from_txn;
  for (const EditRecord& rec : edits) {
    if (rec.op == EditOp::kAddBlock) {
      result.max_block_id = std::max(result.max_block_id, rec.block.id);
    }
    for (const Block& b : rec.blocks) {
      result.max_block_id = std::max(result.max_block_id, b.id);
    }
    if (rec.txn <= from_txn) continue;  // already covered by the image
    applyEdit(ns, rec);
    result.last_txn = rec.txn;
    ++result.applied;
  }
  return result;
}

// ------------------------------------------------------------------ EditLog

EditLog::EditLog(Options options, uint64_t last_txn, uint64_t checkpoint_txn)
    : dir_(std::move(options.dir)),
      sync_always_(options.sync != "batch"),
      batch_txns_(std::max<uint64_t>(1, options.batch_txns)),
      metrics_(options.metrics),
      tracer_(options.tracer),
      last_txn_(last_txn),
      synced_txn_(last_txn),
      checkpoint_txn_(checkpoint_txn) {
  if (options.sync != "always" && options.sync != "batch") {
    throw InvalidArgumentError("dfs.namenode.edits.sync must be 'always' or "
                               "'batch', got '" + options.sync + "'");
  }
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw IoError("cannot create edit log dir " + dir_.string() + ": " +
                  ec.message());
  }
  // Always open a fresh segment at last_txn+1 (recovery never appends to an
  // old segment). If the file already exists it can only hold a torn record
  // or nothing — every complete record was counted into last_txn — so
  // truncating discards only garbage.
  openSegment(last_txn_ + 1);
}

EditLog::~EditLog() {
  try {
    sync();
  } catch (const Error& e) {
    logWarn(kLog) << "sync on close failed: " << e.what();
  }
}

void EditLog::openSegment(uint64_t first_txn) {
  segment_first_txn_ = first_txn;
  const fs::path path = dir_ / txnFileName(kEditsPrefix, first_txn);
  out_.close();
  out_.clear();
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) throw IoError("cannot open edits segment " + path.string());
}

uint64_t EditLog::logEdit(EditRecord rec) {
  rec.txn = ++last_txn_;
  appendFrame(pending_, encodeEditRecord(rec));
  ++pending_txns_;
  if (metrics_ != nullptr) metrics_->counter("edits.txns").add();
  if (sync_always_ || pending_txns_ >= batch_txns_) sync();
  return last_txn_;
}

void EditLog::sync() {
  if (pending_.empty()) return;
  Stopwatch sw;
  std::optional<TraceSpan> span;
  if (tracer_ != nullptr && tracer_->enabled()) {
    span.emplace(tracer_, "namenode", "EDIT_SYNC");
    span->arg("txns", std::to_string(pending_txns_));
  }
  out_.write(pending_.data(), static_cast<std::streamsize>(pending_.size()));
  out_.flush();
  if (!out_) {
    throw IoError("edit log sync failed on segment " +
                  txnFileName(kEditsPrefix, segment_first_txn_));
  }
  pending_.clear();
  pending_txns_ = 0;
  synced_txn_ = last_txn_;
  if (metrics_ != nullptr) {
    metrics_->histogram("edits.sync.micros").record(sw.elapsedMicros());
  }
}

uint64_t EditLog::roll() {
  sync();
  if (last_txn_ + 1 == segment_first_txn_) {
    return segment_first_txn_;  // current segment is empty; nothing to roll
  }
  openSegment(last_txn_ + 1);
  return segment_first_txn_;
}

void EditLog::checkpoint(const Bytes& image) {
  roll();
  Bytes file;
  ByteWriter w(file);
  w.writeU32(kImageMagic);
  w.writeVarU64(last_txn_);
  w.writeU32(crc32c(image));
  w.writeBytes(image);

  const fs::path tmp = dir_ / (txnFileName(kImagePrefix, last_txn_) + ".tmp");
  const fs::path final_path = dir_ / txnFileName(kImagePrefix, last_txn_);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
    out.flush();
    if (!out) throw IoError("cannot write checkpoint " + tmp.string());
  }
  fs::rename(tmp, final_path);
  checkpoint_txn_ = last_txn_;

  // Retire everything the new image covers: every non-current segment (the
  // roll above closed them all at txns <= checkpoint_txn_) and older images.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (const auto txn = txnFromName(name, kEditsPrefix);
        txn && *txn != segment_first_txn_) {
      fs::remove(entry.path());
    } else if (const auto itxn = txnFromName(name, kImagePrefix);
               itxn && *itxn < checkpoint_txn_) {
      fs::remove(entry.path());
    }
  }
  logInfo(kLog) << "checkpoint at txn " << checkpoint_txn_ << " ("
                << image.size() << " image bytes)";
}

void EditLog::discardPending() {
  pending_.clear();
  pending_txns_ = 0;
  last_txn_ = synced_txn_;
}

bool EditLog::hasState(const fs::path& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return false;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (txnFromName(name, kEditsPrefix) || txnFromName(name, kImagePrefix)) {
      return true;
    }
  }
  return false;
}

namespace {

/// One pass of EditLog::load over the files listed now.
LoadedStorage loadListed(const fs::path& dir) {
  LoadedStorage loaded;
  std::vector<uint64_t> segments;
  uint64_t image_txn = 0;
  bool have_image = false;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (const auto txn = txnFromName(name, kEditsPrefix)) {
      segments.push_back(*txn);
    } else if (const auto itxn = txnFromName(name, kImagePrefix)) {
      if (!have_image || *itxn > image_txn) {
        image_txn = *itxn;
        have_image = true;
      }
    }
  }
  if (have_image) {
    const Bytes file = readWholeFile(dir / txnFileName(kImagePrefix, image_txn));
    ByteReader r(file);
    try {
      if (r.readU32() != kImageMagic) {
        throw InvalidArgumentError("bad magic");
      }
      const uint64_t txn = r.readVarU64();
      const uint32_t crc = r.readU32();
      const std::string_view image = r.readBytes();
      if (crc32c(image) != crc) {
        throw ChecksumError("fsimage CRC mismatch");
      }
      loaded.image = Bytes(image);
      loaded.image_txn = txn;
    } catch (const InvalidArgumentError& e) {
      throw IoError("unreadable fsimage_" + std::to_string(image_txn) + ": " +
                    e.what());
    }
  }
  loaded.last_txn = loaded.image_txn;

  std::sort(segments.begin(), segments.end());
  for (size_t i = 0; i < segments.size(); ++i) {
    const fs::path path = dir / txnFileName(kEditsPrefix, segments[i]);
    const SegmentContents contents = readSegment(path);
    if (contents.torn && i + 1 != segments.size()) {
      throw IoError("torn record in non-final edits segment " + path.string());
    }
    for (const EditRecord& rec : contents.records) {
      if (!loaded.edits.empty() && rec.txn <= loaded.edits.back().txn) {
        throw IoError("edit txns out of order in " + path.string() + ": txn " +
                      std::to_string(rec.txn) + " after " +
                      std::to_string(loaded.edits.back().txn));
      }
      loaded.edits.push_back(rec);
      loaded.last_txn = std::max(loaded.last_txn, rec.txn);
    }
  }
  return loaded;
}

}  // namespace

LoadedStorage EditLog::load(const fs::path& dir) {
  // A NameNode running on `dir` may checkpoint between the listing and the
  // reads; a file it retired is covered by the newer image, so list again.
  for (int attempt = 1;; ++attempt) {
    try {
      return loadListed(dir);
    } catch (const RetiredFileError&) {
      if (attempt == 3) throw;
    }
  }
}

}  // namespace mh::hdfs
