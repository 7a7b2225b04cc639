#include "mh/hdfs/namenode.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>

#include "mh/common/error.h"
#include "mh/common/log.h"
#include "mh/common/loop_waker.h"
#include "mh/common/stopwatch.h"
#include "mh/common/trace.h"
#include "mh/hdfs/wire.h"

namespace mh::hdfs {

namespace {
constexpr const char* kLog = "namenode";
/// Fraction of known blocks that must be reported to leave safe mode.
constexpr double kSafeModeThreshold = 0.999;
/// Most re-replications one monitor pass schedules.
constexpr int64_t kReplicationMaxStreams = 64;
}  // namespace

NameNode::NameNode(Config conf, std::shared_ptr<net::Network> network,
                   std::string host)
    : conf_(std::move(conf)),
      network_(std::move(network)),
      host_(std::move(host)) {
  conf_.validate(keys::Scope::kDaemon);
  network_->addHost(host_);
  metrics_ = &network_->metrics().child("namenode");
  tracer_ = &network_->tracer();
  // Gauges sample under lock_ at export time; registering them here (no
  // lock held) keeps the registry -> daemon lock order one-way.
  metrics_->setGauge("blocks.total", [this] {
    return static_cast<double>(totalBlocks());
  });
  metrics_->setGauge("datanodes.live", [this] {
    return static_cast<double>(liveDataNodes());
  });
  metrics_->setGauge("safemode", [this] { return inSafeMode() ? 1.0 : 0.0; });
  metrics_->setGauge("heartbeat.max_staleness_ms", [this] {
    return static_cast<double>(maxHeartbeatStalenessMillis());
  });
  metrics_->setGauge("heartbeats.held", [this] {
    return static_cast<double>(heldHeartbeats());
  });
  if (!conf_.get(keys::kNamenodeNameDir).empty()) {
    recoverOrFormatStorage();
  }
  last_checkpoint_steady_ms_ = steadyMillis();
}

NameNode::NameNode(Config conf, std::shared_ptr<net::Network> network,
                   std::string host, std::string_view fsimage)
    : NameNode(std::move(conf), std::move(network), std::move(host)) {
  if (edits_ != nullptr) {
    throw IllegalStateError(
        "restart from an in-memory fsimage conflicts with "
        "dfs.namenode.name.dir journaling; restart from the name dir");
  }
  namespace_ = Namespace::loadImage(fsimage);
  // Re-register every block the image knows about; locations are unknown
  // until block reports arrive, so enter safe mode.
  for (const auto& path : namespace_.listFilesRecursive("/")) {
    const auto status = namespace_.getFileStatus(path);
    for (const Block& block : namespace_.fileBlocks(path)) {
      blocks_.registerBlock(block, status.replication);
    }
  }
  if (blocks_.blockCount() > 0) {
    safe_mode_ = true;
    logInfo(kLog) << "restarted with " << blocks_.blockCount()
                  << " blocks; entering safe mode until "
                  << kSafeModeThreshold << " of blocks are reported";
  }
}

NameNode::~NameNode() {
  stop();
  // The registry (and any MetricsSnapshotter sampling it) outlives this
  // daemon; replace `this`-capturing gauges with their final values.
  for (const char* name : {"blocks.total", "datanodes.live", "safemode",
                           "heartbeat.max_staleness_ms", "heartbeats.held"}) {
    metrics_->setGauge(name, [v = metrics_->gaugeValue(name)] { return v; });
  }
}

void NameNode::recoverOrFormatStorage() {
  const std::filesystem::path dir(conf_.get(keys::kNamenodeNameDir));
  EditLog::Options opts;
  opts.dir = dir;
  opts.sync = conf_.get(keys::kNamenodeEditsSync);
  opts.metrics = metrics_;
  opts.tracer = tracer_;
  if (!EditLog::hasState(dir)) {
    edits_ = std::make_unique<EditLog>(std::move(opts));
    logInfo(kLog) << "formatted edit log storage in " << dir.string();
    return;
  }
  const LoadedStorage loaded = EditLog::load(dir);
  if (!loaded.image.empty()) {
    namespace_ = Namespace::loadImage(loaded.image);
  }
  const ReplayResult replayed =
      replayEdits(namespace_, loaded.edits, loaded.image_txn);
  edits_ = std::make_unique<EditLog>(std::move(opts), loaded.last_txn,
                                     loaded.image_txn);
  // Rebuild the block map from the recovered tree. Replica locations are
  // unknown until block reports arrive, so enter safe mode (same contract
  // as an fsimage restart).
  for (const auto& path : namespace_.listFilesRecursive("/")) {
    const auto status = namespace_.getFileStatus(path);
    for (const Block& block : namespace_.fileBlocks(path)) {
      blocks_.registerBlock(block, status.replication);
    }
  }
  blocks_.reserveBlockIds(replayed.max_block_id);
  if (blocks_.blockCount() > 0) safe_mode_ = true;
  logInfo(kLog) << "recovered namespace from " << dir.string() << ": image txn "
                << loaded.image_txn << " + " << replayed.applied
                << " replayed edits, last txn " << loaded.last_txn << ", "
                << blocks_.blockCount() << " blocks"
                << (safe_mode_ ? "; entering safe mode" : "");
}

int64_t NameNode::steadyMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void NameNode::start() {
  {
    std::lock_guard<std::mutex> guard(lock_);
    if (started_) return;
  }
  // Bind before flipping started_: if the port is held by a ghost daemon
  // this throws, and a later stop() must NOT unbind the ghost's endpoint.
  installRpc();
  {
    std::lock_guard<std::mutex> guard(lock_);
    started_ = true;
  }
  const auto interval =
      std::chrono::milliseconds(conf_.get(keys::kNamenodeMonitorIntervalMs));
  monitor_ = std::jthread([this, interval](std::stop_token token) {
    LoopWaker waker;
    while (!token.stop_requested()) {
      waker.waitFor(token, interval);
      if (token.stop_requested()) return;
      runMonitorOnce();
    }
  });
  logInfo(kLog) << "started on " << host_ << ":" << kNameNodePort;
}

void NameNode::stop() {
  {
    std::lock_guard<std::mutex> guard(lock_);
    if (!started_) return;
    started_ = false;
  }
  if (monitor_.joinable()) {
    monitor_.request_stop();
    monitor_.join();
  }
  // Release held beats before unbinding: unbind drains in-flight handlers,
  // and a held beat would otherwise sit out its full interval.
  {
    std::lock_guard<std::mutex> guard(lock_);
    releaseHeldBeatsLocked();
  }
  network_->unbind(host_, kNameNodePort);
  {
    std::lock_guard<std::mutex> guard(lock_);
    if (edits_ != nullptr) {
      try {
        edits_->sync();
      } catch (const Error& e) {
        // stop() runs on destructor paths; surface the failure, don't throw.
        logWarn(kLog) << "edit log sync on stop failed: " << e.what();
      }
    }
  }
  logInfo(kLog) << "stopped";
}

void NameNode::crash() {
  {
    std::lock_guard<std::mutex> guard(lock_);
    if (!started_) return;
    started_ = false;
  }
  // Down first: replies to in-flight callers are lost from here on, so a
  // mutation can be applied-but-unacked (the standard crash ambiguity) but
  // never acked-and-lost.
  network_->setHostUp(host_, false);
  if (monitor_.joinable()) {
    monitor_.request_stop();
    monitor_.join();
  }
  {
    std::lock_guard<std::mutex> guard(lock_);
    releaseHeldBeatsLocked();
  }
  // Unbind is a drain barrier: after it returns no handler is mid-mutation,
  // so dropping the unsynced tail below races with nothing.
  network_->unbind(host_, kNameNodePort);
  {
    std::lock_guard<std::mutex> guard(lock_);
    if (edits_ != nullptr) edits_->discardPending();
  }
  logWarn(kLog) << "crashed (simulated kill -9)";
}

// ----------------------------------------------------------------- client

void NameNode::checkNotInSafeModeLocked(const char* op) const {
  if (safe_mode_) {
    throw IllegalStateError(std::string("cannot ") + op +
                            ": Name node is in safe mode");
  }
}

// Write-ahead contract: the mutation is applied in memory, journaled, and
// synced (per policy) before the RPC returns — so anything a client was
// told succeeded is on disk before the ack leaves the building.
void NameNode::journalLocked(EditRecord rec) {
  if (edits_ != nullptr) edits_->logEdit(std::move(rec));
}

void NameNode::mkdirs(const std::string& path) {
  std::lock_guard<std::mutex> guard(lock_);
  checkNotInSafeModeLocked("mkdirs");
  namespace_.mkdirs(path);
  EditRecord rec;
  rec.op = EditOp::kMkdirs;
  rec.path = path;
  journalLocked(std::move(rec));
}

bool NameNode::exists(const std::string& path) const {
  std::lock_guard<std::mutex> guard(lock_);
  return namespace_.exists(path);
}

FileStatus NameNode::getFileStatus(const std::string& path) const {
  std::lock_guard<std::mutex> guard(lock_);
  return namespace_.getFileStatus(path);
}

std::vector<FileStatus> NameNode::listStatus(const std::string& path) const {
  std::lock_guard<std::mutex> guard(lock_);
  return namespace_.listStatus(path);
}

std::vector<std::string> NameNode::listFilesRecursive(
    const std::string& path) const {
  std::lock_guard<std::mutex> guard(lock_);
  return namespace_.listFilesRecursive(path);
}

void NameNode::queueCommandLocked(const std::string& host,
                                  DataNodeCommand command) {
  const auto it = datanodes_.find(host);
  if (it == datanodes_.end()) return;
  it->second.pending_commands.push_back(std::move(command));
  if (it->second.held_beat != nullptr) it->second.held_beat->notify_one();
}

void NameNode::releaseHeldBeatsLocked() {
  for (auto& [dn_host, descriptor] : datanodes_) {
    if (descriptor.held_beat != nullptr) descriptor.held_beat->notify_one();
  }
}

void NameNode::queueInvalidateLocked(const std::vector<Block>& freed) {
  for (const Block& block : freed) {
    for (const std::string& replica_host : blocks_.liveReplicas(block.id)) {
      queueCommandLocked(replica_host,
                         {DataNodeCommand::Kind::kDelete, block.id, {}});
    }
    for (const std::string& replica_host : blocks_.corruptReplicas(block.id)) {
      queueCommandLocked(replica_host,
                         {DataNodeCommand::Kind::kDelete, block.id, {}});
    }
    blocks_.removeBlock(block.id);
    pending_replications_.erase(block.id);
  }
}

bool NameNode::remove(const std::string& path, bool recursive) {
  std::lock_guard<std::mutex> guard(lock_);
  checkNotInSafeModeLocked("delete");
  if (!namespace_.exists(path)) return false;
  const auto freed = namespace_.remove(path, recursive);
  queueInvalidateLocked(freed);
  EditRecord rec;
  rec.op = EditOp::kDelete;
  rec.path = path;
  rec.recursive = recursive;
  journalLocked(std::move(rec));
  return true;
}

void NameNode::rename(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> guard(lock_);
  checkNotInSafeModeLocked("rename");
  namespace_.rename(from, to);
  EditRecord rec;
  rec.op = EditOp::kRename;
  rec.path = from;
  rec.path2 = to;
  journalLocked(std::move(rec));
}

void NameNode::create(const std::string& path, uint16_t replication,
                      uint64_t block_size) {
  std::lock_guard<std::mutex> guard(lock_);
  checkNotInSafeModeLocked("create");
  const uint16_t repl =
      replication != 0 ? replication : conf_.get(keys::kDfsReplication);
  const uint64_t bs =
      block_size != 0 ? block_size : conf_.get(keys::kDfsBlocksize);
  namespace_.createFile(path, repl, bs);
  EditRecord rec;
  rec.op = EditOp::kCreate;
  rec.path = path;
  rec.replication = repl;  // journal the *resolved* defaults
  rec.block_size = bs;
  journalLocked(std::move(rec));
}

std::vector<PlacementCandidate> NameNode::aliveCandidatesLocked() const {
  std::vector<PlacementCandidate> candidates;
  for (const auto& [dn_host, descriptor] : datanodes_) {
    if (!descriptor.alive) continue;
    const uint64_t free = descriptor.capacity > descriptor.used
                              ? descriptor.capacity - descriptor.used
                              : 0;
    candidates.push_back({dn_host, free, descriptor.rack});
  }
  return candidates;
}

LocatedBlock NameNode::addBlock(const std::string& path,
                                const std::string& client_host) {
  std::lock_guard<std::mutex> guard(lock_);
  checkNotInSafeModeLocked("addBlock");
  const auto status = namespace_.getFileStatus(path);
  if (status.is_dir) throw InvalidArgumentError("is a directory: " + path);

  const auto candidates = aliveCandidatesLocked();
  if (candidates.empty()) {
    throw IoError("could not place block for " + path +
                  ": no live datanodes");
  }
  const Block block = blocks_.allocateBlock(status.replication);
  namespace_.addBlock(path, block);
  EditRecord rec;
  rec.op = EditOp::kAddBlock;
  rec.path = path;
  rec.block = block;
  journalLocked(std::move(rec));

  LocatedBlock located;
  located.block = block;
  located.offset = status.length;
  located.hosts =
      choosePlacement(candidates, status.replication, client_host, {}, rng_);
  if (tracer_->enabled()) {
    tracer_->instant("namenode", "ALLOC_BLOCK blk_" + std::to_string(block.id),
                     {{"path", path}, {"client", client_host}});
  }
  return located;
}

void NameNode::completeFile(const std::string& path) {
  std::lock_guard<std::mutex> guard(lock_);
  checkNotInSafeModeLocked("complete");
  std::vector<Block> finalized = namespace_.fileBlocks(path);
  for (Block& block : finalized) block.size = blocks_.blockSize(block.id);
  namespace_.setFileBlocks(path, finalized);
  namespace_.completeFile(path);
  EditRecord rec;
  rec.op = EditOp::kComplete;
  rec.path = path;
  rec.blocks = std::move(finalized);  // finalized sizes survive restart
  journalLocked(std::move(rec));
}

std::vector<LocatedBlock> NameNode::getBlockLocations(
    const std::string& path) const {
  std::lock_guard<std::mutex> guard(lock_);
  std::vector<LocatedBlock> located;
  uint64_t offset = 0;
  for (const Block& block : namespace_.fileBlocks(path)) {
    LocatedBlock lb;
    lb.block = block;
    lb.block.size = blocks_.blockSize(block.id);
    lb.offset = offset;
    lb.hosts = blocks_.liveReplicas(block.id);
    offset += lb.block.size;
    located.push_back(std::move(lb));
  }
  return located;
}

void NameNode::setReplication(const std::string& path,
                              uint16_t replication) {
  std::lock_guard<std::mutex> guard(lock_);
  checkNotInSafeModeLocked("setReplication");
  namespace_.setReplication(path, replication);
  for (const Block& block : namespace_.fileBlocks(path)) {
    blocks_.setExpectedReplication(block.id, replication);
  }
  EditRecord rec;
  rec.op = EditOp::kSetReplication;
  rec.path = path;
  rec.replication = replication;
  journalLocked(std::move(rec));
}

void NameNode::reportBadBlock(BlockId block, const std::string& host) {
  std::lock_guard<std::mutex> guard(lock_);
  logWarn(kLog) << "bad block " << block << " reported on " << host;
  blocks_.markCorrupt(block, host);
}

// --------------------------------------------------------------- datanode

void NameNode::registerDataNode(const std::string& host,
                                uint64_t capacity_bytes,
                                const std::string& rack) {
  std::lock_guard<std::mutex> guard(lock_);
  network_->addHost(host);
  DataNodeDescriptor& descriptor = datanodes_[host];
  descriptor.rack = rack;
  descriptor.capacity = capacity_bytes;
  descriptor.alive = true;
  descriptor.reported = false;
  descriptor.last_heartbeat_ms = steadyMillis();
  descriptor.pending_commands.clear();
  if (descriptor.held_beat != nullptr) {
    // A beat held for the previous registration answers at once.
    descriptor.held_beat->notify_one();
    descriptor.held_beat = nullptr;
  }
  logInfo(kLog) << "registered datanode " << host;
}

HeartbeatReply NameNode::heartbeat(const std::string& host,
                                   uint64_t capacity_bytes,
                                   uint64_t used_bytes, uint64_t num_blocks,
                                   bool may_wait, std::stop_token cancel) {
  std::unique_lock<std::mutex> guard(lock_);
  HeartbeatReply reply;
  const auto it = datanodes_.find(host);
  if (it == datanodes_.end()) {
    reply.reregister = true;
    return reply;
  }
  DataNodeDescriptor& descriptor = it->second;
  descriptor.capacity = capacity_bytes;
  descriptor.used = used_bytes;
  descriptor.num_blocks = num_blocks;
  descriptor.last_heartbeat_ms = steadyMillis();
  if (!descriptor.alive) {
    logInfo(kLog) << "datanode " << host << " is back";
    descriptor.alive = true;
    descriptor.reported = false;  // its replicas were dropped; re-report
  }
  reply.request_block_report = !descriptor.reported;
  if (may_wait && started_ && !reply.request_block_report &&
      descriptor.pending_commands.empty() &&
      descriptor.held_beat == nullptr) {
    // Nothing to say: hold the beat until there is (the descriptor lives in
    // a node-stable map that never erases, so the reference stays valid).
    std::condition_variable_any wake;
    descriptor.held_beat = &wake;
    wake.wait_for(guard, cancel,
                  std::chrono::milliseconds(
                      conf_.get(keys::kDfsHeartbeatIntervalMs)),
                  [&] {
                    return !descriptor.pending_commands.empty() ||
                           !started_ || descriptor.held_beat != &wake;
                  });
    if (descriptor.held_beat == &wake) descriptor.held_beat = nullptr;
    // A cancelled caller is going away: its commands wait for the next beat.
    if (cancel.stop_requested()) return reply;
  }
  reply.commands = std::move(descriptor.pending_commands);
  descriptor.pending_commands.clear();
  return reply;
}

std::vector<BlockId> NameNode::blockReport(const std::string& host,
                                           const std::vector<Block>& report) {
  std::lock_guard<std::mutex> guard(lock_);
  const auto it = datanodes_.find(host);
  if (it == datanodes_.end()) {
    throw IllegalStateError("block report from unregistered datanode " + host);
  }
  it->second.alive = true;
  it->second.reported = true;
  it->second.last_heartbeat_ms = steadyMillis();

  // Remember which replicas on this host were known corrupt: a block report
  // must not launder a bad replica back to "live".
  std::set<BlockId> previously_corrupt;
  for (const BlockId id : blocks_.withCorruptReplicas()) {
    if (blocks_.isCorrupt(id, host)) previously_corrupt.insert(id);
  }
  // Reset this host's replica state, then rebuild it from the report. A
  // replica the NameNode believed in but that was not reported stays gone.
  blocks_.removeAllReplicasOn(host);

  std::vector<BlockId> invalid;
  for (const Block& block : report) {
    if (!blocks_.contains(block.id)) {
      invalid.push_back(block.id);
      continue;
    }
    if (previously_corrupt.contains(block.id)) {
      blocks_.markCorrupt(block.id, host);
      continue;
    }
    blocks_.addReplica(block.id, host);
    if (blocks_.blockSize(block.id) == 0 && block.size > 0) {
      blocks_.commitBlock(block.id, block.size);
    }
    pending_replications_.erase(block.id);
  }
  maybeLeaveSafeModeLocked();
  return invalid;
}

bool NameNode::blockReceived(const std::string& host, Block block) {
  std::lock_guard<std::mutex> guard(lock_);
  pending_replications_.erase(block.id);
  if (!blocks_.contains(block.id)) return false;
  blocks_.addReplica(block.id, host);
  if (block.size > 0) blocks_.commitBlock(block.id, block.size);
  maybeLeaveSafeModeLocked();
  return true;
}

void NameNode::maybeLeaveSafeModeLocked() {
  if (!safe_mode_) return;
  const uint64_t total = blocks_.blockCount();
  const uint64_t reported = blocks_.reportedBlocks();
  if (static_cast<double>(reported) >=
      kSafeModeThreshold * static_cast<double>(total)) {
    safe_mode_ = false;
    logInfo(kLog) << "leaving safe mode: " << reported << "/" << total
                  << " blocks reported";
    tracer_->instant("namenode", "SAFEMODE_LEAVE",
                     {{"reported", std::to_string(reported)},
                      {"total", std::to_string(total)}});
  }
}

// ------------------------------------------------------------------ admin

FsckReport NameNode::fsck() const {
  std::lock_guard<std::mutex> guard(lock_);
  FsckReport report;
  report.total_dirs = namespace_.directoryCount();
  for (const auto& path : namespace_.listFilesRecursive("/")) {
    ++report.total_files;
    const auto status = namespace_.getFileStatus(path);
    for (const Block& block : namespace_.fileBlocks(path)) {
      ++report.total_blocks;
      report.total_bytes += blocks_.blockSize(block.id);
      const auto live = blocks_.liveReplicas(block.id).size();
      if (!blocks_.corruptReplicas(block.id).empty()) {
        ++report.corrupt_blocks;
      }
      if (live == 0) {
        ++report.missing_blocks;
      } else if (live < status.replication) {
        ++report.under_replicated;
      } else if (live > status.replication) {
        ++report.over_replicated;
        ++report.min_replication_blocks;
      } else {
        ++report.min_replication_blocks;
      }
    }
  }
  report.healthy = report.missing_blocks == 0 && report.corrupt_blocks == 0;
  return report;
}

std::vector<DataNodeInfo> NameNode::datanodeReport() const {
  std::lock_guard<std::mutex> guard(lock_);
  const int64_t now = steadyMillis();
  std::vector<DataNodeInfo> out;
  for (const auto& [dn_host, descriptor] : datanodes_) {
    DataNodeInfo info;
    info.host = dn_host;
    info.rack = descriptor.rack;
    info.capacity_bytes = descriptor.capacity;
    info.used_bytes = descriptor.used;
    info.num_blocks = descriptor.num_blocks;
    info.millis_since_heartbeat = now - descriptor.last_heartbeat_ms;
    info.alive = descriptor.alive;
    out.push_back(std::move(info));
  }
  return out;
}

bool NameNode::inSafeMode() const {
  std::lock_guard<std::mutex> guard(lock_);
  return safe_mode_;
}

void NameNode::setSafeMode(bool on) {
  std::lock_guard<std::mutex> guard(lock_);
  safe_mode_ = on;
}

Bytes NameNode::saveImage() const {
  std::lock_guard<std::mutex> guard(lock_);
  return namespace_.saveImage();
}

uint64_t NameNode::saveNamespace() {
  std::lock_guard<std::mutex> guard(lock_);
  return checkpointLocked();
}

uint64_t NameNode::rollEdits() {
  std::lock_guard<std::mutex> guard(lock_);
  if (edits_ == nullptr) {
    throw IllegalStateError(
        "edit log journaling is not enabled (dfs.namenode.name.dir unset)");
  }
  return edits_->roll();
}

uint64_t NameNode::checkpointLocked() {
  if (edits_ == nullptr) {
    throw IllegalStateError(
        "edit log journaling is not enabled (dfs.namenode.name.dir unset)");
  }
  Stopwatch sw;
  std::optional<TraceSpan> span;
  if (tracer_->enabled()) {
    span.emplace(tracer_, "namenode", "CHECKPOINT");
  }
  edits_->checkpoint(namespace_.saveImage());
  const int64_t millis = sw.elapsedMillis();
  metrics_->histogram("checkpoint.millis").record(millis);
  if (span) span->arg("txn", std::to_string(edits_->lastCheckpointTxn()));
  last_checkpoint_steady_ms_ = steadyMillis();
  logInfo(kLog) << "checkpointed namespace at txn "
                << edits_->lastCheckpointTxn() << " in " << millis << " ms";
  return edits_->lastCheckpointTxn();
}

void NameNode::maybeCheckpointLocked() {
  if (edits_ == nullptr || edits_->txnsSinceCheckpoint() == 0) return;
  const int64_t txns = conf_.get(keys::kNamenodeCheckpointTxns);
  const int64_t period = conf_.get(keys::kNamenodeCheckpointPeriodMs);
  const bool txns_due =
      txns > 0 &&
      edits_->txnsSinceCheckpoint() >= static_cast<uint64_t>(txns);
  const bool period_due =
      period > 0 && steadyMillis() - last_checkpoint_steady_ms_ >= period;
  if (txns_due || period_due) checkpointLocked();
}

uint64_t NameNode::totalBlocks() const {
  std::lock_guard<std::mutex> guard(lock_);
  return blocks_.blockCount();
}

uint64_t NameNode::liveDataNodes() const {
  std::lock_guard<std::mutex> guard(lock_);
  uint64_t n = 0;
  for (const auto& [dn_host, descriptor] : datanodes_) {
    if (descriptor.alive) ++n;
  }
  return n;
}

size_t NameNode::heldHeartbeats() const {
  std::lock_guard<std::mutex> guard(lock_);
  return static_cast<size_t>(
      std::count_if(datanodes_.begin(), datanodes_.end(), [](const auto& dn) {
        return dn.second.held_beat != nullptr;
      }));
}

int64_t NameNode::maxHeartbeatStalenessMillis() const {
  const int64_t now = steadyMillis();
  std::lock_guard<std::mutex> guard(lock_);
  int64_t worst = 0;
  for (const auto& [dn_host, descriptor] : datanodes_) {
    if (!descriptor.alive) continue;
    worst = std::max(worst, now - descriptor.last_heartbeat_ms);
  }
  return worst;
}

// ---------------------------------------------------------------- monitor

void NameNode::runMonitorOnce() {
  std::lock_guard<std::mutex> guard(lock_);
  monitorPassLocked();
}

void NameNode::monitorPassLocked() {
  expireHeartbeatsLocked();
  handleCorruptReplicasLocked();
  handleOverReplicationLocked();
  scheduleReplicationLocked();
  maybeCheckpointLocked();
}

void NameNode::expireHeartbeatsLocked() {
  const int64_t expiry = conf_.get(keys::kNamenodeHeartbeatExpiryMs);
  const int64_t now = steadyMillis();
  for (auto& [dn_host, descriptor] : datanodes_) {
    if (descriptor.alive && now - descriptor.last_heartbeat_ms > expiry) {
      descriptor.alive = false;
      const auto affected = blocks_.removeAllReplicasOn(dn_host);
      logWarn(kLog) << "datanode " << dn_host << " is dead; "
                    << affected.size() << " blocks lost a replica";
    }
  }
}

void NameNode::handleCorruptReplicasLocked() {
  for (const BlockId id : blocks_.withCorruptReplicas()) {
    const auto live = blocks_.liveReplicas(id);
    if (live.size() < blocks_.expectedReplication(id)) continue;  // repair first
    for (const std::string& bad_host : blocks_.corruptReplicas(id)) {
      queueCommandLocked(bad_host, {DataNodeCommand::Kind::kDelete, id, {}});
      blocks_.removeReplica(id, bad_host);
    }
  }
}

void NameNode::handleOverReplicationLocked() {
  for (const BlockId id : blocks_.overReplicated()) {
    auto live = blocks_.liveReplicas(id);
    const size_t excess = live.size() - blocks_.expectedReplication(id);
    // Drop replicas from the most-used nodes first.
    std::sort(live.begin(), live.end(),
              [this](const std::string& a, const std::string& b) {
                const auto ita = datanodes_.find(a);
                const auto itb = datanodes_.find(b);
                const uint64_t ua = ita != datanodes_.end() ? ita->second.used : 0;
                const uint64_t ub = itb != datanodes_.end() ? itb->second.used : 0;
                return ua > ub;
              });
    for (size_t i = 0; i < excess; ++i) {
      const std::string& victim = live[i];
      queueCommandLocked(victim, {DataNodeCommand::Kind::kDelete, id, {}});
      blocks_.removeReplica(id, victim);
    }
  }
}

void NameNode::scheduleReplicationLocked() {
  const int64_t now = steadyMillis();
  const int64_t pending_timeout =
      conf_.get(keys::kNamenodePendingReplicationTimeoutMs);
  int64_t scheduled = 0;

  for (const BlockId id : blocks_.underReplicated()) {
    if (scheduled >= kReplicationMaxStreams) break;
    const auto pending_it = pending_replications_.find(id);
    if (pending_it != pending_replications_.end() &&
        now - pending_it->second < pending_timeout) {
      continue;
    }
    const auto live = blocks_.liveReplicas(id);
    std::string source;
    for (const auto& candidate : live) {
      const auto it = datanodes_.find(candidate);
      if (it != datanodes_.end() && it->second.alive) {
        source = candidate;
        break;
      }
    }
    if (source.empty()) continue;

    std::set<std::string> exclude(live.begin(), live.end());
    for (const auto& bad : blocks_.corruptReplicas(id)) exclude.insert(bad);
    const size_t needed = blocks_.expectedReplication(id) - live.size();
    const auto targets = choosePlacement(aliveCandidatesLocked(), needed, "",
                                         exclude, rng_);
    if (targets.empty()) continue;

    queueCommandLocked(source, {DataNodeCommand::Kind::kReplicate, id, targets});
    pending_replications_[id] = now;
    ++scheduled;
  }
}

// ------------------------------------------------------------------- rpc

void NameNode::installRpc() {
  network_->bind(host_, kNameNodePort,
                 [this](const net::RpcRequest& req) -> BufferView {
    const std::string& m = req.method;
    // Counted before dispatch, while no daemon lock is held.
    metrics_->counter("ops." + m).add();
    // Namespace operations land in the caller's trace (handlers run on the
    // caller's thread, so the ambient context is already installed). The
    // periodic DataNode control-plane chatter is deliberately excluded —
    // it belongs to no job and would drown the ring.
    if (tracer_->enabled() && m != "heartbeat" && m != "blockReport" &&
        m != "blockReceived" && m != "registerDataNode") {
      tracer_->instant("namenode", "NN_OP " + m);
    }
    if (m == "mkdirs") {
      const auto [path] = unpack<std::string>(req.body);
      mkdirs(path);
      return {};
    }
    if (m == "exists") {
      const auto [path] = unpack<std::string>(req.body);
      return pack(exists(path));
    }
    if (m == "getFileStatus") {
      const auto [path] = unpack<std::string>(req.body);
      return pack(getFileStatus(path));
    }
    if (m == "listStatus") {
      const auto [path] = unpack<std::string>(req.body);
      return pack(listStatus(path));
    }
    if (m == "listFilesRecursive") {
      const auto [path] = unpack<std::string>(req.body);
      return pack(listFilesRecursive(path));
    }
    if (m == "delete") {
      const auto [path, recursive] = unpack<std::string, bool>(req.body);
      return pack(remove(path, recursive));
    }
    if (m == "rename") {
      const auto [from, to] = unpack<std::string, std::string>(req.body);
      rename(from, to);
      return {};
    }
    if (m == "create") {
      const auto [path, repl, bs] =
          unpack<std::string, uint64_t, uint64_t>(req.body);
      create(path, static_cast<uint16_t>(repl), bs);
      return {};
    }
    if (m == "addBlock") {
      const auto [path, client] = unpack<std::string, std::string>(req.body);
      return pack(addBlock(path, client));
    }
    if (m == "complete") {
      const auto [path] = unpack<std::string>(req.body);
      completeFile(path);
      return {};
    }
    if (m == "getBlockLocations") {
      const auto [path] = unpack<std::string>(req.body);
      return pack(getBlockLocations(path));
    }
    if (m == "setReplication") {
      const auto [path, repl] = unpack<std::string, uint16_t>(req.body);
      setReplication(path, repl);
      return {};
    }
    if (m == "reportBadBlock") {
      const auto [block, bad_host] = unpack<uint64_t, std::string>(req.body);
      reportBadBlock(block, bad_host);
      return {};
    }
    if (m == "registerDataNode") {
      const auto [dn_host, capacity, rack] =
          unpack<std::string, uint64_t, std::string>(req.body);
      registerDataNode(dn_host, capacity, rack);
      return {};
    }
    if (m == "heartbeat") {
      const auto [dn_host, capacity, used, nblocks, may_wait] =
          unpack<std::string, uint64_t, uint64_t, uint64_t, bool>(req.body);
      return pack(
          heartbeat(dn_host, capacity, used, nblocks, may_wait, req.cancel));
    }
    if (m == "blockReport") {
      const auto [dn_host, report] =
          unpack<std::string, std::vector<Block>>(req.body);
      return pack(blockReport(dn_host, report));
    }
    if (m == "blockReceived") {
      const auto [dn_host, block] = unpack<std::string, Block>(req.body);
      return pack(blockReceived(dn_host, block));
    }
    if (m == "fsck") {
      return pack(fsck());
    }
    if (m == "datanodeReport") {
      return pack(datanodeReport());
    }
    if (m == "safemode.get") {
      return pack(inSafeMode());
    }
    if (m == "safemode.set") {
      const auto [on] = unpack<bool>(req.body);
      setSafeMode(on);
      return {};
    }
    if (m == "saveImage") {
      return pack(saveImage());
    }
    if (m == "saveNamespace") {
      return pack(saveNamespace());
    }
    if (m == "rollEdits") {
      return pack(rollEdits());
    }
    throw InvalidArgumentError("namenode: unknown RPC method " + m);
  });
}

}  // namespace mh::hdfs
