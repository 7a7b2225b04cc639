#include "mh/hdfs/datanode.h"

#include <algorithm>
#include <chrono>

#include "mh/common/error.h"
#include "mh/common/log.h"
#include "mh/common/stopwatch.h"
#include "mh/hdfs/short_circuit.h"

namespace mh::hdfs {

namespace {
constexpr const char* kLog = "datanode";
}  // namespace

DataNode::DataNode(Config conf, std::shared_ptr<net::Network> network,
                   std::string host, std::shared_ptr<BlockStore> store,
                   std::string namenode_host)
    : conf_(std::move(conf)),
      network_(network),
      host_(std::move(host)),
      store_(std::move(store)),
      namenode_(std::move(network), host_, std::move(namenode_host)) {
  metrics_ = &network_->metrics().child("datanode." + host_);
  tracer_ = &network_->tracer();
  blocks_read_ = &metrics_->counter("blocks.read");
  blocks_written_ = &metrics_->counter("blocks.written");
  bytes_read_ = &metrics_->counter("bytes.read");
  bytes_written_ = &metrics_->counter("bytes.written");
  replications_ = &metrics_->counter("replications");
  deletes_ = &metrics_->counter("deletes");
  block_raw_bytes_ = &metrics_->counter("block.raw.bytes");
  block_compressed_bytes_ = &metrics_->counter("block.compressed.bytes");
  // At-rest compression: the store encodes on write and decodes on read;
  // everything resident (checksums, scans, replication) is the stored form.
  store_->configureCodec(
      codecFromName(conf_.get("dfs.block.compression.codec", "none")),
      metrics_, tracer_, "datanode." + host_);
  metrics_->setGauge("store.used_bytes", [store = store_] {
    return static_cast<double>(store->usedBytes());
  });
  // Payload bytes resident in the store. With refcounted replicas this is
  // charged once per block no matter how many read views are outstanding.
  metrics_->setGauge("blockstore.resident.bytes", [store = store_] {
    return static_cast<double>(store->usedBytes());
  });
  metrics_->setGauge("store.blocks", [store = store_] {
    return static_cast<double>(store->listBlocks().size());
  });
}

DataNode::~DataNode() { stop(); }

bool DataNode::running() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return running_;
}

void DataNode::start() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (running_) return;
    if (!port_bound_) {
      installRpc();  // throws AlreadyExistsError on a ghost daemon's port
      port_bound_ = true;
    }
    running_ = true;
  }
  network_->setHostUp(host_, true);
  // Offer co-located clients the short-circuit read path (HDFS-347).
  ShortCircuitRegistry::instance().publish(network_.get(), host_, store_);
  const uint64_t capacity = static_cast<uint64_t>(
      conf_.getInt("dfs.datanode.capacity", 1'073'741'824));
  namenode_.registerDataNode(capacity,
                             conf_.get("dfs.datanode.rack", "/default-rack"));
  blockReportNow();

  const auto interval = std::chrono::milliseconds(
      conf_.getInt("dfs.heartbeat.interval.ms", 100));
  heartbeat_thread_ = std::jthread([this, interval](std::stop_token token) {
    while (!token.stop_requested()) {
      interruptibleSleep(token, interval);
      if (token.stop_requested()) return;
      try {
        heartbeatNow();
      } catch (const NetworkError&) {
        // NameNode unreachable; keep beating until it returns.
      } catch (const std::exception& e) {
        logWarn(kLog) << host_ << " heartbeat error: " << e.what();
      }
    }
  });
  logInfo(kLog) << host_ << " started, "
                << store_->listBlocks().size() << " replicas";
}

void DataNode::stop() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (!running_ && !port_bound_) return;
    running_ = false;
  }
  ShortCircuitRegistry::instance().withdraw(network_.get(), host_);
  if (heartbeat_thread_.joinable()) {
    heartbeat_thread_.request_stop();
    heartbeat_thread_.join();
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (port_bound_) {
      network_->unbind(host_, kDataNodePort);
      port_bound_ = false;
    }
  }
  logInfo(kLog) << host_ << " stopped";
}

void DataNode::abandon() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    running_ = false;
  }
  if (heartbeat_thread_.joinable()) {
    heartbeat_thread_.request_stop();
    heartbeat_thread_.join();
  }
  // The port stays bound: the ghost daemon from the paper.
  logWarn(kLog) << host_ << " abandoned (port still bound)";
}

void DataNode::crash() {
  // A dead process serves no fds: local readers lose short-circuit too.
  ShortCircuitRegistry::instance().withdraw(network_.get(), host_);
  network_->setHostUp(host_, false);
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    running_ = false;
  }
  if (heartbeat_thread_.joinable()) {
    heartbeat_thread_.request_stop();
    heartbeat_thread_.join();
  }
  logWarn(kLog) << host_ << " crashed";
}

void DataNode::heartbeatNow() {
  const uint64_t capacity = static_cast<uint64_t>(
      conf_.getInt("dfs.datanode.capacity", 1'073'741'824));
  const HeartbeatReply reply = namenode_.heartbeat(
      capacity, store_->usedBytes(), store_->listBlocks().size());
  if (reply.reregister) {
    namenode_.registerDataNode(capacity,
                               conf_.get("dfs.datanode.rack", "/default-rack"));
    blockReportNow();
    return;
  }
  if (reply.request_block_report) blockReportNow();
  // The NameNode has already handed these over: one failing command must
  // not drop the rest (a lost kDelete would leak its replica for good).
  for (const DataNodeCommand& command : reply.commands) {
    try {
      executeCommand(command);
    } catch (const std::exception& e) {
      logWarn(kLog) << host_ << " command on block " << command.block
                    << " failed: " << e.what();
    }
  }
}

void DataNode::blockReportNow() {
  std::vector<Block> report;
  for (const BlockId id : store_->listBlocks()) {
    report.push_back({id, store_->blockSize(id)});
  }
  for (const BlockId id : namenode_.blockReport(report)) {
    store_->deleteBlock(id);
  }
}

std::vector<BlockId> DataNode::runBlockScanner() {
  const auto bad = store_->scanAll();
  for (const BlockId id : bad) {
    logWarn(kLog) << host_ << " scanner found corrupt replica of block " << id;
    namenode_.reportBadBlock(id, host_);
  }
  return bad;
}

void DataNode::executeCommand(const DataNodeCommand& command) {
  switch (command.kind) {
    case DataNodeCommand::Kind::kDelete:
      store_->deleteBlock(command.block);
      deletes_->add();
      break;
    case DataNodeCommand::Kind::kReplicate:
      replicateTo(command.block, command.targets);
      break;
  }
}

void DataNode::replicateTo(BlockId block,
                           const std::vector<std::string>& targets) {
  TraceSpan span(tracer_, "datanode." + host_, "REPLICATE");
  span.arg("block", std::to_string(block));
  // Ship the replica in its STORED form: compressed frames replicate
  // without a decode/re-encode round trip, and the per-frame CRCs travel
  // with the bytes.
  StoredReplica replica;
  try {
    replica = store_->readStored(block);
  } catch (const ChecksumError&) {
    namenode_.reportBadBlock(block, host_);
    return;
  } catch (const NotFoundError&) {
    return;  // replica vanished; NameNode will reschedule elsewhere
  }
  const bool stored = replica.codec != CodecKind::kNone;
  // One body for every target. Its pipeline list is empty, so no target
  // forwards it.
  const BufferView body =
      pack(Block{block, replica.raw_size}, replica.stored.view(),
           std::vector<std::string>{}, stored);
  for (const std::string& target : targets) {
    try {
      network_->call(host_, target, kDataNodePort, "writeBlock", body,
                     "replication");
      replications_->add();
    } catch (const std::exception& e) {
      logWarn(kLog) << host_ << " replication of block " << block << " to "
                    << target << " failed: " << e.what();
    }
  }
}

void DataNode::installRpc() {
  // readBlock replies are views of the store's replica buffers, so the
  // caller receives them uncopied.
  network_->bind(host_, kDataNodePort,
                 [this](const net::RpcRequest& req) -> BufferView {
    if (req.method == "writeBlock") {
      // string_view unpack: the payload stays inside the request buffer
      // until the store copies it into a fresh replica. `stored` marks a
      // payload already in its resident (framed) form — the replication
      // path — which is adopted byte-for-byte, never re-encoded.
      // `pipeline` is the client's full ordered target list.
      const auto [block, data, pipeline, stored] =
          unpack<Block, std::string_view, std::vector<std::string>, bool>(
              req.body);
      if (stored) {
        store_->adoptStored(block.id, data);
      } else {
        store_->writeBlock(block.id, data);
      }
      blocks_written_->add();
      bytes_written_->add(static_cast<int64_t>(data.size()));
      // Raw counts the logical payload; compressed counts resident bytes
      // only for encoded replicas, so the pair reads as a codec ratio and
      // stays silent when the seam is off.
      block_raw_bytes_->add(static_cast<int64_t>(block.size));
      const uint64_t resident = store_->storedSize(block.id);
      if (resident != block.size || store_->codec() != CodecKind::kNone) {
        block_compressed_bytes_->add(static_cast<int64_t>(resident));
      }
      if (tracer_->enabled()) {
        tracer_->instant("datanode." + host_,
                         "WRITE_BLOCK blk_" + std::to_string(block.id),
                         {{"bytes", std::to_string(data.size())}});
      }
      if (!namenode_.blockReceived(Block{block.id, block.size})) {
        // The block's file was deleted while the replica was in flight:
        // drop it, as for an invalid id in a block report, and tell the
        // writer its block did not land.
        store_->deleteBlock(block.id);
        throw NotFoundError("block " + std::to_string(block.id) +
                            " was deleted while being written");
      }
      // Forward the very request we received to the host after ours: the
      // list is unchanged, so the next hop costs no payload copy.
      const auto self = std::find(pipeline.begin(), pipeline.end(), host_);
      if (self != pipeline.end() && self + 1 != pipeline.end()) {
        const std::string& next = *(self + 1);
        try {
          network_->call(host_, next, kDataNodePort, "writeBlock", req.body,
                         "pipeline");
        } catch (const NetworkError& e) {
          // Pipeline recovery: the block lands under-replicated and the
          // NameNode's monitor repairs it later.
          logWarn(kLog) << host_ << " pipeline to " << next
                        << " failed: " << e.what();
        }
      }
      return {};
    }
    if (req.method == "readBlock") {
      const auto [id, offset, len] =
          unpack<uint64_t, uint64_t, uint64_t>(req.body);
      try {
        BufferView data = store_->readBlockRange(id, offset, len);
        blocks_read_->add();
        bytes_read_->add(static_cast<int64_t>(data.size()));
        if (tracer_->enabled()) {
          tracer_->instant("datanode." + host_,
                           "READ_BLOCK blk_" + std::to_string(id),
                           {{"bytes", std::to_string(data.size())}});
        }
        return data;
      } catch (const ChecksumError&) {
        namenode_.reportBadBlock(id, host_);
        throw;
      }
    }
    if (req.method == "scan") {
      return pack(runBlockScanner());
    }
    throw InvalidArgumentError("datanode: unknown RPC method " + req.method);
  });
}

}  // namespace mh::hdfs
