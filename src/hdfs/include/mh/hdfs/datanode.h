#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "mh/common/config.h"
#include "mh/hdfs/block_store.h"
#include "mh/hdfs/namenode_rpc.h"
#include "mh/hdfs/types.h"
#include "mh/net/network.h"

/// \file datanode.h
/// The HDFS worker daemon: stores checksummed block replicas, heartbeats to
/// the NameNode, sends block reports, serves reads, participates in write
/// pipelines, and executes replicate/delete commands piggybacked on
/// heartbeat replies.
///
/// Write pipeline: a writeBlock request carries the payload, the ordered
/// target list and the writer's chunk CRCs. Each DataNode stores the CRCs
/// it received, forwards the same request to the next target, and reports
/// blockReceived only after that downstream ack, as HDFS does. The tail —
/// the last target, or the last one reachable — verifies the CRCs; when it
/// rejects, every upstream DataNode drops its replica and the ChecksumError
/// reaches the writer, so no replica keeps bytes the tail refused.
///
/// Heartbeats are held (see namenode.h): the background beat tells the
/// NameNode it may wait, the NameNode answers when it has a command for
/// this DataNode or after dfs.heartbeat.interval.ms, and the DataNode beats
/// again at once. stop(), crash() and abandon() cancel a held beat at
/// once; heartbeatNow() never holds.
///
/// Lifecycle verbs map to the paper's war stories:
///  * stop()    — clean shutdown: daemon threads join, ports are released.
///  * abandon() — the "ghost daemon": threads stop but the port stays bound,
///                so the next cluster booted on this host fails to bind.
///  * crash()   — the host drops off the network (OOM-killed JVM); the
///                NameNode notices via heartbeat expiry and re-replicates.

namespace mh::hdfs {

class DataNode {
 public:
  DataNode(Config conf, std::shared_ptr<net::Network> network,
           std::string host, std::shared_ptr<BlockStore> store,
           std::string namenode_host);

  ~DataNode();
  DataNode(const DataNode&) = delete;
  DataNode& operator=(const DataNode&) = delete;

  /// Registers with the NameNode, binds the data port (throws
  /// AlreadyExistsError when a ghost daemon still holds it), sends an
  /// initial block report, and starts the heartbeat thread.
  void start();

  /// Clean shutdown: stop threads, unbind the port. Idempotent.
  void stop();

  /// Ghost-daemon exit: threads stop, the port stays bound.
  void abandon();

  /// Simulated machine crash: the host goes down on the fabric and threads
  /// stop. Bindings stay (a hung process), so a later restart on the same
  /// host must go through restartable start() semantics.
  void crash();

  const std::string& host() const { return host_; }
  BlockStore& store() { return *store_; }
  const BlockStore& store() const { return *store_; }
  bool running() const;

  /// Sends one heartbeat that is never held and executes any returned
  /// commands (test hook). It first ends the background beat and waits for
  /// the commands that beat carried to run, so every command queued before
  /// the call has run when it returns.
  void heartbeatNow();

  /// Sends a full block report now.
  void blockReportNow();

  /// Verifies every replica's checksums (the DataNode block scanner / the
  /// post-restart integrity check). Corrupt replicas are reported to the
  /// NameNode. Returns the corrupt block ids.
  std::vector<BlockId> runBlockScanner();

 private:
  void installRpc();
  void heartbeatLoop(std::stop_token token);
  /// One beat: with `may_wait` the NameNode may hold it until `cancel`.
  void beatOnce(bool may_wait, std::stop_token cancel);
  void executeCommand(const DataNodeCommand& command);
  void replicateTo(BlockId block, const std::vector<std::string>& targets);

  Config conf_;
  std::shared_ptr<net::Network> network_;
  std::string host_;
  std::shared_ptr<BlockStore> store_;
  NameNodeRpc namenode_;

  // Claimed at construction ("datanode.<host>"); counters are cached so hot
  // paths never do a registry lookup.
  MetricsRegistry* metrics_ = nullptr;
  TraceCollector* tracer_ = nullptr;
  Counter* blocks_read_ = nullptr;
  Counter* blocks_written_ = nullptr;
  Counter* bytes_read_ = nullptr;
  Counter* bytes_written_ = nullptr;
  Counter* replications_ = nullptr;
  Counter* deletes_ = nullptr;
  /// Per-write raw (logical) vs stored (possibly compressed) byte totals;
  /// equal while `dfs.block.compression.codec` is "none".
  Counter* block_raw_bytes_ = nullptr;
  Counter* block_compressed_bytes_ = nullptr;

  mutable std::mutex state_mutex_;
  bool running_ = false;
  bool port_bound_ = false;

  /// Orders heartbeatNow() after the background beat: the loop starts no
  /// beat while a manual one is pending, and heartbeatNow() cancels the
  /// beat in flight and waits for it (and its commands) to finish.
  std::mutex beat_mutex_;
  std::condition_variable_any beat_cv_;
  std::stop_source held_beat_cancel_;  ///< the background beat's cancel
  bool beat_in_flight_ = false;
  int manual_beats_ = 0;

  std::jthread heartbeat_thread_;
};

}  // namespace mh::hdfs
