#pragma once

#include <memory>
#include <stop_token>
#include <string>
#include <vector>

#include "mh/hdfs/types.h"
#include "mh/hdfs/wire.h"
#include "mh/net/network.h"

/// \file namenode_rpc.h
/// Client stub for the NameNode protocol. Every caller that is not the
/// NameNode itself (DFS clients, DataNodes, the JobTracker) goes through
/// this stub so the traffic is serialized, metered, and subject to the
/// fabric's failure semantics.

namespace mh::hdfs {

class NameNodeRpc {
 public:
  NameNodeRpc(std::shared_ptr<net::Network> network, std::string local_host,
              std::string namenode_host)
      : network_(std::move(network)),
        local_host_(std::move(local_host)),
        namenode_host_(std::move(namenode_host)) {
    network_->addHost(local_host_);
  }

  const std::string& localHost() const { return local_host_; }
  const std::string& namenodeHost() const { return namenode_host_; }
  const std::shared_ptr<net::Network>& network() const { return network_; }

  // ----- client protocol --------------------------------------------------

  void mkdirs(const std::string& path) { call("mkdirs", pack(path)); }

  bool exists(const std::string& path) {
    return std::get<0>(unpack<bool>(call("exists", pack(path))));
  }

  FileStatus getFileStatus(const std::string& path) {
    return std::get<0>(
        unpack<FileStatus>(call("getFileStatus", pack(path))));
  }

  std::vector<FileStatus> listStatus(const std::string& path) {
    return std::get<0>(
        unpack<std::vector<FileStatus>>(call("listStatus", pack(path))));
  }

  std::vector<std::string> listFilesRecursive(const std::string& path) {
    return std::get<0>(unpack<std::vector<std::string>>(
        call("listFilesRecursive", pack(path))));
  }

  bool remove(const std::string& path, bool recursive) {
    return std::get<0>(
        unpack<bool>(call("delete", pack(path, recursive))));
  }

  void rename(const std::string& from, const std::string& to) {
    call("rename", pack(from, to));
  }

  void create(const std::string& path, uint16_t replication = 0,
              uint64_t block_size = 0) {
    call("create",
         pack(path, static_cast<uint64_t>(replication), block_size));
  }

  LocatedBlock addBlock(const std::string& path) {
    return std::get<0>(
        unpack<LocatedBlock>(call("addBlock", pack(path, local_host_))));
  }

  void completeFile(const std::string& path) { call("complete", pack(path)); }

  std::vector<LocatedBlock> getBlockLocations(const std::string& path) {
    return std::get<0>(unpack<std::vector<LocatedBlock>>(
        call("getBlockLocations", pack(path))));
  }

  void reportBadBlock(BlockId block, const std::string& host) {
    call("reportBadBlock", pack(static_cast<uint64_t>(block), host));
  }

  void setReplication(const std::string& path, uint16_t replication) {
    call("setReplication", pack(path, replication));
  }

  // ----- datanode protocol ------------------------------------------------

  void registerDataNode(uint64_t capacity_bytes, const std::string& rack) {
    call("registerDataNode", pack(local_host_, capacity_bytes, rack));
  }

  /// With `may_wait` the NameNode may hold the beat until it has a command
  /// for this host (see NameNode::heartbeat); `cancel` ends the hold.
  HeartbeatReply heartbeat(uint64_t capacity_bytes, uint64_t used_bytes,
                           uint64_t num_blocks, bool may_wait = false,
                           std::stop_token cancel = {}) {
    return std::get<0>(unpack<HeartbeatReply>(
        call("heartbeat",
             pack(local_host_, capacity_bytes, used_bytes, num_blocks,
                  may_wait),
             std::move(cancel))));
  }

  std::vector<BlockId> blockReport(const std::vector<Block>& blocks) {
    return std::get<0>(unpack<std::vector<BlockId>>(
        call("blockReport", pack(local_host_, blocks))));
  }

  /// False when the NameNode no longer knows the block (its file was
  /// deleted): the caller must delete the replica it just stored.
  bool blockReceived(Block block) {
    return std::get<0>(
        unpack<bool>(call("blockReceived", pack(local_host_, block))));
  }

  // ----- admin --------------------------------------------------------

  FsckReport fsck() { return std::get<0>(unpack<FsckReport>(call("fsck", {}))); }

  std::vector<DataNodeInfo> datanodeReport() {
    return std::get<0>(
        unpack<std::vector<DataNodeInfo>>(call("datanodeReport", {})));
  }

  bool inSafeMode() {
    return std::get<0>(unpack<bool>(call("safemode.get", {})));
  }

  void setSafeMode(bool on) { call("safemode.set", pack(on)); }

  Bytes saveImage() {
    return std::get<0>(unpack<Bytes>(call("saveImage", {})));
  }

  /// Forces an fsimage checkpoint (dfsadmin -saveNamespace); returns the
  /// txn the image covers.
  uint64_t saveNamespace() {
    return std::get<0>(unpack<uint64_t>(call("saveNamespace", {})));
  }

  /// Rolls the edit segment (dfsadmin -rollEdits); returns the new
  /// segment's first txn.
  uint64_t rollEdits() {
    return std::get<0>(unpack<uint64_t>(call("rollEdits", {})));
  }

 private:
  BufferView call(std::string method, BufferView body,
                  std::stop_token cancel = {}) {
    return network_->call(local_host_, namenode_host_, kNameNodePort,
                          std::move(method), std::move(body), "rpc",
                          std::move(cancel));
  }

  std::shared_ptr<net::Network> network_;
  std::string local_host_;
  std::string namenode_host_;
};

}  // namespace mh::hdfs
