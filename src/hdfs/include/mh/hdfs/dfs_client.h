#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mh/common/config.h"
#include "mh/hdfs/namenode_rpc.h"
#include "mh/hdfs/types.h"
#include "mh/net/network.h"

/// \file dfs_client.h
/// User-facing HDFS client (the library behind `hadoop fs`). Writes go
/// through the replica pipeline (client -> dn1 -> dn2 -> dn3) with the
/// block's chunk CRCs computed once, here; when the pipeline tail rejects
/// them (bytes corrupted in transit) the block is rewritten, up to
/// `dfs.client.retries` tries, then IoError. Reads prefer
/// the replica on the caller's own host — the data-locality read path that
/// MapReduce tasks rely on. Checksum failures on read are reported to the
/// NameNode and the client falls over to the next replica; so does a
/// replica deleted between locate and read (NotFoundError).
///
/// Reads return refcounted views (buffer.h) of the serving store's buffer —
/// no payload copy on the zero-copy RPC path. A replica on the caller's own
/// host is read through the same readBlock RPC over loopback, which the
/// fabric leaves unpaced: the local read is zero-copy and free of wire
/// cost, metered as local `read` bytes, and subject to an installed
/// FaultPlan like any other call.

namespace mh::hdfs {

class DfsClient {
 public:
  /// `client_host` is the identity reads/writes originate from; MapReduce
  /// tasks pass their TaskTracker's host so local reads stay local.
  DfsClient(Config conf, std::shared_ptr<net::Network> network,
            std::string client_host, std::string namenode_host);

  const std::string& clientHost() const { return namenode_.localHost(); }

  // ----- whole-file convenience -------------------------------------------

  /// Creates `path` and writes `data` through replica pipelines, one block
  /// at a time, then finalizes the file.
  void writeFile(const std::string& path, std::string_view data,
                 uint16_t replication = 0, uint64_t block_size = 0);

  /// Reads the whole file, preferring local replicas, as readFileViews()
  /// does. This is the owned-copy convenience wrapper over it.
  Bytes readFile(const std::string& path);

  /// Zero-copy whole-file read: one view per block, in file order. The
  /// views alias the serving stores' buffers; concatenation (and its copy)
  /// is the caller's choice. Up to `dfs.client.parallel.reads` blocks are
  /// in flight through forEachHelped (threadpool.h): the calling thread
  /// reads blocks itself, helped by up to width-1 threads of the process's
  /// one I/O helper pool, which shuffle fetches share, so a read creates no
  /// thread. The caller waits only for blocks a helper has claimed, so a
  /// pool busy with other reads or fetches cannot stall it. Per-block
  /// replica retry and error reporting behave as in a serial read, and the
  /// lowest-index failure is the one thrown (IoError).
  std::vector<BufferView> readFileViews(const std::string& path);

  // ----- block-granular access (used by MapReduce record readers) ----------

  std::vector<LocatedBlock> getBlockLocations(const std::string& path);

  /// Reads [offset, offset+len) of one block, trying replicas best-first
  /// (the local one first, then the rest in NameNode order). Reports
  /// checksum failures and retries other replicas.
  BufferView readBlockRange(const LocatedBlock& located, uint64_t offset,
                            uint64_t len);

  // ----- namespace passthrough ---------------------------------------------

  void mkdirs(const std::string& path) { namenode_.mkdirs(path); }
  bool exists(const std::string& path) { return namenode_.exists(path); }
  bool remove(const std::string& path, bool recursive) {
    return namenode_.remove(path, recursive);
  }
  void rename(const std::string& from, const std::string& to) {
    namenode_.rename(from, to);
  }
  FileStatus getFileStatus(const std::string& path) {
    return namenode_.getFileStatus(path);
  }
  std::vector<FileStatus> listStatus(const std::string& path) {
    return namenode_.listStatus(path);
  }
  std::vector<std::string> listFilesRecursive(const std::string& path) {
    return namenode_.listFilesRecursive(path);
  }
  void setReplication(const std::string& path, uint16_t replication) {
    namenode_.setReplication(path, replication);
  }
  FsckReport fsck() { return namenode_.fsck(); }
  std::vector<DataNodeInfo> datanodeReport() {
    return namenode_.datanodeReport();
  }
  bool inSafeMode() { return namenode_.inSafeMode(); }

  NameNodeRpc& namenode() { return namenode_; }

 private:
  /// Orders replica hosts: the client's own host first, rest unchanged.
  std::vector<std::string> orderByLocality(
      std::vector<std::string> hosts) const;

  Config conf_;
  std::shared_ptr<net::Network> network_;
  NameNodeRpc namenode_;
};

}  // namespace mh::hdfs
