#include "mh/hdfs/dfs_client.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "mh/common/error.h"
#include "mh/common/log.h"
#include "mh/common/threadpool.h"
#include "mh/common/trace.h"
#include "mh/hdfs/block_store.h"

namespace mh::hdfs {

namespace {
constexpr const char* kLog = "dfsclient";
/// Cap on the exponential backoff between read sweeps.
constexpr int64_t kRetryBackoffMaxMs = 200;
}  // namespace

DfsClient::DfsClient(Config conf, std::shared_ptr<net::Network> network,
                     std::string client_host, std::string namenode_host)
    : conf_(std::move(conf)),
      network_(network),
      namenode_(std::move(network), std::move(client_host),
                std::move(namenode_host)) {
  conf_.validate(keys::Scope::kDaemon);
}

void DfsClient::writeFile(const std::string& path, std::string_view data,
                          uint16_t replication, uint64_t block_size) {
  // One span per file write; the per-block writeBlock RPC spans (and any
  // replication pipeline work on the DataNodes) nest under it.
  TraceCollector& tracer = network_->tracer();
  const bool traced = tracer.enabled();
  TraceSpan write_span(&tracer,
                       traced ? "dfsclient." + namenode_.localHost() : "",
                       traced ? "DFS_WRITE " + path : "");
  if (traced) {
    write_span.arg("bytes", std::to_string(data.size()));
    write_span.arg("replication", std::to_string(replication));
  }
  namenode_.create(path, replication, block_size);
  const uint64_t bs = namenode_.getFileStatus(path).block_size;
  const int64_t write_tries = conf_.get(keys::kClientRetries);

  uint64_t offset = 0;
  do {  // empty files still produce zero blocks; loop handles data.size()==0
    const uint64_t chunk = std::min<uint64_t>(bs, data.size() - offset);
    if (data.size() > 0) {
      const std::string_view payload = data.substr(offset, chunk);
      const LocatedBlock located = namenode_.addBlock(path);
      if (located.hosts.empty()) {
        throw IoError("no targets for block of " + path);
      }
      // The payload is packed once, with the full ordered target list and
      // its chunk CRCs — the only time these bytes are checksummed on the
      // way in. Each DataNode forwards this same body to the host after its
      // own, so when a head fails, the next target heads the rest of the
      // list. The DataNodes keep this buffer as the block's replicas, so it
      // is reserved whole (varints take at most 10 bytes): growth slack
      // would stay pinned with them.
      const ChunkCrcs crcs{chunkChecksums(payload)};
      size_t body_bytes = payload.size() + 4 * crcs.values.size() + 64;
      for (const std::string& host : located.hosts) {
        body_bytes += host.size() + 10;
      }
      Bytes packed;
      packed.reserve(body_bytes);
      packInto(packed, Block{located.block.id, payload.size()}, payload,
               located.hosts, /*stored=*/false, crcs);
      const BufferView body(std::move(packed));
      // A ChecksumError means the pipeline tail rejected bytes corrupted in
      // transit and every replica was dropped: rewrite the block, up to
      // dfs.client.retries times.
      bool written = false;
      std::string last_error;
      for (int64_t attempt = 0; attempt < write_tries && !written; ++attempt) {
        bool rejected = false;
        for (size_t head = 0;
             head < located.hosts.size() && !written && !rejected; ++head) {
          try {
            network_->call(namenode_.localHost(), located.hosts[head],
                           kDataNodePort, "writeBlock", body, "pipeline");
            written = true;
          } catch (const ChecksumError& e) {
            logWarn(kLog) << "pipeline rejected block " << located.block.id
                          << ": " << e.what();
            last_error = e.what();
            rejected = true;
          } catch (const NetworkError& e) {
            logWarn(kLog) << "pipeline head " << located.hosts[head]
                          << " failed: " << e.what();
            last_error = e.what();
          }
        }
        if (!rejected) break;
      }
      if (!written) {
        throw IoError("could not write block " +
                      std::to_string(located.block.id) + " of " + path +
                      " to any pipeline: " + last_error);
      }
    }
    offset += chunk;
  } while (offset < data.size());

  namenode_.completeFile(path);
}

std::vector<LocatedBlock> DfsClient::getBlockLocations(
    const std::string& path) {
  return namenode_.getBlockLocations(path);
}

std::vector<std::string> DfsClient::orderByLocality(
    std::vector<std::string> hosts) const {
  const auto it =
      std::find(hosts.begin(), hosts.end(), namenode_.localHost());
  if (it != hosts.end()) {
    std::iter_swap(hosts.begin(), it);
  }
  return hosts;
}

BufferView DfsClient::readBlockRange(const LocatedBlock& located,
                                     uint64_t offset, uint64_t len) {
  // One span per block read; the readBlock RPC spans (handled on the
  // caller's thread) nest under it.
  TraceCollector& tracer = network_->tracer();
  const bool traced = tracer.enabled();
  TraceSpan read_span(
      &tracer, traced ? "dfsclient." + namenode_.localHost() : "",
      traced ? "DFS_READ blk_" + std::to_string(located.block.id) : "");
  if (traced) read_span.arg("len", std::to_string(len));
  const auto hosts = orderByLocality(located.hosts);
  if (hosts.empty()) {
    throw IoError("block " + std::to_string(located.block.id) +
                  " has no live replicas");
  }
  // Reads are idempotent, so a transient fault (dropped RPC, rebooting
  // DataNode) is worth a few bounded-backoff sweeps over the replica set
  // before giving up. Mutating namenode RPCs are deliberately NOT retried
  // here — they are not idempotent.
  const int64_t sweeps = conf_.get(keys::kClientRetries);
  const int64_t backoff_ms = conf_.get(keys::kClientRetryBackoffMs);
  std::string last_error;
  for (int64_t sweep = 0; sweep < sweeps; ++sweep) {
    if (sweep > 0) {
      const int64_t delay = std::min(
          kRetryBackoffMaxMs, backoff_ms << std::min<int64_t>(sweep, 20));
      if (delay > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      }
    }
    for (const std::string& host : hosts) {
      try {
        return network_->call(
            namenode_.localHost(), host, kDataNodePort, "readBlock",
            pack(static_cast<uint64_t>(located.block.id), offset, len),
            "read");
      } catch (const ChecksumError& e) {
        // The DataNode already reported itself; also report from our side
        // and fall over to the next replica.
        namenode_.reportBadBlock(located.block.id, host);
        last_error = e.what();
      } catch (const NotFoundError& e) {
        // The replica was invalidated (over-replication trim, re-placement)
        // between locate and read; the NameNode's kDelete reaches a
        // DataNode at once, so this is an ordinary race. Try the next one.
        last_error = e.what();
      } catch (const NetworkError& e) {
        last_error = e.what();
      }
    }
  }
  throw IoError("could not read block " + std::to_string(located.block.id) +
                " from any replica: " + last_error);
}

std::vector<BufferView> DfsClient::readFileViews(const std::string& path) {
  const auto status = namenode_.getFileStatus(path);
  if (status.is_dir) throw InvalidArgumentError("is a directory: " + path);

  // One fetch per block (each still walks its replicas best-first with
  // checksum fallover inside readBlockRange), at most width at once, then
  // assembled in order. Distinct slots are written by distinct indices; no
  // lock needed.
  const std::vector<LocatedBlock> blocks = namenode_.getBlockLocations(path);
  std::vector<BufferView> parts(blocks.size());
  std::vector<std::optional<std::string>> errors(blocks.size());
  forEachHelped(blocks.size(), conf_.get(keys::kClientParallelReads),
                [&](size_t i) {
                  const LocatedBlock& located = blocks[i];
                  try {
                    parts[i] = readBlockRange(located, 0, located.block.size);
                  } catch (const std::exception& e) {
                    errors[i] = e.what();
                  }
                });
  // The lowest-index failure is reported, as a serial read would.
  for (const std::optional<std::string>& error : errors) {
    if (error) throw IoError(*error);
  }
  return parts;
}

Bytes DfsClient::readFile(const std::string& path) {
  const std::vector<BufferView> parts = readFileViews(path);
  size_t total = 0;
  for (const BufferView& part : parts) total += part.size();
  Bytes out;
  out.reserve(total);
  for (const BufferView& part : parts) out.append(part.view());
  return out;
}

}  // namespace mh::hdfs
