#include "mh/hdfs/dfs_client.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "mh/common/error.h"
#include "mh/common/log.h"
#include "mh/common/trace.h"
#include "mh/hdfs/short_circuit.h"
#include "mh/net/fault_plan.h"

namespace mh::hdfs {

namespace {
constexpr const char* kLog = "dfsclient";
}  // namespace

DfsClient::DfsClient(Config conf, std::shared_ptr<net::Network> network,
                     std::string client_host, std::string namenode_host)
    : conf_(std::move(conf)),
      network_(network),
      namenode_(std::move(network), std::move(client_host),
                std::move(namenode_host)) {
  short_circuit_ = conf_.getBool("dfs.client.read.shortcircuit", false);
  short_circuit_reads_ =
      &network_->metrics().child("dfsclient").counter("short.circuit.reads");
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

  uint64_t offset = 0;
  do {  // empty files still produce zero blocks; loop handles data.size()==0
    const uint64_t chunk = std::min<uint64_t>(bs, data.size() - offset);
    if (data.size() > 0) {
      const std::string_view payload = data.substr(offset, chunk);
      const LocatedBlock located = namenode_.addBlock(path);
      if (located.hosts.empty()) {
        throw IoError("no targets for block of " + path);
      }
      // The payload is packed once, with the full ordered target list.
      // Each DataNode forwards this same body to the host after its own,
      // so when a head fails, the next target heads the rest of the list.
      const BufferView body =
          pack(Block{located.block.id, payload.size()}, payload,
               located.hosts, /*stored=*/false);
      bool written = false;
      for (size_t head = 0; head < located.hosts.size() && !written; ++head) {
        try {
          network_->call(namenode_.localHost(), located.hosts[head],
                         kDataNodePort, "writeBlock", body, "pipeline");
          written = true;
        } catch (const NetworkError& e) {
          logWarn(kLog) << "pipeline head " << located.hosts[head]
                        << " failed: " << e.what();
        }
      }
      if (!written) {
        throw IoError("all pipeline targets failed for block " +
                      std::to_string(located.block.id) + " of " + path);
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

std::optional<BufferView> DfsClient::tryShortCircuitRead(
    const LocatedBlock& located, uint64_t offset, uint64_t len) {
  if (!short_circuit_) return std::nullopt;
  const std::string& local = namenode_.localHost();
  if (std::find(located.hosts.begin(), located.hosts.end(), local) ==
      located.hosts.end()) {
    return std::nullopt;
  }
  // A crashed DataNode serves no file descriptors, and a host fenced into
  // its own partition keeps its replicas to itself — mirror the RPC path's
  // reachability rules before touching the store.
  if (!network_->hostUp(local)) return std::nullopt;
  if (const auto plan = network_->faultPlan();
      plan != nullptr && plan->partitioned(local, local)) {
    return std::nullopt;
  }
  const std::shared_ptr<BlockStore> store =
      ShortCircuitRegistry::instance().lookup(network_.get(), local);
  if (store == nullptr) return std::nullopt;
  try {
    BufferView data = store->readBlockRange(located.block.id, offset, len);
    short_circuit_reads_->add();
    TraceCollector& tracer = network_->tracer();
    if (tracer.enabled()) {
      tracer.instant(
          "dfsclient." + local,
          "SHORT_CIRCUIT_READ blk_" + std::to_string(located.block.id),
          {{"bytes", std::to_string(data.size())}});
    }
    return data;
  } catch (const ChecksumError&) {
    // Same report a failed RPC read would have produced; the replica sweep
    // below falls over to the remote copies.
    namenode_.reportBadBlock(located.block.id, local);
    return std::nullopt;
  } catch (const NotFoundError&) {
    return std::nullopt;  // replica vanished between locate and read
  }
}

BufferView DfsClient::readBlockRange(const LocatedBlock& located,
                                     uint64_t offset, uint64_t len) {
  // One span per block read; SHORT_CIRCUIT_READ instants and readBlock
  // RPC spans (handled on the caller's thread) nest under it.
  TraceCollector& tracer = network_->tracer();
  const bool traced = tracer.enabled();
  TraceSpan read_span(
      &tracer, traced ? "dfsclient." + namenode_.localHost() : "",
      traced ? "DFS_READ blk_" + std::to_string(located.block.id) : "");
  if (traced) read_span.arg("len", std::to_string(len));
  if (std::optional<BufferView> local =
          tryShortCircuitRead(located, offset, len)) {
    return *std::move(local);
  }
  const auto hosts = orderByLocality(located.hosts);
  if (hosts.empty()) {
    throw IoError("block " + std::to_string(located.block.id) +
                  " has no live replicas");
  }
  // Reads are idempotent, so a transient fault (dropped RPC, rebooting
  // DataNode) is worth a few bounded-backoff sweeps over the replica set
  // before giving up. Mutating namenode RPCs are deliberately NOT retried
  // here — they are not idempotent.
  const auto sweeps =
      std::max<int64_t>(1, conf_.getInt("dfs.client.retries", 3));
  const int64_t backoff_ms = conf_.getInt("dfs.client.retry.backoff.ms", 5);
  const int64_t backoff_max_ms =
      conf_.getInt("dfs.client.retry.backoff.max.ms", 200);
  std::string last_error;
  for (int64_t sweep = 0; sweep < sweeps; ++sweep) {
    if (sweep > 0) {
      const int64_t delay =
          std::min(backoff_max_ms, backoff_ms << std::min<int64_t>(sweep, 20));
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
  const std::vector<LocatedBlock> blocks = namenode_.getBlockLocations(path);
  const size_t n = blocks.size();
  std::vector<BufferView> parts(n);

  // Fetch block ranges in parallel (each block still walks its replicas
  // best-first with checksum fallover inside readBlockRange), then
  // assemble in block order.
  const auto copies = static_cast<size_t>(
      std::max<int64_t>(1, conf_.getInt("dfs.client.parallel.reads", 4)));
  const size_t workers = std::min(n, copies);
  if (workers <= 1) {
    for (size_t i = 0; i < n; ++i) {
      parts[i] = readBlockRange(blocks[i], 0, blocks[i].block.size);
    }
  } else {
    // Distinct slots are written by distinct fetches; no lock needed. The
    // lowest-index failure is reported, matching the serial path.
    std::vector<std::unique_ptr<std::string>> errors(n);
    std::atomic<size_t> next{0};
    // Reader threads inherit the caller's causal context so their
    // DFS_READ spans stay children of the enclosing task/job span.
    const TraceContext read_ctx = currentTraceContext();
    const auto read_loop = [&] {
      const TraceContextScope trace_scope(read_ctx);
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        try {
          parts[i] = readBlockRange(blocks[i], 0, blocks[i].block.size);
        } catch (const std::exception& e) {
          errors[i] = std::make_unique<std::string>(e.what());
        }
      }
    };
    {
      std::vector<std::jthread> readers;
      readers.reserve(workers);
      for (size_t t = 0; t < workers; ++t) readers.emplace_back(read_loop);
    }
    for (size_t i = 0; i < n; ++i) {
      if (errors[i] != nullptr) throw IoError(*errors[i]);
    }
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
