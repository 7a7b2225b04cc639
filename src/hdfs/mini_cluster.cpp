#include "mh/hdfs/mini_cluster.h"

#include <chrono>
#include <thread>

#include "mh/common/error.h"

namespace mh::hdfs {

MiniDfsCluster::MiniDfsCluster(MiniDfsOptions options)
    : options_(std::move(options)), conf_(options_.conf) {
  if (options_.num_datanodes < 1) {
    throw InvalidArgumentError("cluster needs >= 1 datanode");
  }
  network_ = std::make_shared<net::Network>();
  namenode_ = std::make_unique<NameNode>(conf_, network_, "namenode");
  namenode_->start();
  for (int i = 0; i < options_.num_datanodes; ++i) {
    addDataNode();
  }
}

MiniDfsCluster::~MiniDfsCluster() {
  // Snapshotter first: its sampler walks every daemon's gauges, so it must
  // quiesce before any daemon is destroyed.
  network_->stopSnapshotter();
  for (auto& [host, dn] : datanodes_) dn->stop();
  if (namenode_ != nullptr) namenode_->stop();
}

std::string MiniDfsCluster::hostName(int index) const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "node%02d", index);
  return buf;
}

std::vector<std::string> MiniDfsCluster::dataNodeHosts() const {
  std::vector<std::string> hosts;
  hosts.reserve(datanodes_.size());
  for (const auto& [host, dn] : datanodes_) hosts.push_back(host);
  return hosts;
}

DataNode& MiniDfsCluster::dataNode(const std::string& host) {
  const auto it = datanodes_.find(host);
  if (it == datanodes_.end()) {
    throw NotFoundError("no datanode on " + host);
  }
  return *it->second;
}

DfsClient MiniDfsCluster::client(const std::string& host) {
  // The NameNode host name is fixed, so clients can be minted even while
  // the NameNode is down (they get NetworkError until it returns).
  return DfsClient(conf_, network_, host, "namenode");
}

void MiniDfsCluster::killDataNode(const std::string& host) {
  dataNode(host).crash();
}

void MiniDfsCluster::stopDataNode(const std::string& host) {
  dataNode(host).stop();
}

void MiniDfsCluster::restartDataNode(const std::string& host) {
  network_->setHostUp(host, true);
  dataNode(host).start();
}

std::string MiniDfsCluster::rackOf(const std::string& host) const {
  // Hosts are node01, node02, ... assigned round-robin over the racks.
  const int racks = std::max(1, options_.racks);
  const int index = std::stoi(host.substr(4)) - 1;
  return "/rack" + std::to_string(index % racks);
}

std::string MiniDfsCluster::addDataNode() {
  const std::string host = hostName(next_node_index_++);
  std::shared_ptr<BlockStore> store;
  if (options_.use_file_store) {
    store = std::make_shared<FileBlockStore>(options_.store_root / host);
  } else {
    store = std::make_shared<MemBlockStore>();
  }
  stores_.emplace(host, store);
  Config node_conf = conf_;
  node_conf.set(keys::kDatanodeRack, rackOf(host));
  auto dn = std::make_unique<DataNode>(node_conf, network_, host, store,
                                       namenode_->host());
  dn->start();
  datanodes_.emplace(host, std::move(dn));
  return host;
}

void MiniDfsCluster::crashNameNode() {
  if (namenode_ == nullptr) return;
  namenode_->crash();
  namenode_.reset();
}

void MiniDfsCluster::restartNameNode() {
  if (!conf_.get(keys::kNamenodeNameDir).empty()) {
    // Journaling cluster: recover from disk (image + edit segments). Works
    // whether the old NameNode stopped cleanly, crashed, or is already gone.
    if (namenode_ != nullptr) {
      namenode_->stop();
      namenode_.reset();
    }
    network_->setHostUp("namenode", true);
    namenode_ = std::make_unique<NameNode>(conf_, network_, "namenode");
    namenode_->start();
    return;
  }
  const Bytes image = namenode_->saveImage();
  namenode_->stop();
  namenode_ = std::make_unique<NameNode>(conf_, network_, "namenode", image);
  namenode_->start();
}

bool MiniDfsCluster::waitHealthy(int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (namenode_ != nullptr) {
      const FsckReport report = namenode_->fsck();
      if (report.healthy && report.under_replicated == 0) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

bool MiniDfsCluster::waitOutOfSafeMode(int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (namenode_ != nullptr && !namenode_->inSafeMode()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

}  // namespace mh::hdfs
