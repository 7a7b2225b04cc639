#include "mh/batch/myhadoop.h"

#include "mh/common/error.h"
#include "mh/common/log.h"

namespace mh::batch {

namespace {
constexpr const char* kLog = "myhadoop";
}  // namespace

MyHadoopSession::MyHadoopSession(Config conf,
                                 std::shared_ptr<net::Network> network,
                                 std::vector<std::string> hosts,
                                 std::string user)
    : conf_(std::move(conf)),
      network_(std::move(network)),
      hosts_(std::move(hosts)),
      user_(std::move(user)) {
  if (hosts_.empty()) throw InvalidArgumentError("need >= 1 host");
  registry_ = std::make_shared<mr::JobRegistry>();
}

MyHadoopSession::~MyHadoopSession() {
  if (running_) stop();
}

void MyHadoopSession::start() {
  if (running_) return;
  logInfo(kLog) << user_ << " booting Hadoop on " << hosts_.size()
                << " nodes (head " << hosts_[0] << ")";
  try {
    namenode_ =
        std::make_unique<hdfs::NameNode>(conf_, network_, hosts_[0]);
    namenode_->start();  // binds hosts[0]:8020
    job_tracker_ = std::make_unique<mr::JobTracker>(
        conf_, network_, registry_, hosts_[0], hosts_[0]);
    job_tracker_->start();  // binds hosts[0]:50030
    for (const auto& host : hosts_) {
      auto store_it = stores_.find(host);
      if (store_it == stores_.end()) {
        store_it =
            stores_.emplace(host, std::make_shared<hdfs::MemBlockStore>())
                .first;
      }
      auto dn = std::make_unique<hdfs::DataNode>(
          conf_, network_, host, store_it->second, hosts_[0]);
      dn->start();  // binds host:50010
      datanodes_.emplace(host, std::move(dn));
      auto tt = std::make_unique<mr::TaskTracker>(
          conf_, network_, host, registry_, hosts_[0], hosts_[0]);
      tt->start();  // binds host:50060
      task_trackers_.emplace(host, std::move(tt));
    }
  } catch (...) {
    rollback();
    throw;
  }
  running_ = true;
}

void MyHadoopSession::rollback() {
  for (auto& [host, tt] : task_trackers_) tt->stop();
  task_trackers_.clear();
  for (auto& [host, dn] : datanodes_) dn->stop();
  datanodes_.clear();
  if (job_tracker_) {
    job_tracker_->stop();
    job_tracker_.reset();
  }
  if (namenode_) {
    namenode_->stop();
    namenode_.reset();
  }
}

void MyHadoopSession::stop() {
  if (!running_ && !namenode_) return;
  rollback();
  running_ = false;
  logInfo(kLog) << user_ << " stopped Hadoop cleanly";
}

void MyHadoopSession::abandon() {
  // Daemon threads stop (the session object is going away) but every port
  // stays bound: the ghost-daemon exit.
  for (auto& [host, tt] : task_trackers_) tt->abandon();
  for (auto& [host, dn] : datanodes_) dn->abandon();
  // NameNode/JobTracker: stop their threads without unbinding. Their stop()
  // unbinds, so emulate the hung JVM by leaving a tombstone handler bound.
  if (job_tracker_) {
    job_tracker_->stop();
    network_->bind(hosts_[0], mr::kJobTrackerPort,
                   [](const net::RpcRequest&) -> BufferView {
                     throw NetworkError("ghost jobtracker");
                   });
  }
  if (namenode_) {
    namenode_->stop();
    network_->bind(hosts_[0], hdfs::kNameNodePort,
                   [](const net::RpcRequest&) -> BufferView {
                     throw NetworkError("ghost namenode");
                   });
  }
  task_trackers_.clear();
  datanodes_.clear();
  job_tracker_.reset();
  namenode_.reset();
  running_ = false;
  logWarn(kLog) << user_ << " abandoned the session; ghost daemons remain on "
                << hosts_.size() << " nodes";
}

hdfs::DfsClient MyHadoopSession::client() {
  if (!running_) throw IllegalStateError("session is not running");
  return hdfs::DfsClient(conf_, network_, user_ + "-login", hosts_[0]);
}

mr::JobTracker& MyHadoopSession::jobTracker() {
  if (!running_) throw IllegalStateError("session is not running");
  return *job_tracker_;
}

mr::JobResult MyHadoopSession::runJob(mr::JobSpec spec) {
  const mr::JobId id = jobTracker().submit(std::move(spec));
  return jobTracker().wait(id);
}

void MyHadoopSession::stageIn(const std::string& dfs_path,
                              std::string_view data) {
  client().writeFile(dfs_path, data);
}

Bytes MyHadoopSession::stageOut(const std::string& dfs_path) {
  return client().readFile(dfs_path);
}

}  // namespace mh::batch
