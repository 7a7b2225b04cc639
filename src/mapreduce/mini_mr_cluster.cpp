#include "mh/mr/mini_mr_cluster.h"

#include <chrono>
#include <thread>

#include "mh/common/error.h"

namespace mh::mr {

MiniMrCluster::MiniMrCluster(MiniMrOptions options)
    : options_(std::move(options)), conf_(options_.conf) {
  dfs_ = std::make_unique<hdfs::MiniDfsCluster>(
      hdfs::MiniDfsOptions{.num_datanodes = options_.num_nodes,
                           .racks = options_.racks,
                           .conf = conf_});
  registry_ = std::make_shared<JobRegistry>();
  job_tracker_ = std::make_unique<JobTracker>(conf_, dfs_->network(),
                                              registry_, "jobtracker",
                                              dfs_->nameNode().host());
  job_tracker_->start();
  for (const auto& host : dfs_->dataNodeHosts()) {
    Config node_conf = conf_;
    node_conf.set(keys::kDatanodeRack, dfs_->rackOf(host));
    auto tracker = std::make_unique<TaskTracker>(
        node_conf, dfs_->network(), host, registry_, job_tracker_->host(),
        dfs_->nameNode().host());
    tracker->start();
    trackers_.emplace(host, std::move(tracker));
  }
  // Like Hadoop's MiniMRCluster, return once every tracker has heartbeated,
  // so a job submitted at once is offered to the whole cluster.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (job_tracker_->heartbeatingTrackers() < trackers_.size() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

MiniMrCluster::~MiniMrCluster() {
  // Snapshotter first: its sampler walks every daemon's gauges, so it must
  // quiesce before any daemon is destroyed.
  network()->stopSnapshotter();
  // JobTracker first, as stop-mapred.sh does: its stop releases the beats
  // it holds, so each tracker's stop need not wait one out.
  job_tracker_->stop();
  for (auto& [host, tracker] : trackers_) tracker->stop();
}

TaskTracker& MiniMrCluster::taskTracker(const std::string& host) {
  const auto it = trackers_.find(host);
  if (it == trackers_.end()) {
    throw NotFoundError("no tasktracker on " + host);
  }
  return *it->second;
}

std::vector<std::string> MiniMrCluster::trackerHosts() const {
  std::vector<std::string> hosts;
  hosts.reserve(trackers_.size());
  for (const auto& [host, tracker] : trackers_) hosts.push_back(host);
  return hosts;
}

JobResult MiniMrCluster::runJob(JobSpec spec) {
  const JobId id = job_tracker_->submit(std::move(spec));
  return job_tracker_->wait(id);
}

void MiniMrCluster::killNode(const std::string& host) {
  taskTracker(host).crash();
  dfs_->killDataNode(host);
}

void MiniMrCluster::restartNode(const std::string& host) {
  dfs_->restartDataNode(host);
  taskTracker(host).start();
}

}  // namespace mh::mr
