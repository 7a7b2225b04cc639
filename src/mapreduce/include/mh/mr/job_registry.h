#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "mh/mr/job.h"

/// \file job_registry.h
/// Shared in-process registry mapping job ids to their JobSpec. Stands in
/// for Hadoop's job-jar distribution: the JobTracker publishes a spec here
/// at submit time and TaskTrackers look it up by id when an assignment
/// arrives (the control plane itself only carries ids).

namespace mh::mr {

class JobRegistry {
 public:
  void put(JobId id, std::shared_ptr<const JobSpec> spec) {
    std::lock_guard<std::mutex> lock(mutex_);
    specs_[id] = std::move(spec);
  }

  /// Throws NotFoundError for unknown jobs.
  std::shared_ptr<const JobSpec> get(JobId id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = specs_.find(id);
    if (it == specs_.end()) {
      throw NotFoundError("job " + std::to_string(id) + " not in registry");
    }
    return it->second;
  }

  /// The JobTracker removes a job's spec when the job finishes.
  void remove(JobId id) {
    std::lock_guard<std::mutex> lock(mutex_);
    specs_.erase(id);
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return specs_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::map<JobId, std::shared_ptr<const JobSpec>> specs_;
};

}  // namespace mh::mr
