#pragma once

#include "mh/mr/job.h"
#include "mh/mr/task_runner.h"

/// \file local_runner.h
/// Serial execution of a complete job against any FileSystemView — the
/// course's "MapReduce API libraries on the standard Linux command line,
/// without a supporting HDFS/MapReduce infrastructure" mode (assignment 1).
/// No daemons, no network, no threads: splits, then reduce partitions, run
/// one after another on the calling thread.

namespace mh::mr {

class LocalJobRunner {
 public:
  /// `fs` supplies both input and output (typically LocalFs).
  explicit LocalJobRunner(FileSystemView& fs) : fs_(fs) {}

  /// Runs the job to completion. User-code exceptions fail the job (state
  /// kFailed + error message) rather than propagate, matching the
  /// distributed engine's contract.
  JobResult run(JobSpec spec);

 private:
  FileSystemView& fs_;
};

}  // namespace mh::mr
