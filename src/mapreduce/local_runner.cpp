#include "mh/mr/local_runner.h"

#include <future>

#include "mh/common/log.h"
#include "mh/common/stopwatch.h"
#include "mh/common/threadpool.h"
#include "mh/mr/kv_stream.h"

namespace mh::mr {

JobResult LocalJobRunner::run(JobSpec spec) {
  Stopwatch watch;
  JobResult result;
  try {
    spec.validateAndDefault();
    const auto input_format = spec.input_format();
    const auto splits = input_format->getSplits(fs_, spec.input_paths);

    // Map phase.
    std::vector<MapTaskResult> map_results(splits.size());
    const size_t threads = spec.conf.get(keys::kLocalMapThreads);
    if (threads <= 1) {
      for (size_t i = 0; i < splits.size(); ++i) {
        map_results[i] = runMapTask(spec, fs_, splits[i]);
      }
    } else {
      ThreadPool pool(threads);
      std::vector<std::future<MapTaskResult>> futures;
      futures.reserve(splits.size());
      for (const auto& split : splits) {
        futures.push_back(pool.submit(
            [this, &spec, split] { return runMapTask(spec, fs_, split); }));
      }
      for (size_t i = 0; i < futures.size(); ++i) {
        map_results[i] = futures[i].get();
      }
    }
    for (auto& mr : map_results) {
      result.counters.merge(mr.counters);
      result.map_millis += mr.millis;
    }
    result.counters.increment(counters::kJobGroup, counters::kLaunchedMaps,
                              static_cast<int64_t>(splits.size()));

    // "Shuffle": gather every map's segments for each partition, in (map,
    // spill) order (all in memory, all local — that is the point of the
    // serial mode). Wrapping adopts each output's storage into a refcounted
    // buffer; the merge reads its segments in place.
    std::vector<std::vector<BufferView>> partition_runs(spec.num_reducers);
    for (uint32_t p = 0; p < spec.num_reducers; ++p) {
      auto& runs = partition_runs[p];
      for (auto& mr : map_results) {
        if (mr.partitions[p].empty()) continue;
        result.counters.increment(
            counters::kShuffleGroup, counters::kShuffleBytes,
            static_cast<int64_t>(mr.partitions[p].size()));
        const BufferView output(
            Buffer::fromString(std::move(mr.partitions[p])));
        for (BufferView& segment : splitSegments(output)) {
          runs.push_back(std::move(segment));
        }
      }
    }

    // Reduce phase: each partition commits its own part file, so partitions
    // can run in parallel just like map splits do.
    const size_t reduce_threads = spec.conf.get(keys::kLocalReduceThreads);
    if (reduce_threads <= 1) {
      for (uint32_t p = 0; p < spec.num_reducers; ++p) {
        const auto rr = runReduceTask(spec, fs_, p, 0, partition_runs[p]);
        result.counters.merge(rr.counters);
        result.reduce_millis += rr.millis;
      }
    } else {
      ThreadPool pool(reduce_threads);
      std::vector<std::future<ReduceTaskResult>> futures;
      futures.reserve(spec.num_reducers);
      for (uint32_t p = 0; p < spec.num_reducers; ++p) {
        futures.push_back(pool.submit([this, &spec, &partition_runs, p] {
          return runReduceTask(spec, fs_, p, 0, partition_runs[p]);
        }));
      }
      for (auto& future : futures) {
        const auto rr = future.get();
        result.counters.merge(rr.counters);
        result.reduce_millis += rr.millis;
      }
    }
    result.counters.increment(counters::kJobGroup,
                              counters::kLaunchedReduces,
                              spec.num_reducers);
    result.state = JobState::kSucceeded;
  } catch (const std::exception& e) {
    result.state = JobState::kFailed;
    result.error = e.what();
    logWarn("localrunner") << "job '" << spec.name << "' failed: " << e.what();
  }
  result.elapsed_millis = watch.elapsedMillis();
  return result;
}

}  // namespace mh::mr
