#include "mh/mr/local_runner.h"

#include "mh/common/codec.h"
#include "mh/common/log.h"
#include "mh/common/stopwatch.h"

namespace mh::mr {

JobResult LocalJobRunner::run(JobSpec spec) {
  Stopwatch watch;
  JobResult result;
  try {
    spec.validateAndDefault();
    const auto input_format = spec.input_format();
    const auto splits = input_format->getSplits(fs_, spec.input_paths);

    // Map phase.
    std::vector<MapTaskResult> map_results;
    map_results.reserve(splits.size());
    for (const auto& split : splits) {
      map_results.push_back(runMapTask(spec, fs_, split));
      result.counters.merge(map_results.back().counters);
      result.map_millis += map_results.back().millis;
    }
    result.counters.increment(counters::kJobGroup, counters::kLaunchedMaps,
                              static_cast<int64_t>(splits.size()));

    // "Shuffle", then reduce, one partition at a time: gather every map's
    // output for the partition in map order (all in memory, all local —
    // that is the point of the serial mode) through the reducer's intake,
    // which decodes each once when the map-output codec is on. Wrapping
    // adopts each output's storage into a refcounted buffer; the merge
    // reads its segments in place, and they go when the partition is done.
    const bool decode =
        codecFromName(spec.conf.get(keys::kMapOutputCodec)) != CodecKind::kNone;
    for (uint32_t p = 0; p < spec.num_reducers; ++p) {
      std::vector<BufferView> runs;
      for (auto& mr : map_results) {
        if (mr.partitions[p].empty()) continue;
        result.counters.increment(
            counters::kShuffleGroup, counters::kShuffleBytes,
            static_cast<int64_t>(mr.partitions[p].size()));
        const BufferView output(
            Buffer::fromString(std::move(mr.partitions[p])));
        for (BufferView& segment :
             intakeMapOutput(output, decode, result.counters)) {
          runs.push_back(std::move(segment));
        }
      }
      const auto rr = runReduceTask(spec, fs_, p, 0, runs);
      result.counters.merge(rr.counters);
      result.reduce_millis += rr.millis;
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
