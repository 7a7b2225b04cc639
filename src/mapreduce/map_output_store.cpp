#include "mh/mr/map_output_store.h"

#include <algorithm>
#include <utility>

#include "mh/mr/api.h"
#include "mh/mr/job.h"
#include "mh/mr/job_registry.h"
#include "mh/mr/kv_stream.h"
#include "mh/mr/merge.h"
#include "mh/mr/mr_wire.h"

namespace mh::mr {

void MapOutputStore::attach(JobRegistry* registry, MetricsRegistry* metrics,
                            TraceCollector* trace,
                            std::string trace_component) {
  registry_ = registry;
  metrics_ = metrics;
  trace_ = trace;
  component_ = std::move(trace_component);
  if (metrics_ != nullptr) {
    replaced_runs_ = &metrics_->counter("mapoutput.replaced.runs");
    combined_runs_ = &metrics_->counter("innode.combined.runs");
    bytes_saved_ = &metrics_->counter("innode.bytes.saved");
    records_in_ = &metrics_->counter("innode.records.in");
    records_out_ = &metrics_->counter("innode.records.out");
  }
}

uint64_t MapOutputStore::runsBytes(const MapRuns& runs) {
  uint64_t bytes = 0;
  for (const auto& run : runs) {
    if (run) bytes += run->size();
  }
  return bytes;
}

std::shared_ptr<const JobSpec> MapOutputStore::specFor(JobId job) const {
  if (registry_ == nullptr) return nullptr;
  try {
    return registry_->get(job);
  } catch (const std::exception&) {
    return nullptr;  // job already purged from the registry
  }
}

void MapOutputStore::put(JobId job, uint32_t map_index,
                         std::vector<Bytes> partitions) {
  MapRuns runs;
  runs.reserve(partitions.size());
  for (Bytes& partition : partitions) {
    runs.push_back(std::make_shared<const Bytes>(std::move(partition)));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  MapRuns& slot = jobs_[job][map_index];
  if (!slot.empty()) {
    // A speculative duplicate or re-execution replaces its prior
    // contribution; node serves merge whatever is stored when they are
    // asked, so the new attempt is the only one they ever see.
    total_bytes_ -= runsBytes(slot);
    if (replaced_runs_ != nullptr) {
      replaced_runs_->add(static_cast<int64_t>(slot.size()));
    }
  }
  slot = std::move(runs);
  total_bytes_ += runsBytes(slot);
}

std::shared_ptr<const Bytes> MapOutputStore::combineRuns(
    JobId job, const JobSpec* spec, const std::vector<uint32_t>& maps,
    const std::vector<std::shared_ptr<const Bytes>>& runs) {
  if (spec == nullptr || spec->combiner == nullptr) {
    throw IllegalStateError("in-node combine needs a combiner job; job " +
                            std::to_string(job));
  }
  const CodecKind codec = codecFromName(spec->conf.get(keys::kMapOutputCodec));
  TraceSpan span(trace_, component_,
                 "INNODE_COMBINE job " + std::to_string(job));
  span.arg("maps", std::to_string(maps.size()));
  int64_t stored_in = 0;
  std::vector<std::string_view> segments;
  segments.reserve(runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    const std::vector<std::string_view> split = splitSegments(*runs[i]);
    // Only combiner jobs combine in-node, and a combiner job's map merges
    // its spills into one segment (map_output_buffer.h).
    if (split.size() > 1) {
      throw IllegalStateError(
          "in-node combine needs one segment per map output; map=" +
          std::to_string(maps[i]) + " shipped " +
          std::to_string(split.size()));
    }
    segments.insert(segments.end(), split.begin(), split.end());
    stored_in += static_cast<int64_t>(runs[i]->size());
  }
  // Encoded segments decode transiently for the merge; the output is
  // re-encoded so it ships in the same stored form as a single map's.
  const DecodedRunSet decoded(std::move(segments), codec != CodecKind::kNone,
                              metrics_, trace_, component_);
  KvRunMerger merger(decoded.views());
  Bytes out;
  Counters scratch;  // combiner side-counters belong to no task attempt
  const int64_t records_out = combineMerge(*spec, merger, scratch, out);
  const int64_t records_in = merger.recordsRead();
  if (codec != CodecKind::kNone && !out.empty()) {
    out = codecEncode(codec, out, metrics_, trace_, component_);
  }
  if (!out.empty()) appendSegmentTable(out, {out.size()});
  const auto stored_out = static_cast<int64_t>(out.size());

  if (combined_runs_ != nullptr) {
    combined_runs_->add();
    records_in_->add(records_in);
    records_out_->add(records_out);
    bytes_saved_->add(std::max<int64_t>(0, stored_in - stored_out));
  }
  if (span.active()) {
    span.arg("records_in", std::to_string(records_in));
    span.arg("records_out", std::to_string(records_out));
    span.arg("bytes_in", std::to_string(stored_in));
    span.arg("bytes_out", std::to_string(stored_out));
  }
  return std::make_shared<const Bytes>(std::move(out));
}

const MapOutputStore::MapRuns* MapOutputStore::findLocked(
    JobId job, uint32_t map_index) const {
  const auto job_it = jobs_.find(job);
  if (job_it == jobs_.end()) return nullptr;
  const auto it = job_it->second.find(map_index);
  return it == job_it->second.end() || it->second.empty() ? nullptr
                                                          : &it->second;
}

BufferView MapOutputStore::serve(JobId job, uint32_t partition,
                                 std::vector<uint32_t> maps) {
  std::sort(maps.begin(), maps.end());
  maps.erase(std::unique(maps.begin(), maps.end()), maps.end());
  if (maps.empty()) {
    throw InvalidArgumentError("map output request with no maps");
  }
  // Pin the maps' current runs; a merge runs outside the lock on
  // refcounted buffers that a concurrent replace or purge cannot free.
  std::vector<std::shared_ptr<const Bytes>> runs;
  runs.reserve(maps.size());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const uint32_t map_index : maps) {
      const MapRuns* slot = findLocked(job, map_index);
      if (slot == nullptr) {
        throw NotFoundError(missingMapMessage(job, map_index));
      }
      if (partition >= slot->size()) {
        throw InvalidArgumentError("partition out of range");
      }
      runs.push_back((*slot)[partition]);
    }
  }
  if (runs.size() == 1) return Buffer::wrap(runs.front());
  return Buffer::wrap(combineRuns(job, specFor(job).get(), maps, runs));
}

void MapOutputStore::purgeJob(JobId job) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto job_it = jobs_.find(job);
  if (job_it == jobs_.end()) return;
  for (const auto& [map_index, runs] : job_it->second) {
    total_bytes_ -= runsBytes(runs);
  }
  jobs_.erase(job_it);
}

std::vector<JobId> MapOutputStore::jobIds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobId> ids;
  ids.reserve(jobs_.size());
  for (const auto& [job, slots] : jobs_) ids.push_back(job);
  return ids;
}

void MapOutputStore::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  jobs_.clear();
  total_bytes_ = 0;
}

uint64_t MapOutputStore::totalBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_bytes_;
}

}  // namespace mh::mr
