#include "mh/mr/map_output_store.h"

#include <algorithm>
#include <utility>

#include "mh/common/stopwatch.h"
#include "mh/mr/api.h"
#include "mh/mr/job.h"
#include "mh/mr/job_registry.h"
#include "mh/mr/kv_stream.h"
#include "mh/mr/merge.h"

namespace mh::mr {

namespace {

using namespace counters;

/// Fewest maps whose runs a put merges into the node aggregate.
constexpr size_t kInnodeCombineMinRuns = 2;

/// Whether the job's map-output codec frames its stored segments (false
/// for an unknown spec), so bytes that merely resemble a codec header are
/// never metered as one.
bool storedEncoded(const JobSpec* spec) {
  return spec != nullptr &&
         codecFromName(spec->conf.get(keys::kMapOutputCodec)) !=
             CodecKind::kNone;
}

/// Wraps the stored `run` for the wire; when `encoded`, adds its segments'
/// raw and encoded sizes to `stats`.
BufferView serveRun(const std::shared_ptr<const Bytes>& run, bool encoded,
                    MapOutputStore::ServeStats* stats) {
  if (encoded && stats != nullptr) {
    // The map-output codec framed every segment at spill time; they ship
    // as stored and the reducer decodes them at merge input.
    for (const std::string_view segment : splitSegments(*run)) {
      stats->raw_bytes +=
          static_cast<int64_t>(encodedStreamInfo(segment).raw_size);
      stats->compressed_bytes += static_cast<int64_t>(segment.size());
    }
  }
  return BufferView(Buffer::wrap(run));
}

}  // namespace

MapOutputStore::~MapOutputStore() { clear(); }

void MapOutputStore::attach(JobRegistry* registry, MetricsRegistry* metrics,
                            TraceCollector* trace, std::string trace_component,
                            TryChargeFn try_charge) {
  registry_ = registry;
  metrics_ = metrics;
  trace_ = trace;
  component_ = std::move(trace_component);
  try_charge_ = std::move(try_charge);
  if (metrics_ != nullptr) {
    replaced_runs_ = &metrics_->counter("mapoutput.replaced.runs");
    combined_runs_ = &metrics_->counter("innode.combined.runs");
    bytes_saved_ = &metrics_->counter("innode.bytes.saved");
  }
}

uint64_t MapOutputStore::runsBytes(
    const std::vector<std::shared_ptr<const Bytes>>& runs) {
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

bool MapOutputStore::tryChargeLocked(int64_t delta) {
  if (delta < 0) {
    releaseLocked(-delta);
    return true;
  }
  if (try_charge_ && !try_charge_(delta)) return false;
  charged_ += delta;
  return true;
}

void MapOutputStore::releaseLocked(int64_t bytes) {
  if (bytes == 0) return;
  charged_ -= bytes;
  if (try_charge_) try_charge_(-bytes);
}

void MapOutputStore::dropNodeRunLocked(NodeRun& node) {
  releaseLocked(static_cast<int64_t>(runsBytes(node.runs)));
  node.runs.clear();
  node.members.clear();
}

bool MapOutputStore::currentLocked(const JobSlots& slots,
                                   const NodeRun& node) const {
  for (const auto& [map_index, generation] : node.members) {
    const auto it = slots.maps.find(map_index);
    if (it == slots.maps.end() || it->second.generation != generation ||
        it->second.runs.empty()) {
      return false;
    }
  }
  return true;
}

void MapOutputStore::put(JobId job, uint32_t map_index,
                         std::vector<Bytes> partitions, Counters* counters) {
  std::vector<std::shared_ptr<const Bytes>> runs;
  runs.reserve(partitions.size());
  for (Bytes& partition : partitions) {
    runs.push_back(std::make_shared<const Bytes>(std::move(partition)));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    JobSlots& slots = jobs_[job];
    MapSlot& slot = slots.maps[map_index];
    if (!slot.runs.empty()) {
      // A speculative duplicate or re-execution replaces its prior
      // contribution: drop the old runs and invalidate every node
      // aggregate the old attempt fed — the new attempt contributes
      // exactly once to the next build (the aggregate analogue of PR-4's
      // counter-replacement semantics).
      total_bytes_ -= runsBytes(slot.runs);
      if (replaced_runs_ != nullptr) {
        replaced_runs_->add(static_cast<int64_t>(slot.runs.size()));
      }
      for (auto it = slots.combined.begin(); it != slots.combined.end();) {
        if (it->second.members.count(map_index) != 0) {
          dropNodeRunLocked(it->second);
          it = slots.combined.erase(it);
        } else {
          ++it;
        }
      }
    }
    slot.runs = std::move(runs);
    slot.generation = slots.next_generation++;
    total_bytes_ += runsBytes(slot.runs);
  }

  const std::shared_ptr<const JobSpec> spec = specFor(job);
  if (spec && spec->combiner && spec->conf.get(keys::kInnodeCombine)) {
    maybeCombineOnPut(job, *spec, counters);
  }
}

void MapOutputStore::maybeCombineOnPut(JobId job, const JobSpec& spec,
                                       Counters* counters) {
  std::vector<uint32_t> members;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto job_it = jobs_.find(job);
    if (job_it == jobs_.end()) return;
    for (const auto& [map_index, slot] : job_it->second.maps) {
      if (!slot.runs.empty()) members.push_back(map_index);
    }
    if (members.size() < kInnodeCombineMinRuns) return;
  }
  try {
    nodeRuns(job, &spec, members, counters);
  } catch (const std::exception&) {
    // A concurrent replace/purge raced the merge; the next put or the serve
    // path will rebuild.
  }
}

std::vector<std::shared_ptr<const Bytes>> MapOutputStore::nodeRuns(
    JobId job, const JobSpec* spec, const std::vector<uint32_t>& members,
    Counters* counters) {
  std::vector<uint32_t> key(members);
  std::sort(key.begin(), key.end());
  key.erase(std::unique(key.begin(), key.end()), key.end());
  if (key.empty()) {
    throw InvalidArgumentError("node output request with no maps");
  }

  struct Source {
    uint32_t map_index;
    uint64_t generation;
    std::vector<std::shared_ptr<const Bytes>> runs;
  };
  std::vector<Source> sources;
  sources.reserve(key.size());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto job_it = jobs_.find(job);
    for (const uint32_t map_index : key) {
      const MapSlot* slot = nullptr;
      if (job_it != jobs_.end()) {
        const auto it = job_it->second.maps.find(map_index);
        if (it != job_it->second.maps.end() && !it->second.runs.empty()) {
          slot = &it->second;
        }
      }
      if (slot == nullptr) {
        // "missing map=<i>" leads the fetcher's fetch-failure message so the
        // JobTracker re-executes exactly this map.
        throw NotFoundError("node output " + std::to_string(job) +
                            " missing map=" + std::to_string(map_index));
      }
      sources.push_back({map_index, slot->generation, slot->runs});
    }
    const auto cached = job_it->second.combined.find(key);
    if (cached != job_it->second.combined.end() &&
        currentLocked(job_it->second, cached->second)) {
      return cached->second.runs;
    }
  }

  // One map on this node: its per-task-combined runs ARE the node output.
  if (sources.size() == 1) return std::move(sources[0].runs);

  const size_t num_partitions = sources[0].runs.size();
  const CodecKind codec =
      spec ? codecFromName(spec->conf.get(keys::kMapOutputCodec))
           : CodecKind::kNone;
  const bool combine = spec != nullptr && spec->combiner != nullptr;

  TraceSpan span(trace_, component_,
                 "INNODE_COMBINE job " + std::to_string(job));
  span.arg("maps", std::to_string(sources.size()));
  Stopwatch watch;
  int64_t records_in = 0;
  int64_t records_out = 0;
  int64_t stored_in = 0;
  int64_t stored_out = 0;
  Counters scratch;  // combiner side-counters stay out of the job report
  std::vector<std::shared_ptr<const Bytes>> result(num_partitions);
  for (size_t p = 0; p < num_partitions; ++p) {
    // Encoded per-map segments decode transiently for this partition's
    // merge; the decoded buffers die with the iteration.
    std::vector<std::string_view> runs;
    runs.reserve(sources.size());
    for (const Source& source : sources) {
      const std::vector<std::string_view> segments =
          splitSegments(*source.runs[p]);
      // Only combiner jobs combine in-node, and a combiner job's map
      // merges its spills into one segment (map_output_buffer.h).
      if (segments.size() > 1) {
        throw IllegalStateError(
            "in-node combine needs one segment per map output; map=" +
            std::to_string(source.map_index) + " shipped " +
            std::to_string(segments.size()));
      }
      runs.insert(runs.end(), segments.begin(), segments.end());
      stored_in += static_cast<int64_t>(source.runs[p]->size());
    }
    const DecodedRunSet decoded(std::move(runs), codec != CodecKind::kNone,
                                metrics_, trace_, component_);
    KvRunMerger merger(decoded.views());
    Bytes out;
    if (combine) {
      records_out += combineMerge(*spec, merger, scratch, out);
    } else {
      out.reserve(static_cast<size_t>(decoded.rawBytes()));
      while (const auto frame = merger.nextFrame()) out.append(*frame);
      records_out += merger.recordsRead();
    }
    records_in += merger.recordsRead();
    if (codec != CodecKind::kNone && !out.empty()) {
      out = codecEncode(codec, out, metrics_, trace_, component_);
    }
    if (!out.empty()) appendSegmentTable(out, {out.size()});
    stored_out += static_cast<int64_t>(out.size());
    result[p] = std::make_shared<const Bytes>(std::move(out));
  }

  const int64_t millis = watch.elapsedMillis();
  if (counters != nullptr) {
    counters->increment(kTaskGroup, kInnodeCombineRecordsIn, records_in);
    counters->increment(kTaskGroup, kInnodeCombineRecordsOut, records_out);
    counters->increment(kTaskGroup, kInnodeCombineMillis, millis);
  }
  if (combined_runs_ != nullptr) {
    combined_runs_->add(static_cast<int64_t>(num_partitions));
  }
  if (bytes_saved_ != nullptr) {
    bytes_saved_->add(std::max<int64_t>(0, stored_in - stored_out));
  }
  if (span.active()) {
    span.arg("records_in", std::to_string(records_in));
    span.arg("records_out", std::to_string(records_out));
    span.arg("bytes_in", std::to_string(stored_in));
    span.arg("bytes_out", std::to_string(stored_out));
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto job_it = jobs_.find(job);
    if (job_it != jobs_.end()) {
      JobSlots& slots = job_it->second;
      bool current = true;
      for (const Source& source : sources) {
        const auto it = slots.maps.find(source.map_index);
        if (it == slots.maps.end() ||
            it->second.generation != source.generation) {
          current = false;
          break;
        }
      }
      // Install only while every input is still the latest attempt and the
      // heap budget accepts the bytes; a stale or over-budget build is still
      // a correct answer for the requested member set — it just serves
      // uncached (maps are deterministic).
      if (current &&
          tryChargeLocked(static_cast<int64_t>(runsBytes(result)))) {
        NodeRun node;
        for (const Source& source : sources) {
          node.members[source.map_index] = source.generation;
        }
        node.runs = result;
        // Aggregates over a strict subset of this member set are obsolete
        // coverage-wise; drop them so cached aggregates stay bounded by the
        // distinct member sets reducers actually request.
        for (auto it = slots.combined.begin(); it != slots.combined.end();) {
          const bool subset =
              it->first != key &&
              std::includes(key.begin(), key.end(), it->first.begin(),
                            it->first.end());
          if (subset) {
            dropNodeRunLocked(it->second);
            it = slots.combined.erase(it);
          } else {
            ++it;
          }
        }
        auto [slot_it, inserted] = slots.combined.try_emplace(key);
        if (!inserted) dropNodeRunLocked(slot_it->second);
        slot_it->second = std::move(node);
      }
    }
  }
  return result;
}

std::shared_ptr<const Bytes> MapOutputStore::get(JobId job, uint32_t map_index,
                                                 uint32_t partition) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto job_it = jobs_.find(job); job_it != jobs_.end()) {
    const auto it = job_it->second.maps.find(map_index);
    if (it != job_it->second.maps.end() && !it->second.runs.empty()) {
      if (partition >= it->second.runs.size()) {
        throw InvalidArgumentError("partition out of range");
      }
      return it->second.runs[partition];
    }
  }
  throw NotFoundError("map output " + std::to_string(job) + "/" +
                      std::to_string(map_index) + " partition " +
                      std::to_string(partition));
}

bool MapOutputStore::has(JobId job, uint32_t map_index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto job_it = jobs_.find(job);
  if (job_it == jobs_.end()) return false;
  const auto it = job_it->second.maps.find(map_index);
  return it != job_it->second.maps.end() && !it->second.runs.empty();
}

BufferView MapOutputStore::serveMapOutput(JobId job, uint32_t map_index,
                                          uint32_t partition,
                                          ServeStats* stats) {
  return serveRun(get(job, map_index, partition),
                  storedEncoded(specFor(job).get()), stats);
}

BufferView MapOutputStore::serveNodeOutput(JobId job, uint32_t partition,
                                           const std::vector<uint32_t>& maps,
                                           ServeStats* stats) {
  const std::shared_ptr<const JobSpec> spec = specFor(job);
  const std::vector<std::shared_ptr<const Bytes>> runs =
      nodeRuns(job, spec.get(), maps, nullptr);
  if (partition >= runs.size()) {
    throw InvalidArgumentError("partition out of range");
  }
  return serveRun(runs[partition], storedEncoded(spec.get()), stats);
}

void MapOutputStore::purgeJob(JobId job) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto job_it = jobs_.find(job);
  if (job_it == jobs_.end()) return;
  for (auto& [map_index, slot] : job_it->second.maps) {
    total_bytes_ -= runsBytes(slot.runs);
  }
  for (auto& [members, node] : job_it->second.combined) {
    dropNodeRunLocked(node);
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
  for (auto& [job, slots] : jobs_) {
    for (auto& [members, node] : slots.combined) {
      dropNodeRunLocked(node);
    }
  }
  jobs_.clear();
  total_bytes_ = 0;
}

uint64_t MapOutputStore::totalBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_bytes_;
}

uint64_t MapOutputStore::generation(JobId job, uint32_t map_index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto job_it = jobs_.find(job);
  if (job_it == jobs_.end()) return 0;
  const auto it = job_it->second.maps.find(map_index);
  return it == job_it->second.maps.end() ? 0 : it->second.generation;
}

int64_t MapOutputStore::cachedBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return charged_;
}

}  // namespace mh::mr
