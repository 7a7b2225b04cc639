#include "mh/mr/map_output_buffer.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "mh/common/stopwatch.h"
#include "mh/mr/kv_stream.h"
#include "mh/mr/merge.h"

namespace mh::mr {

namespace {

using namespace counters;

/// Keys of 9 or more bytes share the top length class: only they can tie
/// on the prefix without being equal.
constexpr uint32_t kLongKeyClass = 9;

uint32_t lengthClass(size_t key_len) {
  return static_cast<uint32_t>(std::min<size_t>(key_len, kLongKeyClass));
}

/// Stable LSD radix sort of `n` entries on their 8-byte `prefix`, one byte
/// per digit, least significant first. One pass over `src` fills all eight
/// histograms; then each digit is one stable counting scatter between `src`
/// and `dst`, skipped when every entry shares its value. Returns whichever
/// buffer holds the sorted entries.
template <typename Entry>
Entry* radixSortPrefixes(Entry* src, Entry* dst, size_t n) {
  uint32_t count[8][256] = {};
  for (size_t i = 0; i < n; ++i) {
    for (int d = 0; d < 8; ++d) ++count[d][(src[i].prefix >> (8 * d)) & 0xFF];
  }
  for (int d = 0; d < 8; ++d) {
    const int shift = 8 * d;
    uint32_t* next = count[d];
    if (next[(src[0].prefix >> shift) & 0xFF] == n) continue;
    uint32_t sum = 0;
    for (uint32_t& c : count[d]) sum += std::exchange(c, sum);
    for (size_t i = 0; i < n; ++i) {
      dst[next[(src[i].prefix >> shift) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  return src;
}

/// Decodes the LEB128 length at `p` and steps past it. The arena holds
/// only frames this buffer wrote, so nothing is bounds-checked.
uint32_t readLength(const char*& p) {
  uint32_t v = 0;
  for (int shift = 0;; shift += 7) {
    const auto b = static_cast<uint8_t>(*p++);
    v |= static_cast<uint32_t>(b & 0x7F) << shift;
    if (b < 0x80) return v;
  }
}

std::string_view keyAt(const char* frame) {
  const uint32_t key_len = readLength(frame);
  return {frame, key_len};
}

std::string_view valueAt(const char* frame) {
  frame += readLength(frame);
  const uint32_t value_len = readLength(frame);
  return {frame, value_len};
}

/// The byte length of the kv_stream frame at `frame`.
size_t frameSize(const char* frame) {
  const char* p = frame;
  p += readLength(p);
  p += readLength(p);
  return static_cast<size_t>(p - frame);
}

/// Appends the `n` frames `entries` point to in `arena` (which holds
/// `arena_bytes` of frames, each once) to `out`, verbatim and in entry
/// order: one resize to the arena's bytes, then a copy per frame. The
/// frames are read out of order, so the next few are fetched ahead.
template <typename Entry>
void appendSorted(const char* arena, size_t arena_bytes, const Entry* entries,
                  size_t n, Bytes& out) {
  constexpr size_t kPrefetchAhead = 8;
  const size_t begin = out.size();
  out.resize(begin + arena_bytes);
  char* dst = out.data() + begin;
  for (size_t k = 0; k < n; ++k) {
    if (k + kPrefetchAhead < n) {
      __builtin_prefetch(arena + entries[k + kPrefetchAhead].offset);
    }
    const char* frame = arena + entries[k].offset;
    const size_t size = frameSize(frame);
    std::memcpy(dst, frame, size);
    dst += size;
  }
}

/// A partition's sorted index read in place as key groups, for the
/// combiner. A group is a run of entries with one prefix and one length
/// class; in the 9+-byte class, whose keys can tie on the prefix, the key
/// bytes must match too (the sort put equal keys next to each other). Keys
/// and values are views of the arena's frames.
template <typename Entry>
class IndexGroups final : public KeyGroups {
 public:
  IndexGroups(const char* arena, const Entry* entries, size_t n)
      : arena_(arena), entries_(entries), n_(n) {}

  bool nextGroup() override {
    next_ = end_;  // skip what the combiner left
    if (end_ == n_) return false;
    const Entry& first = entries_[end_];
    key_ = keyAt(arena_ + first.offset);
    const bool long_key = first.length_class == kLongKeyClass;
    for (++end_; end_ < n_; ++end_) {
      const Entry& e = entries_[end_];
      if (e.prefix != first.prefix || e.length_class != first.length_class ||
          (long_key && keyAt(arena_ + e.offset) != key_)) {
        break;
      }
    }
    return true;
  }

  std::string_view key() const override { return key_; }
  ValuesIterator& values() override { return values_; }
  int64_t recordsRead() const override { return static_cast<int64_t>(next_); }

 private:
  class Values final : public ValuesIterator {
   public:
    explicit Values(IndexGroups& groups) : groups_(groups) {}
    std::optional<std::string_view> next() override {
      IndexGroups& g = groups_;
      if (g.next_ == g.end_) return std::nullopt;
      return valueAt(g.arena_ + g.entries_[g.next_++].offset);
    }

   private:
    IndexGroups& groups_;
  };

  const char* arena_;
  const Entry* entries_;
  size_t n_;
  size_t next_ = 0;  ///< the current group's next unread entry
  size_t end_ = 0;   ///< one past the current group's last entry
  std::string_view key_;
  Values values_{*this};
};

}  // namespace

MapOutputBuffer::MapOutputBuffer(const JobSpec& spec, Counters& counters,
                                 TaskContext::HeapFn heap, FileSystemView* fs,
                                 TraceCollector* trace,
                                 std::string_view trace_component,
                                 MetricsRegistry* metrics)
    : spec_(spec),
      counters_(counters),
      heap_(std::move(heap)),
      fs_(fs),
      trace_(trace),
      trace_component_(trace_component),
      metrics_(metrics),
      partitions_(spec.num_reducers),
      codec_(codecFromName(spec.conf.get(keys::kMapOutputCodec))) {
  if (partitions_ == 0 || partitions_ > kMaxReducers) {
    throw InvalidArgumentError("map output needs 1.." +
                               std::to_string(kMaxReducers) + " partitions");
  }
  // Offsets are 32-bit: the table caps io.sort.mb at 2047 MiB, which leaves
  // headroom under 4 GiB for one oversized record past the threshold.
  spill_threshold_ = static_cast<size_t>(
      static_cast<double>(spec.conf.get(keys::kIoSortMb) << 20) *
      spec.conf.get(keys::kIoSortSpillPercent));
}

MapOutputBuffer::~MapOutputBuffer() {
  if (charged_ != 0 && heap_) heap_(-charged_);
  charged_ = 0;
}

int64_t MapOutputBuffer::retainedSegmentBytes() const {
  size_t bytes = 0;
  for (const auto& part : parts_) {
    if (!part) continue;
    for (const Bytes& segment : part->segments) bytes += segment.capacity();
  }
  return static_cast<int64_t>(bytes);
}

void MapOutputBuffer::syncCharge() {
  const int64_t now = static_cast<int64_t>(
      capacity_bytes_ + radix_.capacity() * sizeof(IndexEntry) + spill_bytes_);
  const int64_t delta = now - charged_;
  if (delta == 0) return;
  // Record before calling out: the HeapFn has already accounted the delta
  // when it throws OutOfMemoryError, and ~MapOutputBuffer must release it.
  charged_ = now;
  if (heap_) heap_(delta);
}

void MapOutputBuffer::collect(std::string_view key, std::string_view value,
                              uint32_t partition) {
  if (key.size() > std::numeric_limits<uint32_t>::max() ||
      value.size() > std::numeric_limits<uint32_t>::max()) {
    throw InvalidArgumentError("map output record exceeds 4 GiB");
  }
  if (partition >= partitions_) {
    throw InvalidArgumentError("partition " + std::to_string(partition) +
                               " out of range for " +
                               std::to_string(partitions_) + " reducers");
  }
  const size_t frame_bytes = kvFrameSize(key.size(), value.size());
  if (batch_records_ != 0 &&
      workingSet() + frame_bytes + 2 * sizeof(IndexEntry) > spill_threshold_) {
    spill();
  }

  if (parts_.empty()) parts_.resize(partitions_);
  std::unique_ptr<Partition>& slot = parts_[partition];
  if (!slot) slot = std::make_unique<Partition>();
  Partition& part = *slot;
  const size_t arena_capacity = part.arena.capacity();
  const size_t index_capacity = part.index.capacity();

  const size_t offset = part.arena.size();
  part.arena.resize(offset + frame_bytes);
  writeKvFrame(part.arena.data() + offset, key, value);
  part.index.push_back({keyPrefix(key), static_cast<uint32_t>(offset),
                        lengthClass(key.size())});
  batch_bytes_ += frame_bytes;
  ++batch_records_;

  if (part.arena.capacity() != arena_capacity ||
      part.index.capacity() != index_capacity) {
    capacity_bytes_ += part.arena.capacity() - arena_capacity +
                       (part.index.capacity() - index_capacity) *
                           sizeof(IndexEntry);
    syncCharge();
  }

  // A single record at or above the threshold spills solo right away, so
  // the overshoot never compounds.
  if (workingSet() >= spill_threshold_) spill();
}

const MapOutputBuffer::IndexEntry* MapOutputBuffer::sortPartition(
    Partition& part) {
  const size_t n = part.index.size();
  const char* arena = part.arena.data();

  IndexEntry* src = radixSortPrefixes(part.index.data(), radix_.data(), n);

  // Equal prefixes are now adjacent, in insertion order. A run of one
  // length class below 9 holds equal keys and is done. Otherwise the
  // length class (shorter keys first: on an equal zero-padded prefix the
  // shorter key is a prefix of the longer), then the key bytes past the
  // prefix, then insertion order finish it.
  const auto less = [arena](const IndexEntry& a, const IndexEntry& b) {
    if (a.length_class != b.length_class) {
      return a.length_class < b.length_class;
    }
    if (a.length_class == kLongKeyClass) {
      const int c = keyAt(arena + a.offset)
                        .substr(8)
                        .compare(keyAt(arena + b.offset).substr(8));
      if (c != 0) return c < 0;
    }
    return a.offset < b.offset;
  };
  for (size_t i = 0; i < n;) {
    const uint32_t length_class = src[i].length_class;
    bool tied = length_class == kLongKeyClass;
    size_t j = i + 1;
    for (; j < n && src[j].prefix == src[i].prefix; ++j) {
      tied |= src[j].length_class != length_class;
    }
    if (tied && j - i > 1) std::sort(src + i, src + j, less);
    i = j;
  }
  return src;
}

int64_t MapOutputBuffer::combine(KeyGroups& groups, Bytes& out) {
  const int64_t written =
      combineMerge(spec_, groups, counters_, out, heap_, fs_);
  counters_.increment(kTaskGroup, kCombineInputRecords, groups.recordsRead());
  if (written > 0) {
    counters_.increment(kTaskGroup, kCombineOutputRecords, written);
  }
  return written;
}

void MapOutputBuffer::maybeEncode(Bytes& out) {
  if (codec_ == CodecKind::kNone || out.empty()) return;
  counters_.increment(kTaskGroup, kSpillRawBytes,
                      static_cast<int64_t>(out.size()));
  // Assigned, not copied back: the raw bytes' allocation goes with them.
  out = codecEncode(codec_, out, metrics_, trace_, trace_component_);
  counters_.increment(kTaskGroup, kSpillCompressedBytes,
                      static_cast<int64_t>(out.size()));
}

void MapOutputBuffer::spill() {
  if (batch_records_ == 0) return;
  TraceSpan span(trace_, trace_component_,
                 "SORT_SPILL #" + std::to_string(spill_count_));
  const size_t arena_bytes = batch_bytes_;
  const size_t records_in = batch_records_;

  size_t largest = 0;
  for (const auto& part : parts_) {
    if (part) largest = std::max(largest, part->index.size());
  }
  if (radix_.size() < largest) {
    // Replaced, not resized: a resize could double the capacity.
    radix_ = std::vector<IndexEntry>(largest);
    syncCharge();
  }

  int64_t records_out = 0;
  size_t segment_bytes = 0;
  for (const auto& slot : parts_) {
    if (!slot) continue;
    Partition& part = *slot;
    if (!part.index.empty()) {
      Stopwatch watch;
      const IndexEntry* entries = sortPartition(part);
      sort_nanos_ += watch.elapsedNanos();

      // The arena already holds each record as its segment frame.
      Bytes segment;
      if (spec_.combiner) {
        // The combiner reads the sorted index in place as key groups and
        // frames its output straight into the segment.
        IndexGroups groups(part.arena.data(), entries, part.index.size());
        records_out += combine(groups, segment);
      } else {
        appendSorted(part.arena.data(), part.arena.size(), entries,
                     part.index.size(), segment);
        records_out += static_cast<int64_t>(part.index.size());
      }
      // Encode the finished segment before retaining it: the working set
      // (and the heap charge below) holds only the compressed bytes.
      maybeEncode(segment);
      if (!segment.empty()) {
        // A combiner's output grows geometrically and an encoder reserves
        // ahead: trim the slack, since the segment is kept to the end.
        segment.shrink_to_fit();
        segment_bytes += segment.capacity();
        part.segments.push_back(std::move(segment));
      }
    }
    // An arena or index keeps its capacity (and its heap charge) for the
    // next fill only if this batch filled at least half of it. A
    // partition the map has moved away from frees its buffers, so what a
    // spill retains stays within twice the batch it spilled.
    // (Swapped out: assigning an empty string would keep the allocation.)
    if (2 * part.arena.size() < part.arena.capacity()) {
      capacity_bytes_ -= part.arena.capacity();
      Bytes().swap(part.arena);
      capacity_bytes_ += part.arena.capacity();
    }
    if (2 * part.index.size() < part.index.capacity()) {
      capacity_bytes_ -= part.index.capacity() * sizeof(IndexEntry);
      std::vector<IndexEntry>().swap(part.index);
    }
    part.arena.clear();
    part.index.clear();
  }
  batch_bytes_ = 0;
  batch_records_ = 0;

  spill_bytes_ += segment_bytes;
  ++spill_count_;
  counters_.increment(kTaskGroup, kSpilledRecords, records_out);
  counters_.increment(kTaskGroup, kMapSpills);
  syncCharge();

  if (span.active()) {
    span.arg("records_in", std::to_string(records_in));
    span.arg("records_out", std::to_string(records_out));
    span.arg("arena_bytes", std::to_string(arena_bytes));
    span.arg("run_bytes", std::to_string(segment_bytes));
  }
}

void MapOutputBuffer::mergeSegments(
    const std::vector<std::string_view>& segments, Bytes& out) {
  // Encoded segments decode transiently for this partition's merge; the
  // decoded buffers die with the call.
  const DecodedRunSet decoded(segments, codec_ != CodecKind::kNone, metrics_,
                              trace_, trace_component_);
  KvRunMerger merger(decoded.views());
  int64_t records_out = 0;
  if (spec_.combiner) {
    records_out = combine(merger, out);
  } else {
    out.reserve(static_cast<size_t>(decoded.rawBytes()));
    while (const auto frame = merger.nextFrame()) out.append(*frame);
    records_out = merger.recordsRead();
  }
  // Hadoop counts the final merge's rewrite as spilled records too — and
  // the re-encoded merged segment counts toward the byte counters the same
  // way.
  counters_.increment(kTaskGroup, kSpilledRecords, records_out);
  maybeEncode(out);
}

std::vector<Bytes> MapOutputBuffer::finishSegments() {
  if (finished_) throw IllegalStateError("MapOutputBuffer::finish called twice");
  finished_ = true;
  spill();

  std::vector<Bytes> result(partitions_);
  // A combiner's final pass shrinks what the map ships, so a combiner job
  // that spilled more than once merges every partition through it — also
  // one whose records all fell in a single spill. Without a combiner the
  // reducer's k-way merge is the only merge the segments go through.
  const bool merge_spills = spec_.combiner && spill_count_ > 1;
  for (size_t p = 0; p < parts_.size(); ++p) {
    if (!parts_[p]) continue;
    std::vector<Bytes>& segments = parts_[p]->segments;
    const std::vector<std::string_view> views(segments.begin(),
                                              segments.end());
    Bytes& out = result[p];
    if (merge_spills && !views.empty()) {
      mergeSegments(views, out);
      if (!out.empty()) appendSegmentTable(out, {out.size()});
      // The merge grew its output geometrically, and the map output store
      // keeps it for the rest of the job: trim the slack.
      out.shrink_to_fit();
    } else {
      out = joinSegments(views);  // the segments, unmerged
    }
    segments = std::vector<Bytes>();
  }

  // Release the whole working-set charge; the outputs leave the buffer
  // (they are handed to the MapOutputStore / shuffle).
  parts_ = std::vector<std::unique_ptr<Partition>>();
  radix_ = std::vector<IndexEntry>();
  capacity_bytes_ = 0;
  spill_bytes_ = 0;
  syncCharge();
  return result;
}

std::vector<Bytes> MapOutputBuffer::finish() {
  std::vector<Bytes> runs = finishSegments();
  for (Bytes& run : runs) {
    const std::vector<std::string_view> segments = splitSegments(run);
    if (segments.size() > 1) {
      Bytes merged;
      mergeSegments(segments, merged);
      run = std::move(merged);
    } else {
      run.resize(segments.empty() ? 0 : segments[0].size());
    }
  }
  return runs;
}

}  // namespace mh::mr
