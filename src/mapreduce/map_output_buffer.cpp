#include "mh/mr/map_output_buffer.h"

#include <algorithm>
#include <bit>
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

size_t varintSize(size_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
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

std::string_view MapOutputBuffer::keyAt(const IndexEntry& e) const {
  const char* p = arena_.data() + e.offset;
  const uint32_t key_len = readLength(p);
  return {p, key_len};
}

std::string_view MapOutputBuffer::frameAt(const IndexEntry& e) const {
  const char* begin = arena_.data() + e.offset;
  const char* p = begin;
  p += readLength(p);
  p += readLength(p);
  return {begin, static_cast<size_t>(p - begin)};
}

void MapOutputBuffer::syncCharge() {
  const int64_t now = static_cast<int64_t>(
      arena_.capacity() +
      (index_.capacity() + radix_.capacity()) * sizeof(IndexEntry) +
      spill_bytes_);
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
  const size_t frame_bytes = varintSize(key.size()) + key.size() +
                             varintSize(value.size()) + value.size();
  if (!index_.empty() &&
      workingSet() + frame_bytes + 2 * sizeof(IndexEntry) > spill_threshold_) {
    spill();
  }

  index_.push_back({keyPrefix(key), static_cast<uint32_t>(arena_.size()),
                    partition << 4 | lengthClass(key.size())});
  KvWriter(arena_).write(key, value);
  syncCharge();

  // A single record at or above the threshold spills solo right away, so
  // the overshoot never compounds.
  if (workingSet() >= spill_threshold_) spill();
}

void MapOutputBuffer::sortIndex() {
  Stopwatch watch;
  const size_t n = index_.size();
  radix_.resize(n);
  syncCharge();

  // LSD digits, least significant first: the length class, the 8 prefix
  // bytes from last to first, then as many partition bytes as the reducer
  // count needs. One pass fills every digit's histogram.
  constexpr int kPrefixDigits = 8;
  constexpr int kMaxDigits = 1 + kPrefixDigits + 4;
  const int partition_digits = (std::bit_width(partitions_ - 1) + 7) / 8;
  uint32_t count[kMaxDigits][256] = {};
  for (const IndexEntry& e : index_) {
    ++count[0][e.meta & 0xF];
    for (int d = 0; d < kPrefixDigits; ++d) {
      ++count[1 + d][(e.prefix >> (8 * d)) & 0xFF];
    }
    for (int d = 0; d < partition_digits; ++d) {
      ++count[1 + kPrefixDigits + d][(e.meta >> (4 + 8 * d)) & 0xFF];
    }
  }

  // Each pass is a stable counting scatter, so equal entries keep
  // insertion order. A digit whose values all share one bucket orders
  // nothing and is skipped.
  IndexEntry* src = index_.data();
  IndexEntry* dst = radix_.data();
  const auto pass = [&](const uint32_t* hist, auto digit) {
    if (hist[digit(*src)] == n) return;
    uint32_t next[256];
    uint32_t sum = 0;
    for (int b = 0; b < 256; ++b) {
      next[b] = sum;
      sum += hist[b];
    }
    for (size_t i = 0; i < n; ++i) dst[next[digit(src[i])]++] = src[i];
    std::swap(src, dst);
  };
  pass(count[0], [](const IndexEntry& e) { return e.meta & 0xF; });
  for (int d = 0; d < kPrefixDigits; ++d) {
    pass(count[1 + d], [shift = 8 * d](const IndexEntry& e) {
      return static_cast<uint32_t>(e.prefix >> shift) & 0xFF;
    });
  }
  for (int d = 0; d < partition_digits; ++d) {
    pass(count[1 + kPrefixDigits + d],
         [shift = 4 + 8 * d](const IndexEntry& e) {
           return (e.meta >> shift) & 0xFF;
         });
  }
  if (src != index_.data()) index_.swap(radix_);

  // Keys longer than the prefix that tie on (partition, prefix) are now
  // adjacent; their remaining bytes, then insertion order, finish the sort.
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    if ((index_[i].meta & 0xF) == kLongKeyClass) {
      while (j < n && index_[j].meta == index_[i].meta &&
             index_[j].prefix == index_[i].prefix) {
        ++j;
      }
      std::sort(index_.begin() + static_cast<ptrdiff_t>(i),
                index_.begin() + static_cast<ptrdiff_t>(j),
                [this](const IndexEntry& a, const IndexEntry& b) {
                  const int c = keyAt(a).substr(8).compare(keyAt(b).substr(8));
                  return c != 0 ? c < 0 : a.offset < b.offset;
                });
    }
    i = j;
  }
  sort_micros_ += watch.elapsedMicros();
}

int64_t MapOutputBuffer::combine(KvRunMerger& merger, Bytes& out) {
  const int64_t written =
      combineMerge(spec_, merger, counters_, out, heap_, fs_);
  counters_.increment(kTaskGroup, kCombineInputRecords, merger.recordsRead());
  if (written > 0) {
    counters_.increment(kTaskGroup, kCombineOutputRecords, written);
  }
  return written;
}

void MapOutputBuffer::maybeEncodeTail(Bytes& out, size_t begin) {
  if (codec_ == CodecKind::kNone || out.size() == begin) return;
  const std::string_view raw = std::string_view(out).substr(begin);
  counters_.increment(kTaskGroup, kSpillRawBytes,
                      static_cast<int64_t>(raw.size()));
  const Bytes encoded =
      codecEncode(codec_, raw, metrics_, trace_, trace_component_);
  counters_.increment(kTaskGroup, kSpillCompressedBytes,
                      static_cast<int64_t>(encoded.size()));
  out.resize(begin);
  out.append(encoded);
}

void MapOutputBuffer::spill() {
  if (index_.empty()) return;
  TraceSpan span(trace_, trace_component_,
                 "SORT_SPILL #" + std::to_string(spill_count_));
  const size_t arena_bytes = arena_.size();
  const size_t records_in = index_.size();

  sortIndex();

  if (outputs_.empty()) {
    outputs_.resize(partitions_);
    segment_lengths_.resize(partitions_);
  }
  int64_t records_out = 0;
  size_t segment_bytes = 0;
  size_t i = 0;
  while (i < index_.size()) {
    const uint32_t p = partitionOf(index_[i]);
    size_t j = i + 1;
    while (j < index_.size() && partitionOf(index_[j]) == p) ++j;
    // The segment is appended in place, after the partition's earlier
    // ones. The arena already holds each record as its segment frame:
    // copy them verbatim, in sorted order.
    Bytes& out = outputs_[p];
    const size_t begin = out.size();
    if (spec_.combiner) {
      // The combiner reads the frames back as a one-run merge.
      Bytes sorted;
      for (size_t k = i; k < j; ++k) sorted.append(frameAt(index_[k]));
      KvRunMerger merger({sorted});
      records_out += combine(merger, out);
    } else {
      for (size_t k = i; k < j; ++k) out.append(frameAt(index_[k]));
      records_out += static_cast<int64_t>(j - i);
    }
    // Encode the finished segment before retaining it: the working set
    // (and the heap charge below) holds only the compressed bytes.
    maybeEncodeTail(out, begin);
    if (out.size() > begin) {
      segment_lengths_[p].push_back(out.size() - begin);
      segment_bytes += out.size() - begin;
    }
    i = j;
  }

  spill_bytes_ += segment_bytes;
  ++spill_count_;
  counters_.increment(kTaskGroup, kSpilledRecords, records_out);
  counters_.increment(kTaskGroup, kMapSpills);

  // The arena, index, and radix buffer keep their capacity (and their heap
  // charge): the next fill reuses the allocations.
  arena_.clear();
  index_.clear();
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
  maybeEncodeTail(out, 0);
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
  for (uint32_t p = 0; p < partitions_ && !outputs_.empty(); ++p) {
    const std::vector<uint64_t>& lengths = segment_lengths_[p];
    appendSegmentTable(outputs_[p], lengths);
    Bytes& out = result[p];
    if (merge_spills && !lengths.empty()) {
      mergeSegments(splitSegments(outputs_[p]), out);
      if (!out.empty()) appendSegmentTable(out, {out.size()});
      Bytes().swap(outputs_[p]);
    } else {
      out = std::move(outputs_[p]);  // the segments, unmerged
    }
    // Appending grew the output geometrically, and the map output store
    // keeps it for the rest of the job: trim the slack.
    out.shrink_to_fit();
  }

  // Release the whole working-set charge; the outputs leave the buffer
  // (they are handed to the MapOutputStore / shuffle).
  outputs_.clear();
  segment_lengths_.clear();
  spill_bytes_ = 0;
  // Swap, not move-assign: assigning an empty string keeps the heap buffer.
  Bytes().swap(arena_);
  index_ = std::vector<IndexEntry>();
  radix_ = std::vector<IndexEntry>();
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
