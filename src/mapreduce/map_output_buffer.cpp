#include "mh/mr/map_output_buffer.h"

#include <algorithm>
#include <limits>

#include "mh/common/stopwatch.h"
#include "mh/mr/kv_stream.h"
#include "mh/mr/merge.h"

namespace mh::mr {

namespace {

using namespace counters;

void sortRecords(std::vector<KeyValue>& records) {
  std::stable_sort(
      records.begin(), records.end(),
      [](const KeyValue& a, const KeyValue& b) { return a.key < b.key; });
}

/// Big-endian first-8-bytes of the key, zero-padded: prefix inequality
/// decides byte-lexicographic key order without touching the key bytes.
uint64_t keyPrefix(std::string_view key) {
  uint64_t prefix = 0;
  const size_t n = std::min<size_t>(key.size(), 8);
  for (size_t i = 0; i < n; ++i) {
    prefix |= static_cast<uint64_t>(static_cast<uint8_t>(key[i]))
              << (56 - 8 * i);
  }
  return prefix;
}

/// Combiners usually preserve keys, but the engine has never assumed so:
/// emissions are re-sorted (stably) before they are framed into a run.
/// Adds the pass's COMBINE_OUTPUT_RECORDS in one increment, so the emit
/// callback does no per-record counter work.
int64_t writeSortedRecords(std::vector<KeyValue>& records, Bytes& out,
                           Counters& counters) {
  if (!records.empty()) {
    counters.increment(kTaskGroup, kCombineOutputRecords,
                       static_cast<int64_t>(records.size()));
  }
  sortRecords(records);
  KvWriter writer(out);
  for (const KeyValue& kv : records) writer.write(kv);
  return static_cast<int64_t>(records.size());
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
      codec_(codecFromName(
          spec.conf.get("mapred.map.output.compression.codec", "none"))) {
  // Offsets are 32-bit, so the budget must stay under 4 GiB; 2047 MiB
  // leaves headroom for one oversized record past the threshold.
  const int64_t sort_mb =
      std::clamp<int64_t>(spec.conf.getInt("io.sort.mb", 32), 1, 2047);
  const double spill_percent = std::clamp(
      spec.conf.getDouble("io.sort.spill.percent", 0.80), 0.05, 1.0);
  spill_threshold_ = static_cast<size_t>(
      static_cast<double>(sort_mb << 20) * spill_percent);
}

MapOutputBuffer::~MapOutputBuffer() {
  if (charged_ != 0 && heap_) heap_(-charged_);
  charged_ = 0;
}

void MapOutputBuffer::syncCharge() {
  const int64_t now = static_cast<int64_t>(
      arena_.capacity() + index_.capacity() * sizeof(IndexEntry) +
      packed_.capacity() * sizeof(packed_[0]) + spill_bytes_);
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
  const size_t need = key.size() + value.size() + sizeof(IndexEntry);
  if (!index_.empty() && workingSet() + need > spill_threshold_) spill();

  IndexEntry entry;
  entry.prefix = keyPrefix(key);
  entry.partition = partition;
  entry.offset = static_cast<uint32_t>(arena_.size());
  entry.key_len = static_cast<uint32_t>(key.size());
  entry.val_len = static_cast<uint32_t>(value.size());
  batch_max_key_len_ = std::max(batch_max_key_len_, key.size());
  arena_.append(key.data(), key.size());
  arena_.append(value.data(), value.size());
  index_.push_back(entry);
  syncCharge();

  // A single record at or above the threshold spills solo right away, so
  // the overshoot never compounds.
  if (workingSet() >= spill_threshold_) spill();
}

void MapOutputBuffer::sortIndex() {
  Stopwatch watch;
  if (batch_max_key_len_ <= 8) {
    // Fast path — every key in this batch fits its 8-byte prefix, so
    // (prefix, key_len, insertion rank) packed into one 128-bit integer IS
    // the full sort key: bucket the packed entries by partition (a stable
    // counting pass), then each bucket sorts branch-free 16-byte integers
    // with no arena access at all. The batch is read back through the
    // packed order (entryAt) instead of being permuted.
    const size_t n = index_.size();
    std::vector<size_t> starts(partitions_ + 1, 0);
    for (const IndexEntry& e : index_) ++starts[e.partition + 1];
    for (uint32_t p = 0; p < partitions_; ++p) starts[p + 1] += starts[p];
    packed_.resize(n);
    std::vector<size_t> cursor(starts.begin(), starts.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      const IndexEntry& e = index_[i];
      packed_[cursor[e.partition]++] =
          (static_cast<unsigned __int128>(e.prefix) << 64) |
          (static_cast<uint64_t>(e.key_len) << 32) | static_cast<uint32_t>(i);
    }
    for (uint32_t p = 0; p < partitions_; ++p) {
      std::sort(packed_.begin() + static_cast<ptrdiff_t>(starts[p]),
                packed_.begin() + static_cast<ptrdiff_t>(starts[p + 1]));
    }
    packed_sorted_ = true;
  } else {
    std::sort(index_.begin(), index_.end(),
              [this](const IndexEntry& a, const IndexEntry& b) {
                if (a.partition != b.partition) {
                  return a.partition < b.partition;
                }
                if (a.prefix != b.prefix) return a.prefix < b.prefix;
                if (a.key_len <= 8 && b.key_len <= 8) {
                  // Equal prefixes fully encode both keys: the shorter key
                  // is a (zero-extended) prefix of the longer, so it sorts
                  // first.
                  if (a.key_len != b.key_len) return a.key_len < b.key_len;
                  return a.offset < b.offset;
                }
                if (const int c = keyAt(a).compare(keyAt(b)); c != 0) {
                  return c < 0;
                }
                return a.offset < b.offset;  // arena order == insertion order
              });
  }
  sort_micros_ += watch.elapsedMicros();
}

int64_t MapOutputBuffer::combineIndexRange(size_t begin, size_t end,
                                           Bytes& out) {
  counters_.increment(kTaskGroup, kCombineInputRecords,
                      static_cast<int64_t>(end - begin));
  std::vector<KeyValue> combined;
  TaskContext ctx(
      spec_.conf, counters_,
      [&](Bytes key, Bytes value) {
        combined.push_back({std::move(key), std::move(value)});
      },
      heap_, fs_);

  /// Iterates one key group's values straight off the sorted index.
  class IndexSliceValues final : public ValuesIterator {
   public:
    IndexSliceValues(const MapOutputBuffer& buffer, size_t begin, size_t end)
        : buffer_(buffer), pos_(begin), end_(end) {}
    std::optional<std::string_view> next() override {
      if (pos_ >= end_) return std::nullopt;
      return buffer_.valueAt(buffer_.entryAt(pos_++));
    }

   private:
    const MapOutputBuffer& buffer_;
    size_t pos_;
    size_t end_;
  };

  const auto combiner = spec_.combiner();
  combiner->setup(ctx);
  size_t i = begin;
  while (i < end) {
    size_t j = i + 1;
    while (j < end && keyAt(entryAt(j)) == keyAt(entryAt(i))) ++j;
    IndexSliceValues values(*this, i, j);
    combiner->reduce(keyAt(entryAt(i)), values, ctx);
    i = j;
  }
  combiner->cleanup(ctx);
  return writeSortedRecords(combined, out, counters_);
}

void MapOutputBuffer::maybeEncodeRun(Bytes& run) {
  if (codec_ == CodecKind::kNone || run.empty()) return;
  counters_.increment(kTaskGroup, kSpillRawBytes,
                      static_cast<int64_t>(run.size()));
  Bytes encoded =
      codecEncode(codec_, run, metrics_, trace_, trace_component_);
  counters_.increment(kTaskGroup, kSpillCompressedBytes,
                      static_cast<int64_t>(encoded.size()));
  run = std::move(encoded);
}

void MapOutputBuffer::spill() {
  if (index_.empty()) return;
  TraceSpan span(trace_, trace_component_,
                 "SORT_SPILL #" + std::to_string(spill_count_));
  const size_t arena_bytes = arena_.size();
  const size_t records_in = index_.size();

  sortIndex();

  std::vector<Bytes> runs(partitions_);
  int64_t records_out = 0;
  size_t i = 0;
  while (i < index_.size()) {
    const uint32_t p = entryAt(i).partition;
    size_t j = i + 1;
    while (j < index_.size() && entryAt(j).partition == p) ++j;
    Bytes& out = runs[p];
    if (spec_.combiner) {
      records_out += combineIndexRange(i, j, out);
    } else {
      KvWriter writer(out);
      for (size_t k = i; k < j; ++k) {
        const IndexEntry& e = entryAt(k);
        writer.write(keyAt(e), valueAt(e));
      }
      records_out += static_cast<int64_t>(j - i);
    }
    i = j;
  }

  // Encode each finished run before retaining it: the working set (and the
  // heap charge below) holds only the compressed bytes.
  for (Bytes& run : runs) maybeEncodeRun(run);

  size_t run_bytes = 0;
  for (const Bytes& run : runs) run_bytes += run.size();
  spill_bytes_ += run_bytes;
  spills_.push_back(std::move(runs));
  ++spill_count_;
  counters_.increment(kTaskGroup, kSpilledRecords, records_out);
  counters_.increment(kTaskGroup, kMapSpills);

  // The arena, index, and packed sort keys keep their capacity (and their
  // heap charge): the next fill reuses the allocations.
  arena_.clear();
  index_.clear();
  packed_.clear();
  packed_sorted_ = false;
  batch_max_key_len_ = 0;
  syncCharge();

  if (span.active()) {
    span.arg("records_in", std::to_string(records_in));
    span.arg("records_out", std::to_string(records_out));
    span.arg("arena_bytes", std::to_string(arena_bytes));
    span.arg("run_bytes", std::to_string(run_bytes));
  }
}

std::vector<Bytes> MapOutputBuffer::finish() {
  if (finished_) throw IllegalStateError("MapOutputBuffer::finish called twice");
  finished_ = true;
  spill();

  std::vector<Bytes> result(partitions_);
  if (spills_.size() == 1) {
    // Single spill: its runs ARE the task output (no merge, no re-combine —
    // the per-spill combine already ran).
    result = std::move(spills_[0]);
  } else if (spills_.size() > 1) {
    // Multi-spill: per partition, loser-tree merge of the spill runs, with
    // one more combine pass over the merged stream (Hadoop's final merge).
    for (uint32_t p = 0; p < partitions_; ++p) {
      // Encoded spill runs decode transiently for this partition's merge;
      // the decoded buffers die with the iteration.
      std::vector<Buffer> decoded;
      std::vector<std::string_view> views;
      decoded.reserve(spills_.size());
      views.reserve(spills_.size());
      for (const auto& spill : spills_) {
        if (codec_ != CodecKind::kNone && isEncodedStream(spill[p])) {
          decoded.push_back(
              codecDecode(spill[p], metrics_, trace_, trace_component_));
          views.push_back(decoded.back().view());
        } else {
          views.push_back(spill[p]);
        }
      }
      KvRunMerger merger(views);

      int64_t records_out = 0;
      if (spec_.combiner) {
        std::vector<KeyValue> combined;
        TaskContext ctx(
            spec_.conf, counters_,
            [&](Bytes key, Bytes value) {
              combined.push_back({std::move(key), std::move(value)});
            },
            heap_, fs_);
        const auto combiner = spec_.combiner();
        combiner->setup(ctx);
        while (merger.nextGroup()) {
          combiner->reduce(merger.key(), merger.values(), ctx);
        }
        combiner->cleanup(ctx);
        counters_.increment(kTaskGroup, kCombineInputRecords,
                            merger.recordsRead());
        records_out = writeSortedRecords(combined, result[p], counters_);
      } else {
        KvWriter writer(result[p]);
        while (merger.nextGroup()) {
          const std::string_view key = merger.key();
          while (const auto value = merger.values().next()) {
            writer.write(key, *value);
            ++records_out;
          }
        }
      }
      // Hadoop counts the final merge's rewrite as spilled records too —
      // and the re-encoded final run counts toward the byte counters the
      // same way.
      counters_.increment(kTaskGroup, kSpilledRecords, records_out);
      maybeEncodeRun(result[p]);
    }
  }

  // Release the whole working-set charge; the final runs leave the buffer
  // (they are handed to the MapOutputStore / shuffle, like before).
  spills_.clear();
  spill_bytes_ = 0;
  arena_ = Bytes();
  index_ = std::vector<IndexEntry>();
  packed_ = std::vector<unsigned __int128>();
  syncCharge();
  return result;
}

}  // namespace mh::mr
