#include "mh/mr/kv_stream.h"

#include <utility>

namespace mh::mr {

namespace {

constexpr size_t kTableEntry = sizeof(uint64_t);

/// Segment (offset, length) pairs of a segmented output; throws on a table
/// that does not describe the buffer.
std::vector<std::pair<size_t, size_t>> segmentRanges(std::string_view output) {
  std::vector<std::pair<size_t, size_t>> ranges;
  if (output.empty()) return ranges;
  const auto torn = [&](const std::string& why) {
    return InvalidArgumentError("torn segment table (" + why + ") in " +
                                std::to_string(output.size()) +
                                "-byte map output");
  };
  if (output.size() < kTableEntry) throw torn("no segment count");
  const uint64_t count =
      ByteReader(output.substr(output.size() - kTableEntry)).readU64();
  if (count == 0 || count > output.size() / kTableEntry - 1) {
    throw torn("segment count " + std::to_string(count));
  }
  const size_t table_bytes = (count + 1) * kTableEntry;
  const size_t payload = output.size() - table_bytes;
  ByteReader table(output.substr(payload, table_bytes - kTableEntry));
  ranges.reserve(count);
  size_t offset = 0;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t length = table.readU64();
    if (length > payload - offset) throw torn("segment lengths overrun");
    ranges.emplace_back(offset, length);
    offset += length;
  }
  if (offset != payload) throw torn("segment lengths underrun");
  return ranges;
}

}  // namespace

void appendSegmentTable(Bytes& out, const std::vector<uint64_t>& lengths) {
  if (lengths.empty()) return;  // zero segments: the empty buffer
  ByteWriter writer(out);
  for (const uint64_t length : lengths) writer.writeU64(length);
  writer.writeU64(lengths.size());
}

Bytes joinSegments(const std::vector<std::string_view>& segments) {
  size_t bytes = 0;
  for (const std::string_view segment : segments) bytes += segment.size();
  Bytes out;
  // Room for the segments and their table, so nothing is copied twice.
  if (bytes != 0) out.reserve(bytes + 8 * (segments.size() + 1));
  std::vector<uint64_t> lengths;
  for (const std::string_view segment : segments) {
    if (segment.empty()) continue;
    out.append(segment);
    lengths.push_back(segment.size());
  }
  appendSegmentTable(out, lengths);
  return out;
}

std::vector<std::string_view> splitSegments(std::string_view output) {
  std::vector<std::string_view> segments;
  for (const auto& [offset, length] : segmentRanges(output)) {
    segments.push_back(output.substr(offset, length));
  }
  return segments;
}

std::vector<BufferView> splitSegments(const BufferView& output) {
  std::vector<BufferView> segments;
  for (const auto& [offset, length] : segmentRanges(output.view())) {
    segments.push_back(output.slice(offset, length));
  }
  return segments;
}

std::vector<KeyValue> decodeKvRun(std::string_view run) {
  std::vector<KeyValue> records;
  KvReader reader(run);
  std::string_view key;
  std::string_view value;
  while (reader.next(key, value)) {
    records.push_back({Bytes(key), Bytes(value)});
  }
  return records;
}

Bytes encodeKvRun(const std::vector<KeyValue>& records) {
  Bytes out;
  KvWriter writer(out);
  for (const auto& record : records) writer.write(record);
  return out;
}

int64_t writeSortedRecords(std::vector<KeyValue>& records, Bytes& out) {
  const auto by_key = [](const KeyValue& a, const KeyValue& b) {
    return a.key < b.key;
  };
  if (!std::is_sorted(records.begin(), records.end(), by_key)) {
    std::stable_sort(records.begin(), records.end(), by_key);
  }
  KvWriter writer(out);
  for (const KeyValue& kv : records) writer.write(kv);
  return static_cast<int64_t>(records.size());
}

DecodedRunSet::DecodedRunSet(std::vector<std::string_view> runs,
                             bool allow_decode, MetricsRegistry* metrics,
                             TraceCollector* trace, std::string_view component)
    : views_(std::move(runs)) {
  for (std::string_view& run : views_) {
    if (allow_decode && isEncodedStream(run)) {
      decoded_.push_back(codecDecode(run, metrics, trace, component));
      run = decoded_.back().view();
    }
    raw_bytes_ += static_cast<int64_t>(run.size());
  }
}

}  // namespace mh::mr
