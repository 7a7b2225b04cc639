#include "mh/mr/kv_stream.h"

namespace mh::mr {

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
      encoded_bytes_ += static_cast<int64_t>(run.size());
      decoded_heap_bytes_ += static_cast<int64_t>(decoded_.back().size());
      run = decoded_.back().view();
    }
    raw_bytes_ += static_cast<int64_t>(run.size());
  }
}

}  // namespace mh::mr
