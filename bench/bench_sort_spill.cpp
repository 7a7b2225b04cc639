// Tentpole benchmark — map-side collect+sort. Replays the seed engine's
// per-partition vector<KeyValue> collect (one Bytes pair allocated per
// record, stable_sort over 64-byte elements, encodeKvRun) against the
// arena-backed MapOutputBuffer (kv_stream frames in one arena, an LSD radix
// sort over 16-byte index entries, spills that copy the frames) on 1M small
// records, with and without a combiner. All paths must produce
// byte-identical runs; the arena path must be faster. Writes a
// machine-readable summary to BENCH_sort_spill.json (or argv[1]).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "mh/common/rng.h"
#include "mh/common/stopwatch.h"
#include "mh/mr/job.h"
#include "mh/mr/kv_stream.h"
#include "mh/mr/map_output_buffer.h"

namespace {

using namespace mh;
using namespace mh::mr;

constexpr size_t kRecords = 1'000'000;
constexpr uint32_t kPartitions = 4;
constexpr uint64_t kVocabulary = 65536;
constexpr int kReps = 3;

/// Sums varint-encoded counts — the WordCount combiner shape.
class SumVarintCombiner final : public Reducer {
 public:
  void reduce(std::string_view key, ValuesIterator& values,
              TaskContext& ctx) override {
    int64_t sum = 0;
    while (const auto v = values.next()) {
      ByteReader reader(*v);
      sum += reader.readVarI64();
    }
    Bytes value;
    ByteWriter(value).writeVarI64(sum);
    ctx.emit(Bytes(key), std::move(value));
  }
};

JobSpec makeSpec(bool with_combiner, int sort_mb) {
  JobSpec spec;
  spec.num_reducers = kPartitions;
  spec.partitioner = [] { return std::make_unique<HashPartitioner>(); };
  if (with_combiner) {
    spec.combiner = [] { return std::make_unique<SumVarintCombiner>(); };
  }
  spec.conf.setInt("io.sort.mb", sort_mb);
  return spec;
}

std::vector<KeyValue> makeRecords() {
  Rng rng(20260807);
  std::vector<KeyValue> records;
  records.reserve(kRecords);
  Bytes one;
  ByteWriter(one).writeVarI64(1);
  for (size_t i = 0; i < kRecords; ++i) {
    records.push_back({"w" + std::to_string(rng.uniform(kVocabulary)), one});
  }
  return records;
}

/// The seed engine's map-side tail, verbatim in shape: per-partition
/// KeyValue vectors (a Bytes pair per record), stable_sort by key,
/// whole-partition combine, encodeKvRun.
std::vector<Bytes> seedCollect(const std::vector<KeyValue>& input,
                               const JobSpec& spec) {
  const auto partitioner = spec.partitioner();
  std::vector<std::vector<KeyValue>> buffers(kPartitions);
  for (const KeyValue& kv : input) {
    const uint32_t p = partitioner->partition(kv.key, kPartitions);
    buffers[p].push_back({Bytes(kv.key), Bytes(kv.value)});
  }

  const auto sort_by_key = [](std::vector<KeyValue>& records) {
    std::stable_sort(records.begin(), records.end(),
                     [](const KeyValue& a, const KeyValue& b) {
                       return a.key < b.key;
                     });
  };

  std::vector<Bytes> runs(kPartitions);
  for (uint32_t p = 0; p < kPartitions; ++p) {
    auto& records = buffers[p];
    sort_by_key(records);
    if (spec.combiner && !records.empty()) {
      std::vector<KeyValue> combined;
      Counters scratch;
      TaskContext ctx(
          spec.conf, scratch,
          [&](Bytes key, Bytes value) {
            combined.push_back({std::move(key), std::move(value)});
          });
      class SliceValues final : public ValuesIterator {
       public:
        SliceValues(const std::vector<KeyValue>& records, size_t begin,
                    size_t end)
            : records_(records), pos_(begin), end_(end) {}
        std::optional<std::string_view> next() override {
          if (pos_ >= end_) return std::nullopt;
          return std::string_view(records_[pos_++].value);
        }

       private:
        const std::vector<KeyValue>& records_;
        size_t pos_;
        size_t end_;
      };
      const auto combiner = spec.combiner();
      combiner->setup(ctx);
      size_t i = 0;
      while (i < records.size()) {
        size_t j = i + 1;
        while (j < records.size() && records[j].key == records[i].key) ++j;
        SliceValues values(records, i, j);
        combiner->reduce(records[i].key, values, ctx);
        i = j;
      }
      combiner->cleanup(ctx);
      sort_by_key(combined);
      records = std::move(combined);
    }
    runs[p] = encodeKvRun(records);
  }
  return runs;
}

std::vector<Bytes> arenaCollect(const std::vector<KeyValue>& input,
                                const JobSpec& spec, int64_t& spills) {
  const auto partitioner = spec.partitioner();
  Counters scratch;
  MapOutputBuffer buffer(spec, scratch, {}, nullptr, nullptr, {});
  for (const KeyValue& kv : input) {
    buffer.collect(kv.key, kv.value,
                   partitioner->partition(kv.key, kPartitions));
  }
  auto runs = buffer.finish();
  spills = buffer.spillCount();
  return runs;
}

struct Row {
  std::string path;
  bool combiner;
  int64_t micros;
  int64_t spills;
};

template <typename Fn>
int64_t bestOfReps(Fn&& run) {
  int64_t best = INT64_MAX;
  for (int r = 0; r < kReps; ++r) {
    Stopwatch watch;
    run();
    best = std::min(best, watch.elapsedMicros());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_sort_spill.json";
  const std::vector<KeyValue> input = makeRecords();

  std::printf("=== map-side collect+sort: seed vector path vs arena "
              "MapOutputBuffer (%zu records, %d partitions) ===\n\n",
              kRecords, kPartitions);
  std::printf("%-14s %-9s %12s %8s\n", "path", "combiner", "micros",
              "spills");

  std::vector<Row> rows;
  bool identical = true;
  double speedups[2] = {0, 0};
  for (const bool with_combiner : {false, true}) {
    // io.sort.mb=64 holds the full working set: one spill, so both paths
    // sort exactly once and the comparison isolates collect+sort cost.
    const JobSpec seed_spec = makeSpec(with_combiner, 64);
    std::vector<Bytes> seed_runs;
    const int64_t seed_us =
        bestOfReps([&] { seed_runs = seedCollect(input, seed_spec); });
    rows.push_back({"seed_vector", with_combiner, seed_us, 1});
    std::printf("%-14s %-9s %12lld %8d\n", "seed_vector",
                with_combiner ? "yes" : "no",
                static_cast<long long>(seed_us), 1);

    std::vector<Bytes> arena_runs;
    int64_t spills = 0;
    const int64_t arena_us = bestOfReps(
        [&] { arena_runs = arenaCollect(input, seed_spec, spills); });
    rows.push_back({"arena_buffer", with_combiner, arena_us, spills});
    std::printf("%-14s %-9s %12lld %8lld\n", "arena_buffer",
                with_combiner ? "yes" : "no",
                static_cast<long long>(arena_us),
                static_cast<long long>(spills));

    identical = identical && seed_runs == arena_runs;
    speedups[with_combiner ? 1 : 0] =
        static_cast<double>(seed_us) / static_cast<double>(arena_us);

    // Informational: the same input under an 8 MiB budget — multiple
    // spills plus the loser-tree merge, still byte-identical output.
    const JobSpec tight_spec = makeSpec(with_combiner, 8);
    std::vector<Bytes> tight_runs;
    const int64_t tight_us = bestOfReps(
        [&] { tight_runs = arenaCollect(input, tight_spec, spills); });
    rows.push_back({"arena_spill8mb", with_combiner, tight_us, spills});
    std::printf("%-14s %-9s %12lld %8lld\n", "arena_spill8mb",
                with_combiner ? "yes" : "no",
                static_cast<long long>(tight_us),
                static_cast<long long>(spills));
    identical = identical && seed_runs == tight_runs;
  }

  std::printf("\nspeedup (single spill): %.2fx plain, %.2fx with combiner; "
              "outputs byte-identical: %s\n",
              speedups[0], speedups[1], identical ? "yes" : "NO");

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"bench\": \"sort_spill\",\n"
       << "  \"records\": " << kRecords << ",\n"
       << "  \"partitions\": " << kPartitions << ",\n"
       << "  \"reps\": " << kReps << ",\n"
       << "  \"outputs_byte_identical\": " << (identical ? "true" : "false")
       << ",\n"
       << "  \"speedup_plain\": " << speedups[0] << ",\n"
       << "  \"speedup_combiner\": " << speedups[1] << ",\n"
       << "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    json << "    {\"path\": \"" << rows[i].path << "\", \"combiner\": "
         << (rows[i].combiner ? "true" : "false")
         << ", \"micros\": " << rows[i].micros
         << ", \"spills\": " << rows[i].spills << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();
  std::printf("wrote %s\n", out_path.c_str());

  // Shape gate: identical bytes always; the arena path must beat the seed
  // path clearly even on noisy CI machines (locally it should be >= 2x).
  if (!identical) return 1;
  if (speedups[0] < 1.2) return 1;
  return 0;
}
