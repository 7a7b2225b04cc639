// Engine micro-benchmarks (google-benchmark): the hot paths under every
// experiment — CRC32C checksumming, record serde, the WordCount map path
// (map, collect, sort/spill, with and without the combiner), the long-key
// sort path, KV-run encode/decode, the streaming reduce merge, and
// block-store writes.
// Useful for spotting regressions in the substrate the table/figure benches
// sit on.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "mh/apps/wordcount.h"
#include "mh/common/crc32.h"
#include "mh/common/rng.h"
#include "mh/common/serde.h"
#include "mh/data/text_corpus.h"
#include "mh/hdfs/block_store.h"
#include "mh/mr/kv_stream.h"
#include "mh/mr/map_output_buffer.h"
#include "mh/mr/merge.h"

namespace {

using namespace mh;

void BM_Crc32c(benchmark::State& state) {
  const Bytes data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(512)->Arg(64 << 10)->Arg(1 << 20);

// Per-512-byte-chunk CRCs, as a block's checksums are computed: on SSE4.2
// three chunks' chains run interleaved.
void BM_Crc32cChunks(benchmark::State& state) {
  const Bytes data(static_cast<size_t>(state.range(0)), 'x');
  std::vector<uint32_t> crcs((data.size() + 511) / 512);
  for (auto _ : state) {
    crc32cChunks(data, 512, crcs.data());
    benchmark::DoNotOptimize(crcs.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32cChunks)->Arg(64 << 10)->Arg(1 << 20);

void BM_VarintRoundTrip(benchmark::State& state) {
  Rng rng(1);
  std::vector<int64_t> values(1024);
  for (auto& v : values) v = static_cast<int64_t>(rng.next());
  for (auto _ : state) {
    Bytes buf;
    ByteWriter writer(buf);
    for (const int64_t v : values) writer.writeVarI64(v);
    ByteReader reader(buf);
    int64_t sum = 0;
    for (size_t i = 0; i < values.size(); ++i) sum += reader.readVarI64();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_VarintRoundTrip);

void BM_KvRunEncodeDecode(benchmark::State& state) {
  Rng rng(2);
  std::vector<mh::mr::KeyValue> records;
  for (int i = 0; i < 1000; ++i) {
    records.push_back({"key" + std::to_string(rng.uniform(100)),
                       Bytes(32, static_cast<char>(rng.uniform(256)))});
  }
  for (auto _ : state) {
    const Bytes run = mh::mr::encodeKvRun(records);
    benchmark::DoNotOptimize(mh::mr::decodeKvRun(run));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_KvRunEncodeDecode);

/// One TextCorpusGenerator split of `bytes` over `vocabulary` words, and
/// its lines as views into it.
struct CorpusSplit {
  CorpusSplit(uint64_t bytes, size_t vocabulary)
      : text(mh::data::TextCorpusGenerator({.seed = 5,
                                            .vocabulary_size = vocabulary,
                                            .target_bytes = bytes})
                 .generate()) {
    for (size_t start = 0; start < text.size();) {
      const size_t end = text.find('\n', start);
      lines.emplace_back(text.data() + start, end - start);
      start = end + 1;
    }
  }
  Bytes text;
  std::vector<std::string_view> lines;
};

/// The shipping map path as runMapTask drives it: WordCountMapper::map
/// emitting views -> MapOutputBuffer::collect -> finishSegments (sort,
/// spill, the combiner when the job has one). Reports input records
/// (lines) per second.
void runWordCountMap(benchmark::State& state, mh::mr::JobSpec spec,
                     const CorpusSplit& split) {
  spec.validateAndDefault();
  const auto partitioner = spec.partitioner();
  for (auto _ : state) {
    mh::mr::Counters counters;
    mh::mr::MapOutputBuffer buffer(spec, counters, {}, nullptr, nullptr, {});
    mh::mr::TaskContext ctx(
        spec.conf, counters,
        [&](std::string_view key, std::string_view value) {
          buffer.collect(key, value,
                         partitioner->partition(key, spec.num_reducers));
        });
    const auto mapper = spec.mapper();
    for (const std::string_view line : split.lines) mapper->map({}, line, ctx);
    benchmark::DoNotOptimize(buffer.finishSegments());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(split.lines.size()));
}

/// WordCount without a combiner over one split. Arguments: split bytes
/// (16 MiB is one bulk WordCount split, over its 20000-word vocabulary)
/// and reducer count, which sets how many partitions each spill sorts;
/// the segments ship unmerged.
void BM_WordCountMapCollect(benchmark::State& state) {
  const CorpusSplit split(static_cast<uint64_t>(state.range(0)), 20'000);
  runWordCountMap(state,
                  mh::apps::makeWordCountJob(
                      {"in"}, "out", false,
                      static_cast<uint32_t>(state.range(1))),
                  split);
}
BENCHMARK(BM_WordCountMapCollect)
    ->ArgsProduct({{1 << 20, 16 << 20}, {1, 3, 64}})
    ->Unit(benchmark::kMillisecond);

/// The classroom lab's map: WordCount with its combiner over one 64 KiB
/// split of a 5000-word vocabulary, 3 reducers. Its one spill sorts each
/// partition and runs the combiner over the sorted index in place.
void BM_WordCountMapCombine(benchmark::State& state) {
  const CorpusSplit split(64 << 10, 5'000);
  runWordCountMap(state, mh::apps::makeWordCountJob({"in"}, "out", true, 3),
                  split);
}
BENCHMARK(BM_WordCountMapCombine)->Unit(benchmark::kMicrosecond);

/// The long-key path of the map-side sort: 1M records whose 16-40-byte
/// keys share a handful of 8-byte prefixes, so the radix sort leaves large
/// tied groups for the comparison sort on the remaining key bytes. Drives
/// MapOutputBuffer::collect -> finish (sort, spill, final merge) with the
/// default budget and 4 partitions; reports records per second.
void BM_LongKeyCollectFinish(benchmark::State& state) {
  constexpr size_t kRecords = 1'000'000;
  static const char* kPrefixes[] = {"user:000", "user:001", "item:000",
                                    "session:"};
  Rng rng(6);
  Bytes keys;
  std::vector<std::pair<size_t, size_t>> spans;  // offset, length in `keys`
  spans.reserve(kRecords);
  for (size_t i = 0; i < kRecords; ++i) {
    const size_t start = keys.size();
    keys += kPrefixes[rng.uniform(4)];
    const size_t suffix = 8 + rng.uniform(33);  // key length 16..40
    for (size_t c = 0; c < suffix; ++c) {
      keys.push_back(static_cast<char>('a' + rng.uniform(26)));
    }
    spans.emplace_back(start, keys.size() - start);
  }
  mh::mr::JobSpec spec;
  spec.num_reducers = 4;
  const mh::mr::HashPartitioner partitioner;
  for (auto _ : state) {
    mh::mr::Counters counters;
    mh::mr::MapOutputBuffer buffer(spec, counters, {}, nullptr, nullptr, {});
    for (const auto& [offset, length] : spans) {
      const std::string_view key(keys.data() + offset, length);
      buffer.collect(key, "1", partitioner.partition(key, spec.num_reducers));
    }
    benchmark::DoNotOptimize(buffer.finish());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRecords));
}
BENCHMARK(BM_LongKeyCollectFinish)->Unit(benchmark::kMillisecond);

/// `k` sorted runs of `n` records each over `distinct` keys, the reduce
/// merge's input shape.
std::vector<Bytes> makeSortedRuns(size_t k, size_t n, size_t distinct) {
  Rng rng(4);
  std::vector<Bytes> runs;
  runs.reserve(k);
  for (size_t r = 0; r < k; ++r) {
    std::vector<mh::mr::KeyValue> records;
    records.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      records.push_back({"key" + std::to_string(rng.uniform(distinct)),
                         Bytes(24, static_cast<char>('a' + r))});
    }
    std::stable_sort(records.begin(), records.end(),
                     [](const auto& a, const auto& b) { return a.key < b.key; });
    runs.push_back(mh::mr::encodeKvRun(records));
  }
  return runs;
}

/// The shipping reduce merge: stream the runs through the loser tree,
/// grouped by key, zero-copy. Args are {runs, records per run, distinct
/// keys}: the first two sets almost never repeat a key; the last two are
/// WordCount-shaped, ~650 values per key, where the winner keeps its key
/// for long stretches and the tree replay is skipped. {4, ...} is four
/// maps that each merged their spills; {20, ...} is the same records as
/// four maps shipping five spill segments each, and {48, ...} as four maps
/// shipping twelve. {12, ...} is one map's map-side merge of its twelve
/// spills — the work a 12-spill map saves by shipping them.
void BM_ReduceMergeStreaming(benchmark::State& state) {
  const auto runs = makeSortedRuns(static_cast<size_t>(state.range(0)),
                                   static_cast<size_t>(state.range(1)),
                                   static_cast<size_t>(state.range(2)));
  const std::vector<std::string_view> views(runs.begin(), runs.end());
  for (auto _ : state) {
    mh::mr::KvRunMerger merger(views);
    uint64_t sink = 0;
    while (merger.nextGroup()) {
      while (const auto value = merger.values().next()) sink += value->size();
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * state.range(1));
}
BENCHMARK(BM_ReduceMergeStreaming)
    ->Args({4, 10'000, 5'001})
    ->Args({8, 100'000, 50'001})
    ->Args({4, 100'000, 615})
    ->Args({20, 20'000, 615})
    ->Args({12, 8'334, 615})
    ->Args({48, 8'334, 615})
    ->Unit(benchmark::kMillisecond);

void BM_MemBlockStoreWriteRead(benchmark::State& state) {
  mh::hdfs::MemBlockStore store;
  const Bytes payload(static_cast<size_t>(state.range(0)), 'b');
  mh::hdfs::BlockId id = 1;
  for (auto _ : state) {
    store.writeBlock(id, payload);
    benchmark::DoNotOptimize(store.readBlock(id));
    store.deleteBlock(id);
    ++id;
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          state.range(0));
}
BENCHMARK(BM_MemBlockStoreWriteRead)->Arg(64 << 10)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
