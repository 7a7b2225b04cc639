// Per-layer section: direct, timed calls into each module's public
// functions, fed with the running workload's own generated data (not
// synthetic vectors), so a layer number moves with the input the workload
// really pushes through that layer. Every timing is the median of several
// passes; each pass is long enough (tens of milliseconds) that the steady
// clock's resolution does not matter.

#include <algorithm>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "mh/common/codec.h"
#include "mh/common/crc32.h"
#include "mh/common/stopwatch.h"
#include "mh/hdfs/block_store.h"
#include "mh/hdfs/edit_log.h"
#include "mh/mr/map_output_buffer.h"
#include "mh/mr/merge.h"
#include "mh/net/network.h"

namespace perfbench {
namespace {

using namespace mh;
namespace fs = std::filesystem;

constexpr int kPasses = 5;

/// Median seconds of `kPasses` runs of `pass`.
template <typename Fn>
double medianSeconds(Fn&& pass) {
  std::vector<double> seconds;
  for (int i = 0; i < kPasses; ++i) {
    Stopwatch watch;
    pass();
    seconds.push_back(watch.elapsedSeconds());
  }
  return median(std::move(seconds));
}

/// Median microseconds per call over `kPasses` batches of `calls` calls.
template <typename Fn>
double medianMicrosPerCall(int calls, Fn&& call) {
  return medianSeconds([&] {
           for (int i = 0; i < calls; ++i) call();
         }) *
         1e6 / calls;
}

uint64_t totalBytes(const std::vector<std::string_view>& pieces) {
  uint64_t total = 0;
  for (const auto piece : pieces) total += piece.size();
  return total;
}

// ---- net ------------------------------------------------------------------

void measureNet(const LayerInput& in, Outcome& out) {
  // A private fabric: the probe's calls must not land in the cluster's
  // traffic and latency signals.
  net::Network network;
  network.addHost("probe-client");
  network.addHost("probe-server");
  const std::string block(in.blocks.front());
  const BufferView resident(Buffer::copyOf(block));
  network.bind("probe-server", 1, [](const net::RpcRequest&) {
    return Bytes();
  });
  network.bindBuf("probe-server", 2, [resident](const net::BufRpcRequest&) {
    return resident;
  });

  out.add("net.call_small_us", medianMicrosPerCall(4000, [&] {
            network.call("probe-client", "probe-server", 1, "ping", Bytes());
          }),
          "us");
  // The write pipeline hands call() an owned copy of the block (pack()),
  // so building the body is part of the path being timed.
  out.add("net.call_64k_us", medianMicrosPerCall(400, [&] {
            network.call("probe-client", "probe-server", 1, "writeBlock",
                         Bytes(block), "pipeline");
          }),
          "us");
  out.add("net.callbuf_64k_us", medianMicrosPerCall(4000, [&] {
            const BufferView reply = network.callBuf(
                "probe-client", "probe-server", 2, "readBlock", BufferView(),
                "read");
            if (reply.size() != block.size()) throw std::runtime_error("short");
          }),
          "us");
}

// ---- common: CRC-32C and the mh-lz codec ----------------------------------

void measureChecksumAndCodec(const LayerInput& in, Outcome& out) {
  const double bytes = static_cast<double>(totalBytes(in.blocks));
  // Repeat the workload's blocks until one pass is ~32 MiB of CRC work.
  const int crc_rounds = std::max(1, static_cast<int>((32 << 20) / bytes));
  std::vector<uint32_t> expected;
  for (const auto block : in.blocks) expected.push_back(crc32c(block));
  bool stable = true;
  const double crc_s = medianSeconds([&] {
    for (int r = 0; r < crc_rounds; ++r) {
      for (size_t i = 0; i < in.blocks.size(); ++i) {
        stable = stable && crc32c(in.blocks[i]) == expected[i];
      }
    }
  });
  out.add("crc32c.gb_s", bytes * crc_rounds / crc_s / 1e9, "GB/s");
  out.check(stable, "crc32c is deterministic over the workload's blocks");

  std::vector<Bytes> encoded(in.blocks.size());
  const double encode_s = medianSeconds([&] {
    for (size_t i = 0; i < in.blocks.size(); ++i) {
      encoded[i] = codecEncode(CodecKind::kMhLz, in.blocks[i]);
    }
  });
  out.add("codec.mh-lz.encode_mb_s", bytes / encode_s / 1e6, "MB/s");
  bool round_trips = true;
  const double decode_s = medianSeconds([&] {
    for (size_t i = 0; i < in.blocks.size(); ++i) {
      const Buffer raw = codecDecode(encoded[i]);
      round_trips = round_trips && raw.view() == in.blocks[i];
    }
  });
  out.add("codec.mh-lz.decode_mb_s", bytes / decode_s / 1e6, "MB/s");
  out.check(round_trips, "mh-lz decode(encode(block)) == block");
}

// ---- hdfs: BlockStore -----------------------------------------------------

void measureBlockStore(const LayerInput& in, Outcome& out) {
  const double bytes = static_cast<double>(totalBytes(in.blocks));
  // A fresh store per pass: the first read of a replica is the one that
  // verifies its chunk CRCs, later reads hit the verified-once cache.
  std::optional<hdfs::MemBlockStore> store;
  std::vector<double> write_s, read_s;
  bool identical = true;
  for (int pass = 0; pass < kPasses; ++pass) {
    store.emplace();
    Stopwatch write_watch;
    for (size_t i = 0; i < in.blocks.size(); ++i) {
      store->writeBlock(i + 1, in.blocks[i]);
    }
    write_s.push_back(write_watch.elapsedSeconds());
    Stopwatch read_watch;
    for (size_t i = 0; i < in.blocks.size(); ++i) {
      identical = identical && store->readBlock(i + 1).view() == in.blocks[i];
    }
    read_s.push_back(read_watch.elapsedSeconds());
  }
  out.add("block_store.write_mb_s", bytes / median(write_s) / 1e6, "MB/s");
  out.add("block_store.read_mb_s", bytes / median(read_s) / 1e6, "MB/s");
  out.check(identical, "BlockStore read == written block");
}

// ---- hdfs: the NameNode edit log ------------------------------------------

void measureEditLog(const LayerInput& in, Outcome& out) {
  const fs::path dir = in.work_dir / "editlog-probe";
  fs::remove_all(dir);
  MetricsRegistry registry;
  uint64_t txns = 0;
  double append_s = 0;
  {
    hdfs::EditLog log({.dir = dir, .sync = "always", .metrics = &registry});
    // The journal a NameNode writes for the workload's files (create,
    // addBlock, complete), repeated under fresh directories until the
    // probe holds a few thousand transactions.
    Stopwatch watch;
    hdfs::BlockId next_block = 1;
    for (int copy = 0; txns < 6000; ++copy) {
      for (const std::string& path : in.paths) {
        const std::string probe_path = "/probe" + std::to_string(copy) + path;
        const hdfs::Block block{.id = next_block++, .size = 64 * 1024};
        log.logEdit({.op = hdfs::EditOp::kCreate,
                     .path = probe_path,
                     .replication = 3,
                     .block_size = 64 * 1024});
        log.logEdit({.op = hdfs::EditOp::kAddBlock,
                     .path = probe_path,
                     .block = block});
        log.logEdit({.op = hdfs::EditOp::kComplete,
                     .path = probe_path,
                     .blocks = {block}});
        txns += 3;
      }
    }
    append_s = watch.elapsedSeconds();
  }
  out.add("editlog.append_txn_s", static_cast<double>(txns) / append_s,
          "txn/s");
  // Interpolated inside its log2 bucket: a sync is often under 1 us, which
  // LatencyHistogram::percentile would round to 0.
  out.add("edits.sync_us_p50",
          windowMedian({.buckets = std::vector<uint64_t>(
                            LatencyHistogram::kBuckets, 0)},
                       readHistogram(registry, "edits.sync.micros")),
          "us");

  // Replay: EditLog::load + replayEdits, as a restarting NameNode does.
  // This replaces timing a kill-and-restart: restart-to-out-of-safe-mode
  // is quantized by DataNode heartbeats (78, 106 and 126 ms over three
  // runs), so it says more about the heartbeat phase than the journal.
  const fs::path replay_dir = in.replay_dir.empty() ? dir : in.replay_dir;
  uint64_t replayed = 0;
  const double replay_s = medianSeconds([&] {
    const hdfs::LoadedStorage loaded = hdfs::EditLog::load(replay_dir);
    hdfs::Namespace ns = loaded.image.empty()
                             ? hdfs::Namespace()
                             : hdfs::Namespace::loadImage(loaded.image);
    replayed = hdfs::replayEdits(ns, loaded.edits, loaded.image_txn).applied;
  });
  out.add("editlog.replay_txn_s", static_cast<double>(replayed) / replay_s,
          "txn/s");
  fs::remove_all(dir);
}

// ---- mapreduce: MapOutputBuffer and the merges ----------------------------

/// The WordCount mapper's output for one split, materialized (key and
/// value bytes back to back in one buffer) so the MapOutputBuffer timing
/// covers collect/sort/spill only.
struct MapOutput {
  struct Record {
    size_t offset;
    uint32_t key_len;
    uint32_t value_len;
    uint32_t partition;
  };
  Bytes data;
  std::vector<Record> records;
};

MapOutput mapSplit(const mr::JobSpec& spec, std::string_view split) {
  MapOutput output;
  mr::Counters counters;
  const auto partitioner = spec.partitioner();
  mr::TaskContext ctx(spec.conf, counters, [&](Bytes key, Bytes value) {
    output.records.push_back(
        {output.data.size(), static_cast<uint32_t>(key.size()),
         static_cast<uint32_t>(value.size()),
         partitioner->partition(key, spec.num_reducers)});
    output.data += key;
    output.data += value;
  });
  const auto mapper = spec.mapper();
  mapper->setup(ctx);
  size_t offset = 0;
  while (offset < split.size()) {
    size_t end = split.find('\n', offset);
    if (end == std::string_view::npos) end = split.size();
    mapper->map(std::to_string(offset), split.substr(offset, end - offset),
                ctx);
    offset = end + 1;
  }
  mapper->cleanup(ctx);
  return output;
}

struct BufferRun {
  std::vector<Bytes> runs;
  int64_t spills = 0;
  int64_t sort_us = 0;
};

BufferRun collect(const mr::JobSpec& spec, const MapOutput& output) {
  mr::Counters counters;
  mr::MapOutputBuffer buffer(spec, counters, {}, nullptr, nullptr, {});
  const std::string_view data = output.data;
  for (const MapOutput::Record& r : output.records) {
    buffer.collect(data.substr(r.offset, r.key_len),
                   data.substr(r.offset + r.key_len, r.value_len), r.partition);
  }
  BufferRun run;
  run.runs = buffer.finish();
  run.spills = buffer.spillCount();
  run.sort_us = buffer.sortMicros();
  return run;
}

void measureMapSide(const LayerInput& in, Outcome& out) {
  const mr::JobSpec& spec = *in.spec;
  const MapOutput first = mapSplit(spec, in.splits.front());
  BufferRun first_run;
  const double collect_s =
      medianSeconds([&] { first_run = collect(spec, first); });
  out.add("mob.collect_mb_s",
          static_cast<double>(first.data.size()) / collect_s / 1e6, "MB/s");
  out.add("mob.spills", static_cast<double>(first_run.spills), "count");
  out.add("mob.sort_us", static_cast<double>(first_run.sort_us), "us");

  // Partition 0 of every split's map output: the runs one reducer merges.
  std::vector<Bytes> runs{first_run.runs.front()};
  for (size_t s = 1; s < in.splits.size(); ++s) {
    runs.push_back(collect(spec, mapSplit(spec, in.splits[s])).runs.front());
  }
  std::vector<std::string_view> views(runs.begin(), runs.end());
  const double run_bytes = static_cast<double>(totalBytes(views));

  int64_t merged = 0;
  const double kway_s = medianSeconds([&] {
    mr::KvRunMerger merger(views);
    while (merger.nextGroup()) {
      while (merger.values().next()) {
      }
    }
    merged = merger.recordsRead();
  });
  out.add("merge.kway_mrec_s", static_cast<double>(merged) / kway_s / 1e6,
          "Mrec/s");

  // Fold every run in one block (fan-in = run count, capped at the
  // engine's default of 8), as the pipelined shuffle's reducer does.
  const size_t fanin = std::clamp<size_t>(runs.size(), 2, 8);
  std::vector<Buffer> buffers;
  for (const Bytes& run : runs) buffers.push_back(Buffer::copyOf(run));
  const double fold_s = medianSeconds([&] {
    mr::IncrementalMerger folder({.fold_fanin = fanin});
    for (size_t i = 0; i < buffers.size(); ++i) {
      folder.addRun({static_cast<uint32_t>(i)}, BufferView(buffers[i]));
    }
    while (folder.foldOnce()) {
    }
  });
  out.add("merge.fold_mb_s", run_bytes / fold_s / 1e6, "MB/s");
}

}  // namespace

void measureLayers(const LayerInput& input, Outcome& out) {
  measureNet(input, out);
  measureChecksumAndCodec(input, out);
  measureBlockStore(input, out);
  measureEditLog(input, out);
  measureMapSide(input, out);
}

}  // namespace perfbench
