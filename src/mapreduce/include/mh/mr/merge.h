#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mh/mr/api.h"
#include "mh/mr/job.h"
#include "mh/mr/kv_stream.h"

/// \file merge.h
/// Streaming k-way merge over sorted kv_stream runs — the map side's final
/// spill merge, the reduce-side merge, and the pipelined shuffle's folds.
///
/// Map tasks emit runs that are already key-sorted, so no merge ever needs
/// to decode whole runs into memory and re-sort: a tournament (loser) tree
/// over one cursor per run yields records in global key order with one
/// comparison path per record. Groups are exposed lazily: the caller pulls
/// a key and a ValuesIterator whose views point straight into the run
/// buffers (zero-copy); unconsumed values are skipped when the next group
/// is requested. Merges that only re-frame records (no combiner) pull whole
/// frames instead and append them verbatim.
///
/// Comparisons are integer compares. Each cursor caches its key's 8-byte
/// big-endian prefix (`keyPrefix`, the one the map-side radix sort uses)
/// when it advances: unequal prefixes settle the order, and equal prefixes
/// with a key of at most 8 bytes settle it by length. Only two 9+-byte keys
/// that share a prefix compare their remaining bytes.
///
/// While the winner's next record keeps the key it just left, it still
/// beats every rival, so the tree replay is skipped: a key group drawn from
/// one run costs one prefix compare per record, not a log(k) climb.
///
/// Ties are broken by run index, so duplicate keys come out in run order and
/// within-run order — the same stability contract as Hadoop's merge (and as
/// the old concatenate-and-stable_sort implementation).

namespace mh::mr {

/// Key-sorted records read as key groups: what a combiner consumes.
/// KvRunMerger is one, over merged runs; the map-side spill reads its
/// sorted index in place as another (map_output_buffer.cpp).
class KeyGroups {
 public:
  virtual ~KeyGroups() = default;

  /// Advances to the next key group, discarding any unconsumed values of
  /// the current one. False when every record has been read.
  virtual bool nextGroup() = 0;

  /// Key of the current group. Valid until the next nextGroup() call.
  virtual std::string_view key() const = 0;

  /// The current group's values, in input order.
  virtual ValuesIterator& values() = 0;

  /// Records read so far, skipped values included (equals total input
  /// records once drained).
  virtual int64_t recordsRead() const = 0;
};

/// Merges k sorted runs into one key-grouped stream.
///
/// The run buffers must outlive the merger; every string_view it hands out
/// (keys, values and frames) points into them. A torn frame in any run
/// surfaces as InvalidArgumentError from the constructor (first record) or
/// from iteration (later records), exactly as KvReader would have thrown.
class KvRunMerger final : public KeyGroups {
 public:
  /// `runs` are views over encoded kv_stream runs; empty runs are skipped.
  explicit KvRunMerger(const std::vector<std::string_view>& runs);

  bool nextGroup() override;

  std::string_view key() const override { return group_key_; }

  /// The current group's values, in run order then within-run order.
  ValuesIterator& values() override { return values_; }

  /// Pops the next record, in merge order, as its whole kv_stream frame;
  /// nullopt when every run is exhausted. Appending the frames rebuilds
  /// the merged run byte for byte. Drain a merger either by frames or by
  /// groups, not both.
  std::optional<std::string_view> nextFrame();

  /// Number of non-empty runs under the merge (the MERGE_SEGMENTS counter).
  size_t segmentCount() const { return cursors_.size(); }

  /// Records streamed out so far (equals total input records once drained).
  int64_t recordsRead() const override { return records_read_; }

 private:
  /// One run's read head.
  struct Cursor {
    explicit Cursor(std::string_view run) : reader(run) {}
    /// Steps to the next record; false (and exhausted) at the run's end.
    bool advance();
    /// True when this cursor's key is `key`, whose prefix is `prefix`.
    bool hasKey(std::string_view key, uint64_t prefix) const;

    KvReader reader;
    std::string_view key;
    std::string_view value;
    std::string_view frame;
    uint64_t prefix = 0;  ///< keyPrefix(key)
    bool exhausted = false;
  };

  class GroupValues final : public ValuesIterator {
   public:
    explicit GroupValues(KvRunMerger& merger) : merger_(merger) {}
    std::optional<std::string_view> next() override {
      return merger_.nextValueInGroup();
    }

   private:
    KvRunMerger& merger_;
  };

  bool beats(size_t a, size_t b) const;
  void replay(size_t leaf);
  /// Advances the winner's cursor and re-runs the tournament unless its
  /// new key equals the one it left. True when that replay was skipped.
  bool advanceWinner();
  std::optional<std::string_view> nextValueInGroup();

  std::vector<Cursor> cursors_;  ///< non-empty runs, in original run order
  std::vector<size_t> tree_;     ///< loser tree; tree_[0] is the winner
  size_t winner_ = 0;
  std::string_view group_key_;
  uint64_t group_prefix_ = 0;
  /// The winner's current record belongs to the open group.
  bool in_group_ = false;
  int64_t records_read_ = 0;
  GroupValues values_{*this};
};

/// Runs one fresh instance of `spec`'s combiner over every key group of
/// `groups` and appends its emissions to `out` as one sorted kv_stream run.
/// Each emission is framed straight into `out` as it is made. Combiners
/// usually keep keys, but the engine has never assumed so: if an emission's
/// key sorts before the one emitted ahead of it, the run is read back,
/// stable-sorted by key and written again (writeSortedRecords). The
/// combiner's TaskContext writes `counters` and reaches `heap` and `fs`.
/// Returns records written.
int64_t combineMerge(const JobSpec& spec, KeyGroups& groups,
                     Counters& counters, Bytes& out,
                     TaskContext::HeapFn heap = {},
                     FileSystemView* fs = nullptr);

/// The pipelined shuffle's reduce-side accumulator: map outputs fetched
/// while the map phase is still going are registered here and folded into
/// a bounded number of pre-merged segments, so the final merge (once
/// membership is complete) runs over a handful of segments instead of
/// every map's.
///
/// **Identity contract.** Every item — one fetched output: a map's sorted
/// segments in spill order, or a node-combined run — is keyed by the
/// sorted set of map indices it covers (a single map in classic shuffle, a
/// host's maps in in-node mode); covers are disjoint, and the canonical
/// merge order is ascending lowest-covered-map, then spill. A fold only
/// consumes a block of items whose covers together form one gap-free
/// integer range, and `assemble()` emits folded segments and unfolded
/// items' segments in canonical order — with KvRunMerger's stable
/// tie-break (equal keys drain in run order) the final merged stream is
/// byte-identical to a one-shot merge over every item, no matter which
/// blocks folded or when. In-node covers are usually interleaved map sets
/// (a host's maps), so they stay unfolded and merge once at the end.
///
/// Items are raw kv_stream runs: the reducer decodes each fetched output
/// once on arrival (`intakeMapOutput`, task_runner.h), so the merger never
/// sees a codec.
///
/// **Heap charge.** The merger is the one holder of a reduce's fetched
/// bytes, so it is also the one that charges them: every add, invalidate
/// and fold passes the change in `heldBytes()` to `Options::heap`, after
/// the change is made (a charge that throws OutOfMemoryError has still
/// been counted), and the destructor releases whatever is still held. The
/// owner keeps the merger alive until the assembled runs are merged.
///
/// **Re-execution.** `invalidate(map)` discards whatever covers a map whose
/// output went stale — a pending run, or a folded segment (which dissolves;
/// its other members must be re-fetched). The merger never talks to the
/// network: the caller re-fetches and calls `addSegments` again.
///
/// Not thread-safe; the owning reduce task drives it from one thread.
class IncrementalMerger {
 public:
  struct Options {
    /// Fold when an eligible block reaches this many pending items (map
    /// outputs, not segments). The final merge therefore sees at most
    /// ~fanin unfolded items per segment gap plus the segments themselves.
    size_t fold_fanin = 8;
    /// Charged the change in `heldBytes()` at every step (none if empty):
    /// the owning task's heap budget. A release (a negative change) must
    /// not throw; the destructor makes one.
    TaskContext::HeapFn heap;
  };

  explicit IncrementalMerger(Options opts) : opts_(std::move(opts)) {}
  ~IncrementalMerger();
  IncrementalMerger(const IncrementalMerger&) = delete;
  IncrementalMerger& operator=(const IncrementalMerger&) = delete;

  /// Registers a fetched map output covering `maps` (sorted ascending,
  /// non-empty): its raw sorted segments, in spill order, which merge as one
  /// item. A cover intersecting anything already held is an
  /// InvalidArgumentError — a map is re-added only after invalidate(). An
  /// empty output (an empty partition) is legal and still covers its maps.
  void addSegments(std::vector<uint32_t> maps,
                   std::vector<BufferView> segments);

  /// addSegments for one plain sorted run.
  void addRun(std::vector<uint32_t> maps, BufferView run) {
    addSegments(std::move(maps), {std::move(run)});
  }

  /// True when `map` is covered by a pending run or folded segment.
  bool covers(uint32_t map) const;

  /// Discards everything covering `map`. Returns the OTHER maps whose data
  /// was collateral damage (members of a dissolved segment or of a shared
  /// cover) and must be re-fetched; the invalidated map itself is excluded.
  std::vector<uint32_t> invalidate(uint32_t map);

  /// One fold pass: merges every eligible block of pending runs into a
  /// segment. Returns true when anything folded.
  bool foldOnce();

  /// Folded segments and unfolded items' segments in canonical
  /// (lowest-covered-map, then spill) order — the input_runs for
  /// runReduceTask.
  std::vector<BufferView> assemble() const;

  /// Unfolded items: one per fetched map output (or node output), however
  /// many segments it holds. Folding is triggered by this count.
  size_t pendingRuns() const;
  size_t segmentCount() const;
  size_t foldFanin() const { return opts_.fold_fanin; }
  /// Bytes resident behind the held items: each item's distinct backing
  /// buffers, whole. An undecoded output's segments are slices of the one
  /// fetched buffer, so it counts at that buffer's size, segment table
  /// included; distinct items never share a buffer. What `Options::heap`
  /// has been charged.
  int64_t heldBytes() const { return held_bytes_; }

 private:
  struct Item {
    std::vector<uint32_t> cover;  ///< sorted, disjoint from every other item
    std::vector<BufferView> runs;  ///< sorted runs, in merge order
    bool segment = false;          ///< one folded segment
  };

  static int64_t bytesOf(const Item& item);

  /// Sets the held total and charges `Options::heap` the difference.
  void setHeld(int64_t bytes);

  /// Merges `block` (in canonical order) into one raw segment.
  Bytes foldBlock(const std::vector<const Item*>& block) const;

  Options opts_;
  std::map<uint32_t, Item> items_;  ///< keyed by cover.front()
  int64_t held_bytes_ = 0;
};

}  // namespace mh::mr
