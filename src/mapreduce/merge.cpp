#include "mh/mr/merge.h"

#include <algorithm>
#include <limits>

namespace mh::mr {

namespace {
constexpr size_t kUnset = std::numeric_limits<size_t>::max();

/// Orders two keys whose prefixes are equal: when either is at most 8
/// bytes it is a prefix of the other, so length decides; otherwise the
/// bytes past the prefix do.
int comparePrefixTied(std::string_view a, std::string_view b) {
  if (std::min(a.size(), b.size()) <= 8) {
    return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
  }
  return a.substr(8).compare(b.substr(8));
}
}  // namespace

bool KvRunMerger::Cursor::advance() {
  if (reader.next(key, value, frame)) {
    prefix = keyPrefix(key);
    return true;
  }
  exhausted = true;
  key = value = frame = {};
  return false;
}

bool KvRunMerger::Cursor::hasKey(std::string_view other,
                                 uint64_t other_prefix) const {
  return !exhausted && prefix == other_prefix && key.size() == other.size() &&
         (key.size() <= 8 || key.substr(8) == other.substr(8));
}

KvRunMerger::KvRunMerger(const std::vector<std::string_view>& runs) {
  cursors_.reserve(runs.size());
  for (const std::string_view run : runs) {
    if (run.empty()) continue;
    Cursor cursor(run);
    // A non-empty run yields at least one record or throws on a torn frame.
    if (cursor.advance()) cursors_.push_back(cursor);
  }

  // Single-run fast path: no tree, the one cursor is always the winner.
  const size_t k = cursors_.size();
  if (k <= 1) return;

  // Build the loser tree by replaying every leaf: winners climb, losers
  // park at internal nodes, the last replay deposits the overall winner.
  tree_.assign(k, kUnset);
  for (size_t leaf = 0; leaf < k; ++leaf) replay(leaf);
  winner_ = tree_[0];
}

bool KvRunMerger::beats(size_t a, size_t b) const {
  const Cursor& ca = cursors_[a];
  const Cursor& cb = cursors_[b];
  if (ca.exhausted) return false;
  if (cb.exhausted) return true;
  if (ca.prefix != cb.prefix) return ca.prefix < cb.prefix;
  const int c = comparePrefixTied(ca.key, cb.key);
  if (c != 0) return c < 0;
  return a < b;  // stable: equal keys drain in run order
}

void KvRunMerger::replay(size_t leaf) {
  const size_t k = cursors_.size();
  size_t contender = leaf;
  for (size_t node = (leaf + k) / 2; node > 0; node /= 2) {
    if (tree_[node] == kUnset) {  // initial build: park and wait for a rival
      tree_[node] = contender;
      return;
    }
    if (beats(tree_[node], contender)) std::swap(contender, tree_[node]);
  }
  tree_[0] = contender;
}

bool KvRunMerger::advanceWinner() {
  Cursor& cursor = cursors_[winner_];
  const std::string_view left_key = cursor.key;
  const uint64_t left_prefix = cursor.prefix;
  // Same key again: it ties every rival it beat and still wins the tie.
  if (cursor.advance() && cursor.hasKey(left_key, left_prefix)) return true;
  if (cursors_.size() > 1) {
    replay(winner_);
    winner_ = tree_[0];
  }
  return false;
}

std::optional<std::string_view> KvRunMerger::nextValueInGroup() {
  if (!in_group_) return std::nullopt;
  const std::string_view value = cursors_[winner_].value;
  ++records_read_;
  in_group_ = advanceWinner() ||
              cursors_[winner_].hasKey(group_key_, group_prefix_);
  return value;
}

bool KvRunMerger::nextGroup() {
  while (in_group_) nextValueInGroup();  // skip what the reducer left behind
  if (cursors_.empty() || cursors_[winner_].exhausted) return false;
  group_key_ = cursors_[winner_].key;
  group_prefix_ = cursors_[winner_].prefix;
  in_group_ = true;
  return true;
}

std::optional<std::string_view> KvRunMerger::nextFrame() {
  if (cursors_.empty() || cursors_[winner_].exhausted) return std::nullopt;
  const std::string_view frame = cursors_[winner_].frame;
  ++records_read_;
  advanceWinner();
  return frame;
}

int64_t combineMerge(const JobSpec& spec, KeyGroups& groups,
                     Counters& counters, Bytes& out, TaskContext::HeapFn heap,
                     FileSystemView* fs) {
  const size_t begin = out.size();
  int64_t written = 0;
  bool in_order = true;
  Bytes last_key;  // the last emission's key, while the order holds
  TaskContext ctx(
      spec.conf, counters,
      [&](std::string_view key, std::string_view value) {
        if (in_order) {
          in_order = std::string_view(last_key) <= key;
          last_key.assign(key);
        }
        const size_t at = out.size();
        out.resize(at + kvFrameSize(key.size(), value.size()));
        writeKvFrame(out.data() + at, key, value);
        ++written;
      },
      std::move(heap), fs);
  const auto combiner = spec.combiner();
  combiner->setup(ctx);
  while (groups.nextGroup()) {
    combiner->reduce(groups.key(), groups.values(), ctx);
  }
  combiner->cleanup(ctx);
  if (!in_order) {
    std::vector<KeyValue> records =
        decodeKvRun(std::string_view(out).substr(begin));
    out.resize(begin);
    writeSortedRecords(records, out);
  }
  return written;
}

// ------------------------------------------------------ IncrementalMerger

IncrementalMerger::~IncrementalMerger() {
  // A release never throws (Options::heap).
  if (opts_.heap && held_bytes_ != 0) opts_.heap(-held_bytes_);
}

int64_t IncrementalMerger::bytesOf(const Item& item) {
  std::vector<const Bytes*> seen;
  int64_t bytes = 0;
  for (const BufferView& run : item.runs) {
    const Bytes* backing = run.buffer().shared().get();
    if (std::find(seen.begin(), seen.end(), backing) != seen.end()) continue;
    seen.push_back(backing);
    bytes += static_cast<int64_t>(run.buffer().size());
  }
  return bytes;
}

void IncrementalMerger::setHeld(int64_t bytes) {
  const int64_t delta = bytes - held_bytes_;
  held_bytes_ = bytes;
  if (opts_.heap && delta != 0) opts_.heap(delta);
}

void IncrementalMerger::addSegments(std::vector<uint32_t> maps,
                                    std::vector<BufferView> segments) {
  if (maps.empty()) {
    throw InvalidArgumentError("IncrementalMerger::addSegments: empty cover");
  }
  // Covers are disjoint: a map comes back only after invalidate() dropped
  // whatever held it.
  for (const auto& [key, item] : items_) {
    if (std::any_of(maps.begin(), maps.end(), [&](uint32_t m) {
          return std::binary_search(item.cover.begin(), item.cover.end(), m);
        })) {
      throw InvalidArgumentError(
          "IncrementalMerger::addSegments: cover intersects a held item "
          "(invalidate first)");
    }
  }
  const uint32_t key = maps.front();
  Item& item = items_[key] =
      Item{std::move(maps), std::move(segments), /*segment=*/false};
  setHeld(held_bytes_ + bytesOf(item));
}

bool IncrementalMerger::covers(uint32_t map) const {
  for (const auto& [key, item] : items_) {
    if (std::binary_search(item.cover.begin(), item.cover.end(), map)) {
      return true;
    }
  }
  return false;
}

std::vector<uint32_t> IncrementalMerger::invalidate(uint32_t map) {
  for (auto it = items_.begin(); it != items_.end(); ++it) {
    const Item& item = it->second;
    if (!std::binary_search(item.cover.begin(), item.cover.end(), map)) {
      continue;
    }
    std::vector<uint32_t> collateral;
    collateral.reserve(item.cover.size() - 1);
    for (const uint32_t m : item.cover) {
      if (m != map) collateral.push_back(m);
    }
    const int64_t bytes = bytesOf(item);
    items_.erase(it);
    setHeld(held_bytes_ - bytes);
    return collateral;
  }
  return {};
}

bool IncrementalMerger::foldOnce() {
  if (opts_.fold_fanin < 2) return false;
  // Collect maximal foldable chains of pending runs, in canonical order.
  std::vector<std::vector<const Item*>> chains;
  std::vector<const Item*> chain;
  const Item* prev = nullptr;
  const auto flush = [&] {
    if (chain.size() >= opts_.fold_fanin) chains.push_back(chain);
    chain.clear();
  };
  for (const auto& [key, item] : items_) {
    // The chain must stay a gap-free map-index range — a hole could still
    // be filled by a later-arriving run that canonically sorts inside the
    // block, which would break merge-order identity. So a folded segment
    // ends the chain, and so does a cover with a hole of its own (an
    // in-node host's maps), which never folds.
    const bool foldable =
        !item.segment &&
        item.cover.back() - item.cover.front() + 1 == item.cover.size();
    if (!foldable ||
        (prev != nullptr && item.cover.front() != prev->cover.back() + 1)) {
      flush();
    }
    prev = foldable ? &item : nullptr;
    if (foldable) chain.push_back(&item);
  }
  flush();
  if (chains.empty()) return false;

  struct Folded {
    std::vector<uint32_t> cover;
    Bytes data;
  };
  std::vector<Folded> folded;
  folded.reserve(chains.size());
  for (const auto& block : chains) {
    Folded f;
    for (const Item* item : block) {
      f.cover.insert(f.cover.end(), item->cover.begin(), item->cover.end());
    }
    std::sort(f.cover.begin(), f.cover.end());
    f.data = foldBlock(block);
    folded.push_back(std::move(f));
  }
  int64_t held = held_bytes_;
  for (const auto& block : chains) {
    for (const Item* item : block) {
      held -= bytesOf(*item);
      items_.erase(item->cover.front());
    }
  }
  for (Folded& f : folded) {
    const uint32_t key = f.cover.front();
    held += static_cast<int64_t>(f.data.size());
    items_[key] = Item{std::move(f.cover),
                       {BufferView(Buffer::fromString(std::move(f.data)))},
                       /*segment=*/true};
  }
  setHeld(held);
  return true;
}

Bytes IncrementalMerger::foldBlock(
    const std::vector<const Item*>& block) const {
  std::vector<std::string_view> runs;
  int64_t bytes = 0;
  for (const Item* item : block) {
    for (const BufferView& run : item->runs) {
      runs.push_back(run);
      bytes += static_cast<int64_t>(run.size());
    }
  }
  KvRunMerger merger(runs);
  Bytes out;
  out.reserve(static_cast<size_t>(bytes));
  while (const auto frame = merger.nextFrame()) out.append(*frame);
  return out;
}

std::vector<BufferView> IncrementalMerger::assemble() const {
  std::vector<BufferView> out;
  for (const auto& [key, item] : items_) {
    out.insert(out.end(), item.runs.begin(), item.runs.end());
  }
  return out;
}

size_t IncrementalMerger::pendingRuns() const {
  size_t n = 0;
  for (const auto& [key, item] : items_) {
    if (!item.segment) ++n;
  }
  return n;
}

size_t IncrementalMerger::segmentCount() const {
  return items_.size() - pendingRuns();
}

}  // namespace mh::mr
