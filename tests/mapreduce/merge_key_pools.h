#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "mh/common/rng.h"
#include "mh/mr/kv_stream.h"

/// \file merge_key_pools.h
/// Sorted kv runs drawn from keys that stress a prefix-keyed merge: the
/// empty key, embedded NUL and 0xFF bytes, keys of 7, 8 and 9+ bytes that
/// share one 8-byte prefix (a zero-padded prefix ties "ab" with "ab\0"),
/// and long same-key stretches that a run boundary splits.

namespace mh::mr::testkeys {

inline const std::vector<Bytes>& adversarialKeys() {
  static const std::vector<Bytes> keys = [] {
    using namespace std::string_literals;
    return std::vector<Bytes>{
        // Prefix 0 throughout: only the length tells these apart.
        ""s, "\0"s, "\0\0"s,
        // Zero padding ties a short key's prefix with a longer key's.
        "a"s, "ab"s, "ab\0"s, "ab\0\0\0\0\0\0"s, "ab\0\0\0\0\0\0\0"s,
        // The largest byte, inside and past the prefix.
        "\xFF"s, "\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF"s,
        "\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF"s,
        // Lengths 7, 8 and 9+ around one 8-byte prefix.
        "prefix7"s, "prefix78"s, "prefix789"s, "prefix78\0"s,
        "prefix78\xFF"s, "prefix78\xFF\xFF"s, "prefix78\xFF\0"s,
        "prefix78-a-much-longer-tail"s, "prefix78-a-much-longer-tale"s,
    };
  }();
  return keys;
}

/// `k` runs, each stably key-sorted, with values naming run and position so
/// a merge's order is checkable record by record. Keys are stretches of one
/// pool key (sometimes dozens long) so one key spans runs and run ends.
inline std::vector<Bytes> adversarialRuns(Rng& rng, size_t k) {
  const std::vector<Bytes>& pool = adversarialKeys();
  std::vector<Bytes> runs;
  for (size_t r = 0; r < k; ++r) {
    std::vector<KeyValue> records;
    const size_t stretches = rng.uniform(8);
    for (size_t s = 0; s < stretches; ++s) {
      const Bytes& key = pool[rng.uniform(pool.size())];
      const size_t len = rng.chance(0.25) ? 20 + rng.uniform(60)
                                          : 1 + rng.uniform(3);
      for (size_t i = 0; i < len; ++i) {
        records.push_back({key, "r" + std::to_string(r) + "#" +
                                    std::to_string(records.size())});
      }
    }
    std::stable_sort(
        records.begin(), records.end(),
        [](const KeyValue& a, const KeyValue& b) { return a.key < b.key; });
    runs.push_back(encodeKvRun(records));
  }
  return runs;
}

}  // namespace mh::mr::testkeys
