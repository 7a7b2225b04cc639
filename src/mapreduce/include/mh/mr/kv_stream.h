#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "mh/common/buffer.h"
#include "mh/common/bytes.h"
#include "mh/common/codec.h"
#include "mh/mr/types.h"

/// \file kv_stream.h
/// The intermediate record format: a run of [varint klen][key][varint
/// vlen][value] frames. Map outputs are stored and shuffled in this format;
/// reduce merges decode it back. When the map-output codec is on, each
/// segment is stored and shipped as a framed codec stream (codec.h). The
/// reducer decodes a fetched output once, on arrival (`intakeMapOutput`,
/// task_runner.h); the map-side spill merge and the in-node combine, which
/// merge stored segments where they sit, unwrap them with `DecodedRunSet`.

namespace mh::mr {

/// Big-endian first 8 bytes of the key, zero-padded. Prefix inequality
/// decides byte-lexicographic key order without touching the key bytes;
/// equal prefixes with one key of at most 8 bytes mean that key is a prefix
/// of the other, so the shorter is smaller ("ab" < "ab\0"). Only two keys of
/// 9+ bytes can tie on the prefix and still differ.
inline uint64_t keyPrefix(std::string_view key) {
  uint64_t prefix = 0;
  const size_t n = std::min<size_t>(key.size(), 8);
  for (size_t i = 0; i < n; ++i) {
    prefix |= static_cast<uint64_t>(static_cast<uint8_t>(key[i]))
              << (56 - 8 * i);
  }
  return prefix;
}

/// The byte length of the frame of a `key_len`-byte key and a
/// `value_len`-byte value.
inline size_t kvFrameSize(size_t key_len, size_t value_len) {
  size_t n = key_len + value_len + 2;
  for (size_t v = key_len; v >= 0x80; v >>= 7) ++n;
  for (size_t v = value_len; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Writes the frame of (`key`, `value`) at `p`, which has
/// kvFrameSize(key.size(), value.size()) bytes of room — the bytes KvWriter
/// appends — and returns the byte past it.
inline char* writeKvFrame(char* p, std::string_view key,
                          std::string_view value) {
  for (const std::string_view field : {key, value}) {
    size_t v = field.size();
    for (; v >= 0x80; v >>= 7) *p++ = static_cast<char>((v & 0x7F) | 0x80);
    *p++ = static_cast<char>(v);
    if (!field.empty()) std::memcpy(p, field.data(), field.size());
    p += field.size();
  }
  return p;
}

/// Appends framed records to a buffer.
class KvWriter {
 public:
  explicit KvWriter(Bytes& out) : writer_(out) {}

  void write(std::string_view key, std::string_view value) {
    writer_.writeBytes(key);
    writer_.writeBytes(value);
  }

  void write(const KeyValue& kv) { write(kv.key, kv.value); }

 private:
  ByteWriter writer_;
};

/// Streams framed records back out of a buffer.
class KvReader {
 public:
  explicit KvReader(std::string_view in) : reader_(in) {}

  /// False at end of stream; throws InvalidArgumentError on a torn frame.
  bool next(std::string_view& key, std::string_view& value) {
    if (reader_.atEnd()) return false;
    key = reader_.readBytes();
    value = reader_.readBytes();
    return true;
  }

  /// next(), also returning the record's whole frame: the bytes a copy
  /// into another run appends verbatim.
  bool next(std::string_view& key, std::string_view& value,
            std::string_view& frame) {
    const size_t begin = reader_.position();
    if (!next(key, value)) return false;
    const size_t size = reader_.position() - begin;
    frame = {value.data() + value.size() - size, size};
    return true;
  }

 private:
  ByteReader reader_;
};

/// A map's output for one partition, as it is stored and shipped: its
/// sorted segments back to back, then a table of their byte lengths (one
/// big-endian u64 each, in segment order), then the segment count (u64).
/// The empty buffer holds zero segments. Each segment is a kv_stream run,
/// codec-framed on its own when the map-output codec is on. A map that did
/// not merge its spills ships one segment per spill, in spill order; the
/// reducer merges every segment of every map, and KvRunMerger's run-index
/// tie-break keeps equal keys in (map, spill) order.

/// Appends the table that closes a segmented output whose segments are
/// already in `out`, with the given byte lengths, in order.
void appendSegmentTable(Bytes& out, const std::vector<uint64_t>& lengths);

/// Builds a segmented output from separate segments (copying them); empty
/// segments are left out.
Bytes joinSegments(const std::vector<std::string_view>& segments);

/// The segments of a segmented output, in order, as views into it. Throws
/// InvalidArgumentError when the table does not describe the buffer.
std::vector<std::string_view> splitSegments(std::string_view output);

/// splitSegments over a refcounted buffer: each segment is a slice that
/// shares (and keeps alive) the whole buffer.
std::vector<BufferView> splitSegments(const BufferView& output);

/// Decodes a whole run into materialized records.
std::vector<KeyValue> decodeKvRun(std::string_view run);

/// Encodes records into one run.
Bytes encodeKvRun(const std::vector<KeyValue>& records);

/// Frames `records` into `out` in stable key order, re-sorting them first
/// when they are out of order: combineMerge's fallback for a combiner that
/// emits out of key order. Returns records written.
int64_t writeSortedRecords(std::vector<KeyValue>& records, Bytes& out);

/// Presents a set of possibly codec-compressed kv runs as plain decoded
/// views for a KvRunMerger. Compressed runs (`isEncodedStream`) decode into
/// fresh buffers owned by this set; raw runs pass through as the caller's
/// views. The set, and the caller's raw runs, must outlive the merger
/// consuming `views()`.
///
/// `allow_decode=false` pins every run as raw — the job's map-output codec
/// is off, so bytes that merely resemble a codec header are not misdecoded.
class DecodedRunSet {
 public:
  /// `metrics`/`trace`/`component` meter DECOMPRESS work (all optional).
  DecodedRunSet(std::vector<std::string_view> runs, bool allow_decode,
                MetricsRegistry* metrics = nullptr,
                TraceCollector* trace = nullptr,
                std::string_view component = "kvstream");

  const std::vector<std::string_view>& views() const { return views_; }

  /// Total decoded (logical) bytes across all runs.
  int64_t rawBytes() const { return raw_bytes_; }

 private:
  std::vector<Buffer> decoded_;  ///< buffers the compressed runs decoded to
  std::vector<std::string_view> views_;
  int64_t raw_bytes_ = 0;
};

}  // namespace mh::mr
