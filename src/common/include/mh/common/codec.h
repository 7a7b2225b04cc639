#pragma once

#include <cstdint>
#include <string_view>

#include "mh/common/buffer.h"
#include "mh/common/bytes.h"
#include "mh/common/metrics.h"
#include "mh/common/trace.h"

/// \file codec.h
/// The pluggable compression layer: dependency-free codecs plus the framed
/// stream container shared by both seams (HDFS blocks at rest, map output
/// segments, which ship to reducers as stored).
///
/// Stream layout:
///
///     +------+------+=================================+
///     | MHC1 | codec|  frame  |  frame  | ... | frame |
///     | (4B) | (1B) |                                 |
///     +------+------+=================================+
///
///     frame := varint raw_len      uncompressed bytes in this frame
///              u8     method       0 = stored raw, 1 = codec-compressed
///              varint payload_len  bytes of payload that follow
///              u32    crc32c       of the RAW (decoded) frame bytes
///              payload
///
/// Each frame holds at most 64 KiB of raw input and decodes independently,
/// so a range read touches only the frames covering the range. The CRC is
/// over the raw bytes: a frame that decompresses structurally but to the
/// wrong bytes is caught, and the error is a ChecksumError — the same shape
/// a chunk-checksum mismatch produces, so upstream replica sweeps treat the
/// two identically. Structural damage (truncation, impossible token,
/// out-of-window offset) throws InvalidArgumentError instead. A frame whose
/// compressed form would not shrink is stored raw (method 0), so the worst
/// case expansion is the per-frame header.
///
/// Decoded output always lands in a fresh `mh::Buffer`; consumers keep
/// zero-copy views of that buffer, never of the encoded stream.

namespace mh {

/// Wire identifiers — stable, they appear in stored streams and meta files.
enum class CodecKind : uint8_t {
  kNone = 0,   ///< identity; never appears in a framed stream
  kMhLz = 1,   ///< byte-oriented LZ77, greedy hash-chain match, 64 KiB window
  kVarRle = 2  ///< varint-token run-length encoding
};

/// Config value <-> kind ("none", "mh-lz", "var-rle"); throws
/// InvalidArgumentError on an unknown name or id.
CodecKind codecFromName(std::string_view name);
std::string_view codecName(CodecKind kind);
CodecKind codecFromId(uint8_t id);

/// Raw bytes per frame. Also the LZ match window: offsets are 16-bit.
inline constexpr size_t kCodecFrameRawBytes = 64 * 1024;

/// Magic (4) + codec id (1).
inline constexpr size_t kCodecHeaderBytes = 5;

/// True when `stream` starts with a well-formed codec header. Raw data can
/// collide with the magic only by starting with the literal bytes "MHC1" —
/// callers that accept both shapes should gate on configuration first.
bool isEncodedStream(std::string_view stream);

/// Cheap structural summary of an encoded stream: walks the frame headers
/// (no decompression, no CRC work). Throws InvalidArgumentError when the
/// stream is not framed or a frame header is torn.
struct EncodedStreamInfo {
  CodecKind codec = CodecKind::kNone;
  uint64_t raw_size = 0;
  size_t frame_count = 0;
};
EncodedStreamInfo encodedStreamInfo(std::string_view stream);

/// Encodes `raw` into a framed stream. `kNone` is rejected (the caller's
/// seam should skip encoding entirely). When `metrics` is non-null the
/// elapsed time lands in the `codec.<name>` child's `encode.micros`
/// histogram; when `trace` is enabled a COMPRESS span is emitted under
/// `component`.
Bytes codecEncode(CodecKind kind, std::string_view raw,
                  MetricsRegistry* metrics = nullptr,
                  TraceCollector* trace = nullptr,
                  std::string_view component = "codec");

/// Decodes a whole framed stream into a fresh Buffer. Self-describing: the
/// codec comes from the stream header. Throws InvalidArgumentError on
/// structural damage, ChecksumError on a frame-CRC mismatch.
Buffer codecDecode(std::string_view stream, MetricsRegistry* metrics = nullptr,
                   TraceCollector* trace = nullptr,
                   std::string_view component = "codec");

/// Decodes only the frames covering [offset, offset+len) of the raw bytes
/// and returns a view positioned over exactly that range (len clamps to the
/// raw end; an offset past the end throws InvalidArgumentError — mirroring
/// BlockStore::readBlockRange). Frames before the range are skipped without
/// decompression.
BufferView codecDecodeRange(std::string_view stream, uint64_t offset,
                            uint64_t len, MetricsRegistry* metrics = nullptr,
                            TraceCollector* trace = nullptr,
                            std::string_view component = "codec");

}  // namespace mh
