#include "mh/common/codec.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "mh/common/crc32.h"
#include "mh/common/error.h"
#include "mh/common/stopwatch.h"

namespace mh {

namespace {

constexpr char kMagic[4] = {'M', 'H', 'C', '1'};

/// Frame payload method bytes.
constexpr uint8_t kMethodStored = 0;      ///< payload IS the raw bytes
constexpr uint8_t kMethodCompressed = 1;  ///< payload is codec-compressed

// --------------------------------------------------------------- mh-lz
//
// LZ4-flavoured byte stream: a sequence of (token, literals, match) units.
// token = (lit_len << 4) | (match_len - 4); a nibble of 15 spills into
// 255-continuation extension bytes. Matches reference back up to 65535
// bytes inside the same frame via a 2-byte little-endian offset. The final
// unit carries literals only (its match nibble is 0 and no offset follows).

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
constexpr int kHashBits = 14;
constexpr int kMaxChain = 32;

uint32_t read32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t hash4(uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

void writeLzLen(Bytes& out, size_t len) {
  // Extension bytes after a nibble of 15: 255-continuations, then the
  // remainder (which may be 0).
  while (len >= 255) {
    out.push_back(static_cast<char>(0xFF));
    len -= 255;
  }
  out.push_back(static_cast<char>(len));
}

void mhLzCompress(std::string_view raw, Bytes& out) {
  const size_t n = raw.size();
  const char* const base = raw.data();
  std::vector<int32_t> head(size_t{1} << kHashBits, -1);
  std::vector<int32_t> prev(n, -1);

  size_t anchor = 0;  // first literal not yet emitted
  size_t i = 0;
  const size_t match_limit = n >= kMinMatch ? n - kMinMatch + 1 : 0;
  while (i < match_limit) {
    // Walk the hash chain for the best match at i (greedy).
    const uint32_t h = hash4(read32(base + i));
    size_t best_len = 0;
    size_t best_pos = 0;
    int32_t cand = head[h];
    for (int depth = 0; cand >= 0 && depth < kMaxChain;
         cand = prev[static_cast<size_t>(cand)], ++depth) {
      const size_t c = static_cast<size_t>(cand);
      if (i - c > kMaxOffset) break;  // chain only grows older
      if (read32(base + c) != read32(base + i)) continue;
      size_t len = kMinMatch;
      const size_t max_len = n - i;
      while (len < max_len && base[c + len] == base[i + len]) ++len;
      if (len > best_len) {
        best_len = len;
        best_pos = c;
      }
    }

    if (best_len >= kMinMatch) {
      const size_t lit_len = i - anchor;
      const size_t match_code = best_len - kMinMatch;
      out.push_back(static_cast<char>(
          (std::min<size_t>(lit_len, 15) << 4) |
          std::min<size_t>(match_code, 15)));
      if (lit_len >= 15) writeLzLen(out, lit_len - 15);
      out.append(base + anchor, lit_len);
      const size_t offset = i - best_pos;
      out.push_back(static_cast<char>(offset & 0xFF));
      out.push_back(static_cast<char>((offset >> 8) & 0xFF));
      if (match_code >= 15) writeLzLen(out, match_code - 15);

      // Insert the covered positions into the chains so later matches can
      // reference inside this one.
      const size_t match_end = i + best_len;
      for (size_t p = i, e = std::min(match_end, match_limit); p < e; ++p) {
        const uint32_t ih = hash4(read32(base + p));
        prev[p] = head[ih];
        head[ih] = static_cast<int32_t>(p);
      }
      i = match_end;
      anchor = match_end;
    } else {
      prev[i] = head[h];
      head[h] = static_cast<int32_t>(i);
      ++i;
    }
  }

  // Final literals-only unit (always emitted, even for an empty tail, so
  // the decoder unambiguously consumes the whole payload).
  const size_t lit_len = n - anchor;
  out.push_back(static_cast<char>(std::min<size_t>(lit_len, 15) << 4));
  if (lit_len >= 15) writeLzLen(out, lit_len - 15);
  out.append(base + anchor, lit_len);
}

void mhLzDecompress(std::string_view payload, size_t raw_len, Bytes& out) {
  // The frame header already told us the exact raw length, so decode into a
  // pre-sized region through raw pointers. 8 bytes of slack let match
  // copies run in full 8-byte strides past their true end (the classic LZ4
  // wild copy) — the slack is trimmed before the caller sees the bytes.
  const size_t start = out.size();
  out.resize(start + raw_len + 8);
  char* const base = out.data() + start;
  size_t op = 0;

  const char* ip = payload.data();
  const char* const ip_end = ip + payload.size();
  const auto need = [&](size_t n) {
    if (static_cast<size_t>(ip_end - ip) < n) {
      throw InvalidArgumentError("mh-lz frame payload truncated");
    }
  };
  const auto readExt = [&](size_t len) {
    uint8_t b;
    do {
      need(1);
      b = static_cast<uint8_t>(*ip++);
      len += b;
    } while (b == 0xFF);
    return len;
  };

  while (true) {
    need(1);
    const uint8_t token = static_cast<uint8_t>(*ip++);
    size_t lit_len = token >> 4;
    if (lit_len == 15) lit_len = readExt(15);
    if (lit_len > 0) {
      need(lit_len);
      if (op + lit_len > raw_len) {
        throw InvalidArgumentError("mh-lz frame decodes past its raw length");
      }
      std::memcpy(base + op, ip, lit_len);
      ip += lit_len;
      op += lit_len;
    }
    if (ip == ip_end) break;  // final unit: literals only

    need(2);
    const size_t offset = static_cast<size_t>(static_cast<uint8_t>(ip[0])) |
                          (static_cast<size_t>(static_cast<uint8_t>(ip[1]))
                           << 8);
    ip += 2;
    if (offset == 0 || offset > op) {
      throw InvalidArgumentError("mh-lz match offset outside window");
    }
    size_t match_len = (token & 0x0F) + kMinMatch;
    if ((token & 0x0F) == 15) match_len = readExt(15) + kMinMatch;
    if (op + match_len > raw_len) {
      throw InvalidArgumentError("mh-lz frame decodes past its raw length");
    }
    const char* src = base + op - offset;
    char* dst = base + op;
    if (offset == 1) {
      std::memset(dst, static_cast<unsigned char>(*src), match_len);
    } else if (offset >= 8) {
      // Bounded above: copies at most match_len+7 bytes, which the slack
      // absorbs; offset >= 8 keeps each stride's source fully written.
      size_t k = 0;
      do {
        std::memcpy(dst + k, src + k, 8);
        k += 8;
      } while (k < match_len);
    } else {
      // Short overlapping offsets (2..7) replicate byte-wise.
      for (size_t k = 0; k < match_len; ++k) dst[k] = src[k];
    }
    op += match_len;
  }
  if (op != raw_len) {
    throw InvalidArgumentError("mh-lz frame decodes short of its raw length");
  }
  out.resize(start + raw_len);  // trim the wild-copy slack
}

// -------------------------------------------------------------- var-rle
//
// Token stream: varint (len << 1 | is_run). A run token is followed by the
// one repeated byte; a literal token by `len` verbatim bytes. Runs are
// emitted for >= 4 equal bytes.

constexpr size_t kMinRun = 4;

void varRleCompress(std::string_view raw, Bytes& out) {
  ByteWriter w(out);
  size_t i = 0;
  size_t lit_start = 0;
  const size_t n = raw.size();
  while (i < n) {
    size_t j = i + 1;
    while (j < n && raw[j] == raw[i]) ++j;
    const size_t run = j - i;
    if (run >= kMinRun) {
      if (i > lit_start) {
        w.writeVarU64((i - lit_start) << 1);
        w.writeRaw(raw.substr(lit_start, i - lit_start));
      }
      w.writeVarU64((run << 1) | 1);
      w.writeU8(static_cast<uint8_t>(raw[i]));
      lit_start = j;
    }
    i = j;
  }
  if (n > lit_start) {
    w.writeVarU64((n - lit_start) << 1);
    w.writeRaw(raw.substr(lit_start));
  }
}

void varRleDecompress(std::string_view payload, size_t raw_len, Bytes& out) {
  const size_t start = out.size();
  ByteReader r(payload);
  while (!r.atEnd()) {
    const uint64_t token = r.readVarU64();
    const size_t len = static_cast<size_t>(token >> 1);
    if (out.size() - start + len > raw_len) {
      throw InvalidArgumentError("var-rle frame decodes past its raw length");
    }
    if (token & 1) {
      const char b = static_cast<char>(r.readU8());
      out.append(len, b);
    } else {
      const std::string_view lits = r.readRaw(len);
      out.append(lits.data(), lits.size());
    }
  }
  if (out.size() - start != raw_len) {
    throw InvalidArgumentError("var-rle frame decodes short of its raw length");
  }
}

void compressChunk(CodecKind kind, std::string_view chunk, Bytes& scratch) {
  scratch.clear();
  switch (kind) {
    case CodecKind::kMhLz:
      mhLzCompress(chunk, scratch);
      break;
    case CodecKind::kVarRle:
      varRleCompress(chunk, scratch);
      break;
    case CodecKind::kNone:
      throw InvalidArgumentError("codec 'none' cannot encode");
  }
}

void decompressChunk(CodecKind kind, std::string_view payload, size_t raw_len,
                     Bytes& out) {
  switch (kind) {
    case CodecKind::kMhLz:
      mhLzDecompress(payload, raw_len, out);
      break;
    case CodecKind::kVarRle:
      varRleDecompress(payload, raw_len, out);
      break;
    case CodecKind::kNone:
      throw InvalidArgumentError("codec 'none' cannot decode a frame");
  }
}

/// Parses and validates the 5-byte stream header; returns the codec.
CodecKind readHeader(ByteReader& r) {
  const std::string_view magic = r.readRaw(4);
  if (std::memcmp(magic.data(), kMagic, 4) != 0) {
    throw InvalidArgumentError("not a codec stream (bad magic)");
  }
  return codecFromId(r.readU8());
}

struct FrameHeader {
  uint64_t raw_len = 0;
  uint8_t method = 0;
  uint64_t payload_len = 0;
  uint32_t crc = 0;
};

FrameHeader readFrameHeader(ByteReader& r) {
  FrameHeader f;
  f.raw_len = r.readVarU64();
  f.method = r.readU8();
  if (f.method != kMethodStored && f.method != kMethodCompressed) {
    throw InvalidArgumentError("codec frame: unknown method " +
                               std::to_string(f.method));
  }
  f.payload_len = r.readVarU64();
  f.crc = r.readU32();
  if (f.method == kMethodStored && f.payload_len != f.raw_len) {
    throw InvalidArgumentError("codec frame: stored payload length mismatch");
  }
  if (f.raw_len > kCodecFrameRawBytes) {
    throw InvalidArgumentError("codec frame: raw length exceeds frame limit");
  }
  return f;
}

/// Decodes one frame's raw bytes onto `out`, verifying the frame CRC.
void decodeFrame(CodecKind kind, const FrameHeader& f, std::string_view payload,
                 size_t frame_index, Bytes& out) {
  const size_t start = out.size();
  if (f.method == kMethodStored) {
    out.append(payload.data(), payload.size());
  } else {
    decompressChunk(kind, payload, static_cast<size_t>(f.raw_len), out);
  }
  const std::string_view raw(out.data() + start, out.size() - start);
  if (crc32c(raw) != f.crc) {
    throw ChecksumError("codec frame " + std::to_string(frame_index) +
                        " crc mismatch");
  }
}

void recordCodec(MetricsRegistry* metrics, CodecKind kind, const char* which,
                 int64_t micros) {
  if (metrics == nullptr) return;
  metrics->child(std::string("codec.") + std::string(codecName(kind)))
      .histogram(which)
      .record(micros);
}

}  // namespace

CodecKind codecFromName(std::string_view name) {
  if (name == "none" || name.empty()) return CodecKind::kNone;
  if (name == "mh-lz") return CodecKind::kMhLz;
  if (name == "var-rle") return CodecKind::kVarRle;
  throw InvalidArgumentError("unknown codec '" + std::string(name) + "'");
}

std::string_view codecName(CodecKind kind) {
  switch (kind) {
    case CodecKind::kNone:
      return "none";
    case CodecKind::kMhLz:
      return "mh-lz";
    case CodecKind::kVarRle:
      return "var-rle";
  }
  throw InvalidArgumentError("unknown codec kind");
}

CodecKind codecFromId(uint8_t id) {
  switch (id) {
    case 1:
      return CodecKind::kMhLz;
    case 2:
      return CodecKind::kVarRle;
    default:
      throw InvalidArgumentError("unknown codec id " + std::to_string(id));
  }
}

bool isEncodedStream(std::string_view stream) {
  if (stream.size() < kCodecHeaderBytes) return false;
  if (std::memcmp(stream.data(), kMagic, 4) != 0) return false;
  const uint8_t id = static_cast<uint8_t>(stream[4]);
  return id == 1 || id == 2;
}

EncodedStreamInfo encodedStreamInfo(std::string_view stream) {
  ByteReader r(stream);
  EncodedStreamInfo info;
  info.codec = readHeader(r);
  while (!r.atEnd()) {
    const FrameHeader f = readFrameHeader(r);
    r.readRaw(static_cast<size_t>(f.payload_len));  // throws when torn
    info.raw_size += f.raw_len;
    ++info.frame_count;
  }
  return info;
}

Bytes codecEncode(CodecKind kind, std::string_view raw,
                  MetricsRegistry* metrics, TraceCollector* trace,
                  std::string_view component) {
  if (kind == CodecKind::kNone) {
    throw InvalidArgumentError("codecEncode called with codec 'none'");
  }
  Stopwatch watch;
  TraceSpan span(trace != nullptr && trace->enabled() ? trace : nullptr,
                 component, "COMPRESS");

  Bytes out;
  out.reserve(raw.size() / 2 + kCodecHeaderBytes + 16);
  out.append(kMagic, 4);
  out.push_back(static_cast<char>(kind));

  Bytes scratch;
  ByteWriter w(out);
  for (size_t off = 0; off < raw.size(); off += kCodecFrameRawBytes) {
    const std::string_view chunk = raw.substr(off, kCodecFrameRawBytes);
    compressChunk(kind, chunk, scratch);
    w.writeVarU64(chunk.size());
    // A chunk the codec cannot shrink is stored raw — worst case the stream
    // grows only by the per-frame header.
    const bool stored = scratch.size() >= chunk.size();
    w.writeU8(stored ? kMethodStored : kMethodCompressed);
    w.writeVarU64(stored ? chunk.size() : scratch.size());
    w.writeU32(crc32c(chunk));
    w.writeRaw(stored ? chunk : std::string_view(scratch));
  }

  recordCodec(metrics, kind, "encode.micros", watch.elapsedMicros());
  if (span.active()) {
    span.arg("codec", codecName(kind));
    span.arg("raw_bytes", std::to_string(raw.size()));
    span.arg("encoded_bytes", std::to_string(out.size()));
  }
  return out;
}

Buffer codecDecode(std::string_view stream, MetricsRegistry* metrics,
                   TraceCollector* trace, std::string_view component) {
  Stopwatch watch;
  TraceSpan span(trace != nullptr && trace->enabled() ? trace : nullptr,
                 component, "DECOMPRESS");
  ByteReader r(stream);
  const CodecKind kind = readHeader(r);

  Bytes out;
  size_t frame_index = 0;
  while (!r.atEnd()) {
    const FrameHeader f = readFrameHeader(r);
    const std::string_view payload =
        r.readRaw(static_cast<size_t>(f.payload_len));
    decodeFrame(kind, f, payload, frame_index++, out);
  }

  recordCodec(metrics, kind, "decode.micros", watch.elapsedMicros());
  if (span.active()) {
    span.arg("codec", codecName(kind));
    span.arg("raw_bytes", std::to_string(out.size()));
    span.arg("encoded_bytes", std::to_string(stream.size()));
  }
  return Buffer::fromString(std::move(out));
}

BufferView codecDecodeRange(std::string_view stream, uint64_t offset,
                            uint64_t len, MetricsRegistry* metrics,
                            TraceCollector* trace,
                            std::string_view component) {
  Stopwatch watch;
  TraceSpan span(trace != nullptr && trace->enabled() ? trace : nullptr,
                 component, "DECOMPRESS");
  ByteReader r(stream);
  const CodecKind kind = readHeader(r);

  // Frames decode independently: skip whole frames before the range without
  // decompressing them, stop once the range is covered.
  Bytes out;
  uint64_t raw_pos = 0;       // raw offset of the next frame
  uint64_t range_start = 0;   // raw offset of out's first byte
  bool started = false;
  size_t frame_index = 0;
  const uint64_t range_end =
      len > std::numeric_limits<uint64_t>::max() - offset
          ? std::numeric_limits<uint64_t>::max()
          : offset + len;
  while (!r.atEnd() && raw_pos < range_end) {
    const FrameHeader f = readFrameHeader(r);
    const std::string_view payload =
        r.readRaw(static_cast<size_t>(f.payload_len));
    const uint64_t frame_end = raw_pos + f.raw_len;
    if (frame_end > offset) {
      if (!started) {
        range_start = raw_pos;
        started = true;
      }
      decodeFrame(kind, f, payload, frame_index, out);
    }
    raw_pos = frame_end;
    ++frame_index;
  }

  recordCodec(metrics, kind, "decode.micros", watch.elapsedMicros());
  if (span.active()) {
    span.arg("codec", codecName(kind));
    span.arg("raw_bytes", std::to_string(out.size()));
  }

  if (!started) {
    // Frames are contiguous, so nothing overlapped the range: either the
    // range is empty inside the stream, or it starts past the raw end (the
    // loop drained every frame without reaching `offset`).
    if (offset > raw_pos) {
      throw InvalidArgumentError("range start past end of codec stream");
    }
    return BufferView();
  }
  // The first overlapping frame starts at range_start <= offset and ends
  // past it, so the slice below is always in range; len clamps (substr
  // semantics, like readBlockRange).
  const uint64_t have_end = range_start + out.size();
  const size_t inner = static_cast<size_t>(offset - range_start);
  const size_t want = static_cast<size_t>(
      std::min<uint64_t>(len, have_end - offset));
  return BufferView(Buffer::fromString(std::move(out))).slice(inner, want);
}

}  // namespace mh
