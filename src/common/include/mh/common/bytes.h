#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "mh/common/error.h"

/// \file bytes.h
/// Binary encoding primitives: the wire format used for HDFS block metadata,
/// MapReduce intermediate key/value records, and RPC payloads.
///
/// The format is deliberately simple and Hadoop-Writable-flavoured:
/// fixed-width big-endian integers, LEB128 varints with zig-zag for signed
/// values, and length-prefixed byte strings.

namespace mh {

/// Owned binary buffer. A plain std::string keeps the API familiar and
/// allocation-friendly; contents are binary-safe.
using Bytes = std::string;

/// Appends encodings to a Bytes buffer.
class ByteWriter {
 public:
  /// Writes into an external buffer owned by the caller.
  explicit ByteWriter(Bytes& out) : out_(out) {}

  void writeU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }

  void writeU32(uint32_t v) {
    char buf[4];
    buf[0] = static_cast<char>(v >> 24);
    buf[1] = static_cast<char>(v >> 16);
    buf[2] = static_cast<char>(v >> 8);
    buf[3] = static_cast<char>(v);
    out_.append(buf, 4);
  }

  void writeU64(uint64_t v) {
    writeU32(static_cast<uint32_t>(v >> 32));
    writeU32(static_cast<uint32_t>(v));
  }

  void writeI32(int32_t v) { writeU32(static_cast<uint32_t>(v)); }
  void writeI64(int64_t v) { writeU64(static_cast<uint64_t>(v)); }

  void writeDouble(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    writeU64(bits);
  }

  void writeBool(bool v) { writeU8(v ? 1 : 0); }

  /// Unsigned LEB128.
  void writeVarU64(uint64_t v) {
    while (v >= 0x80) {
      writeU8(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    writeU8(static_cast<uint8_t>(v));
  }

  /// Zig-zag + LEB128 for signed values.
  void writeVarI64(int64_t v) {
    writeVarU64((static_cast<uint64_t>(v) << 1) ^
                static_cast<uint64_t>(v >> 63));
  }

  /// Varint length prefix followed by raw bytes.
  void writeBytes(std::string_view v) {
    writeVarU64(v.size());
    out_.append(v.data(), v.size());
  }

  /// Raw bytes with no prefix (caller manages framing).
  void writeRaw(std::string_view v) { out_.append(v.data(), v.size()); }

 private:
  Bytes& out_;
};

/// Consumes encodings from a buffer; throws InvalidArgumentError on
/// truncated or malformed input.
class ByteReader {
 public:
  explicit ByteReader(std::string_view in) : in_(in) {}

  bool atEnd() const { return pos_ == in_.size(); }
  size_t remaining() const { return in_.size() - pos_; }
  size_t position() const { return pos_; }

  uint8_t readU8() {
    need(1);
    return static_cast<uint8_t>(in_[pos_++]);
  }

  uint32_t readU32() {
    need(4);
    uint32_t v = (static_cast<uint32_t>(static_cast<uint8_t>(in_[pos_])) << 24) |
                 (static_cast<uint32_t>(static_cast<uint8_t>(in_[pos_ + 1])) << 16) |
                 (static_cast<uint32_t>(static_cast<uint8_t>(in_[pos_ + 2])) << 8) |
                 static_cast<uint32_t>(static_cast<uint8_t>(in_[pos_ + 3]));
    pos_ += 4;
    return v;
  }

  uint64_t readU64() {
    const uint64_t hi = readU32();
    return (hi << 32) | readU32();
  }

  int32_t readI32() { return static_cast<int32_t>(readU32()); }
  int64_t readI64() { return static_cast<int64_t>(readU64()); }

  double readDouble() {
    const uint64_t bits = readU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  bool readBool() { return readU8() != 0; }

  uint64_t readVarU64() {
    // One-byte varints (values below 128) are the common case.
    if (pos_ < in_.size() && static_cast<uint8_t>(in_[pos_]) < 0x80) {
      return static_cast<uint8_t>(in_[pos_++]);
    }
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (shift > 63) throw InvalidArgumentError("varint too long");
      const uint8_t b = readU8();
      v |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }

  int64_t readVarI64() {
    const uint64_t z = readVarU64();
    return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  std::string_view readBytes() {
    const uint64_t n = readVarU64();
    need(n);
    std::string_view v = in_.substr(pos_, n);
    pos_ += n;
    return v;
  }

  std::string readString() { return std::string(readBytes()); }

  std::string_view readRaw(size_t n) {
    need(n);
    std::string_view v = in_.substr(pos_, n);
    pos_ += n;
    return v;
  }

 private:
  void need(uint64_t n) const {
    if (remaining() < n) {
      throw InvalidArgumentError("truncated buffer: need " + std::to_string(n) +
                                 " bytes, have " + std::to_string(remaining()));
    }
  }

  std::string_view in_;
  size_t pos_ = 0;
};

}  // namespace mh
