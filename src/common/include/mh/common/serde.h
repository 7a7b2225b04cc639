#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "mh/common/bytes.h"

/// \file serde.h
/// Typed serialization trait used by the MapReduce API.
///
/// `Serde<T>` plays the role of Hadoop's `Writable`: the engine moves opaque
/// byte strings, and typed mappers/reducers (de)serialize through this trait.
/// Implementing a Serde specialization for a user struct is exactly the
/// "customized Hadoop Value class" exercise from the course's assignment 1.
///
/// Contract: `encode` appends a self-delimiting representation via the
/// ByteWriter; `decode` consumes exactly what `encode` wrote.

namespace mh {

template <typename T>
struct Serde;  // primary template: intentionally undefined

template <>
struct Serde<int64_t> {
  static void encode(ByteWriter& w, int64_t v) { w.writeVarI64(v); }
  static int64_t decode(ByteReader& r) { return r.readVarI64(); }
};

template <>
struct Serde<int32_t> {
  static void encode(ByteWriter& w, int32_t v) { w.writeVarI64(v); }
  static int32_t decode(ByteReader& r) {
    return static_cast<int32_t>(r.readVarI64());
  }
};

template <>
struct Serde<uint64_t> {
  static void encode(ByteWriter& w, uint64_t v) { w.writeVarU64(v); }
  static uint64_t decode(ByteReader& r) { return r.readVarU64(); }
};

template <>
struct Serde<uint32_t> {
  static void encode(ByteWriter& w, uint32_t v) { w.writeVarU64(v); }
  static uint32_t decode(ByteReader& r) {
    return static_cast<uint32_t>(r.readVarU64());
  }
};

template <>
struct Serde<uint16_t> {
  static void encode(ByteWriter& w, uint16_t v) { w.writeVarU64(v); }
  static uint16_t decode(ByteReader& r) {
    return static_cast<uint16_t>(r.readVarU64());
  }
};

template <>
struct Serde<double> {
  static void encode(ByteWriter& w, double v) { w.writeDouble(v); }
  static double decode(ByteReader& r) { return r.readDouble(); }
};

template <>
struct Serde<bool> {
  static void encode(ByteWriter& w, bool v) { w.writeBool(v); }
  static bool decode(ByteReader& r) { return r.readBool(); }
};

template <>
struct Serde<std::string> {
  static void encode(ByteWriter& w, const std::string& v) { w.writeBytes(v); }
  static std::string decode(ByteReader& r) { return r.readString(); }
};

/// Wire-compatible with Serde<std::string>. Decoding yields a view into the
/// reader's buffer — the zero-copy unpack for bulk payloads (block data,
/// shuffle runs); the caller must keep that buffer alive while the view is
/// in use.
template <>
struct Serde<std::string_view> {
  static void encode(ByteWriter& w, std::string_view v) { w.writeBytes(v); }
  static std::string_view decode(ByteReader& r) { return r.readBytes(); }
};

template <typename A, typename B>
struct Serde<std::pair<A, B>> {
  static void encode(ByteWriter& w, const std::pair<A, B>& v) {
    Serde<A>::encode(w, v.first);
    Serde<B>::encode(w, v.second);
  }
  static std::pair<A, B> decode(ByteReader& r) {
    A a = Serde<A>::decode(r);
    B b = Serde<B>::decode(r);
    return {std::move(a), std::move(b)};
  }
};

template <typename... Ts>
struct Serde<std::tuple<Ts...>> {
  static void encode(ByteWriter& w, const std::tuple<Ts...>& v) {
    std::apply([&w](const Ts&... parts) { (Serde<Ts>::encode(w, parts), ...); },
               v);
  }
  static std::tuple<Ts...> decode(ByteReader& r) {
    // Braced init guarantees left-to-right evaluation.
    return std::tuple<Ts...>{Serde<Ts>::decode(r)...};
  }
};

template <typename T>
struct Serde<std::vector<T>> {
  static void encode(ByteWriter& w, const std::vector<T>& v) {
    w.writeVarU64(v.size());
    for (const auto& item : v) Serde<T>::encode(w, item);
  }
  static std::vector<T> decode(ByteReader& r) {
    const uint64_t n = r.readVarU64();
    std::vector<T> v;
    v.reserve(n);
    for (uint64_t i = 0; i < n; ++i) v.push_back(Serde<T>::decode(r));
    return v;
  }
};

/// Serializes a value to a standalone buffer.
template <typename T>
Bytes serialize(const T& value) {
  Bytes out;
  ByteWriter w(out);
  Serde<T>::encode(w, value);
  return out;
}

/// Deserializes a value from a standalone buffer; trailing bytes are an error.
template <typename T>
T deserialize(std::string_view buf) {
  ByteReader r(buf);
  T value = Serde<T>::decode(r);
  if (!r.atEnd()) {
    throw InvalidArgumentError("trailing bytes after deserialize");
  }
  return value;
}

/// Deserializes a value from a reader positioned at its encoding.
template <typename T>
T deserializeFrom(ByteReader& r) {
  return Serde<T>::decode(r);
}

/// Appends the encoding of several values to `out`. A caller that reserves
/// the message's size first gets a buffer with no growth slack.
template <typename... Ts>
void packInto(Bytes& out, const Ts&... values) {
  ByteWriter w(out);
  (Serde<std::decay_t<Ts>>::encode(w, values), ...);
}

/// Packs several values into one buffer — RPC argument marshalling.
template <typename... Ts>
Bytes pack(const Ts&... values) {
  Bytes out;
  packInto(out, values...);
  return out;
}

/// Unpacks values previously written by pack() with the same type list.
/// Trailing bytes are an error.
template <typename... Ts>
std::tuple<Ts...> unpack(std::string_view buf) {
  ByteReader r(buf);
  // Braced init guarantees left-to-right evaluation of the decodes.
  std::tuple<Ts...> out{Serde<Ts>::decode(r)...};
  if (!r.atEnd()) throw InvalidArgumentError("trailing bytes after unpack");
  return out;
}

}  // namespace mh
