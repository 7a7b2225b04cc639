#include "mh/common/crc32.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

namespace mh {

namespace {

// Slice-by-8 CRC-32C, reflected polynomial 0x82F63B78. Table k holds the
// CRC contribution of a byte that is k positions ahead of the current one,
// so eight input bytes fold into the running CRC with eight table lookups
// and no inter-byte dependency chain (~8x the bytewise loop's throughput).
using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr SliceTables makeTables() {
  SliceTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFF] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr SliceTables kTables = makeTables();

// Every kernel works on the running (pre-inverted) CRC register; crc32c()
// does the ~seed / ~result framing once.
uint32_t portableUpdate(uint32_t crc, const char* p, size_t n) {
  // The 8-byte folding step assumes the chunk's bytes land little-endian in
  // the two 32-bit halves; on a big-endian target fall through to the
  // bytewise tail loop for the whole input (results are identical).
  if constexpr (std::endian::native == std::endian::little) {
    while (n >= 8) {
      uint64_t chunk;
      std::memcpy(&chunk, p, 8);
      const uint32_t lo = crc ^ static_cast<uint32_t>(chunk);
      const uint32_t hi = static_cast<uint32_t>(chunk >> 32);
      crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
            kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
            kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
      p += 8;
      n -= 8;
    }
  }
  while (n > 0) {
    crc = kTables[0][(crc ^ static_cast<uint8_t>(*p)) & 0xFF] ^ (crc >> 8);
    ++p;
    --n;
  }
  return crc;
}

/// CRCs of the three consecutive `len`-byte slices starting at `p`.
using ThreeWayKernel = void (*)(const char* p, size_t len, uint32_t* out);

struct Kernels {
  uint32_t (*update)(uint32_t crc, const char* p, size_t n) = portableUpdate;
  ThreeWayKernel three_way = nullptr;  ///< null: one slice at a time
};

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

__attribute__((target("sse4.2"))) uint32_t sse42Update(uint32_t crc,
                                                       const char* p,
                                                       size_t n) {
  uint64_t c = crc;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    c = __builtin_ia32_crc32di(c, word);
    p += 8;
    n -= 8;
  }
  auto c32 = static_cast<uint32_t>(c);
  while (n > 0) {
    c32 = __builtin_ia32_crc32qi(c32, static_cast<unsigned char>(*p));
    ++p;
    --n;
  }
  return c32;
}

// One crc32 chain is bound by the instruction's 3-cycle latency; three
// independent chains fill its 1-per-cycle throughput.
__attribute__((target("sse4.2"))) void sse42ThreeWay(const char* p,
                                                     size_t len,
                                                     uint32_t* out) {
  const char* p1 = p + len;
  const char* p2 = p1 + len;
  uint64_t c0 = 0xFFFFFFFFu, c1 = 0xFFFFFFFFu, c2 = 0xFFFFFFFFu;
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t w0, w1, w2;
    std::memcpy(&w0, p + i, 8);
    std::memcpy(&w1, p1 + i, 8);
    std::memcpy(&w2, p2 + i, 8);
    c0 = __builtin_ia32_crc32di(c0, w0);
    c1 = __builtin_ia32_crc32di(c1, w1);
    c2 = __builtin_ia32_crc32di(c2, w2);
  }
  out[0] = ~sse42Update(static_cast<uint32_t>(c0), p + i, len - i);
  out[1] = ~sse42Update(static_cast<uint32_t>(c1), p1 + i, len - i);
  out[2] = ~sse42Update(static_cast<uint32_t>(c2), p2 + i, len - i);
}

Kernels detectKernels() {
  __builtin_cpu_init();  // CPUID may not be cached yet during static init
  if (__builtin_cpu_supports("sse4.2")) return {sse42Update, sse42ThreeWay};
  return {};
}

#else

Kernels detectKernels() { return {}; }

#endif

const Kernels& kernels() {
  static const Kernels resolved = detectKernels();
  return resolved;
}

}  // namespace

uint32_t crc32c(std::string_view data, uint32_t seed) {
  return ~kernels().update(~seed, data.data(), data.size());
}

void crc32cChunks(std::string_view data, size_t chunk, uint32_t* out) {
  const Kernels& k = kernels();
  const char* p = data.data();
  size_t n = data.size();
  if (k.three_way != nullptr) {
    for (; n >= 3 * chunk; p += 3 * chunk, n -= 3 * chunk, out += 3) {
      k.three_way(p, chunk, out);
    }
  }
  while (n > 0) {
    const size_t len = std::min(chunk, n);
    *out++ = ~k.update(0xFFFFFFFFu, p, len);
    p += len;
    n -= len;
  }
}

namespace detail {

uint32_t crc32cPortable(std::string_view data, uint32_t seed) {
  return ~portableUpdate(~seed, data.data(), data.size());
}

}  // namespace detail

}  // namespace mh
