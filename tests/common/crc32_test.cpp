#include "mh/common/crc32.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mh/common/rng.h"

namespace mh {
namespace {

/// Straightforward table-free bytewise CRC-32C — the oracle both production
/// paths (SSE4.2 and slice-by-8) must match bit-for-bit on every input.
uint32_t referenceCrc32c(std::string_view data, uint32_t seed = 0) {
  uint32_t crc = ~seed;
  for (const char c : data) {
    crc ^= static_cast<uint8_t>(c);
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 (iSCSI) test vectors for CRC-32C.
  EXPECT_EQ(crc32c(""), 0x00000000u);
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(crc32c(std::string(32, '\xff')), 0x62A8AB43u);
}

TEST(Crc32cTest, SeedChainsIncrementalComputation) {
  const std::string data = "hello, distributed world";
  const uint32_t whole = crc32c(data);
  const uint32_t part1 = crc32c(data.substr(0, 7));
  const uint32_t chained = crc32c(data.substr(7), part1);
  EXPECT_EQ(chained, whole);
}

TEST(Crc32cTest, SingleBitFlipDetected) {
  std::string data(4096, 'a');
  const uint32_t clean = crc32c(data);
  for (size_t pos : {0u, 511u, 512u, 4095u}) {
    std::string corrupt = data;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x01);
    EXPECT_NE(crc32c(corrupt), clean) << "flip at " << pos;
  }
}

TEST(Crc32cTest, OrderMatters) {
  EXPECT_NE(crc32c("ab"), crc32c("ba"));
}

TEST(Crc32cTest, MatchesBytewiseReferenceOnAllLengthsAndAlignments) {
  // Slice-by-8 processes 8 bytes per iteration with a bytewise tail; sweep
  // every length 0..64 at every start alignment 0..7 so each head/body/tail
  // combination is exercised against the bytewise oracle.
  Rng rng(42);
  std::string blob(64 + 8, '\0');
  for (auto& c : blob) c = static_cast<char>(rng.uniform(256));
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len + align <= blob.size(); ++len) {
      const std::string_view chunk(blob.data() + align, len);
      ASSERT_EQ(crc32c(chunk), referenceCrc32c(chunk))
          << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32cTest, MatchesReferenceOnLargeRandomInputs) {
  Rng rng(7);
  for (const size_t size : {1000u, 4096u, 65537u}) {
    std::string data(size, '\0');
    for (auto& c : data) c = static_cast<char>(rng.uniform(256));
    ASSERT_EQ(crc32c(data), referenceCrc32c(data)) << "size " << size;
  }
}

TEST(Crc32cTest, SeededChainingMatchesReferenceAtRandomCuts) {
  Rng rng(99);
  std::string data(10000, '\0');
  for (auto& c : data) c = static_cast<char>(rng.uniform(256));
  const uint32_t whole = crc32c(data);
  EXPECT_EQ(whole, referenceCrc32c(data));
  for (int trial = 0; trial < 20; ++trial) {
    const size_t cut = rng.uniform(data.size() + 1);
    const uint32_t head = crc32c(std::string_view(data).substr(0, cut));
    EXPECT_EQ(crc32c(std::string_view(data).substr(cut), head), whole)
        << "cut " << cut;
    // The reference chains the same way — seeds are interchangeable.
    const uint32_t ref_head =
        referenceCrc32c(std::string_view(data).substr(0, cut));
    EXPECT_EQ(ref_head, head);
  }
}

// ---- hardware vs portable ------------------------------------------------
// crc32c() runs the SSE4.2 path when CPUID reports it and slice-by-8
// otherwise; detail::crc32cPortable is always slice-by-8. On a machine with
// SSE4.2 these tests compare the two paths; elsewhere both are portable and
// the tests still pin them to the bytewise oracle.

TEST(Crc32cTest, HardwarePortableAndReferenceAgreeOnRandomLengthsAndOffsets) {
  Rng rng(2024);
  std::string blob(4096 + 8, '\0');
  for (auto& c : blob) c = static_cast<char>(rng.uniform(256));
  for (int trial = 0; trial < 400; ++trial) {
    const size_t offset = rng.uniform(8);  // misaligned loads
    const size_t len = rng.uniform(4097);
    const std::string_view data(blob.data() + offset, len);
    const uint32_t expected = referenceCrc32c(data);
    ASSERT_EQ(crc32c(data), expected) << "offset " << offset << " len " << len;
    ASSERT_EQ(detail::crc32cPortable(data), expected)
        << "offset " << offset << " len " << len;
  }
}

TEST(Crc32cTest, SeedContinuationAgreesAtEverySplit) {
  Rng rng(64);
  std::string data(64, '\0');
  for (auto& c : data) c = static_cast<char>(rng.uniform(256));
  const uint32_t whole = referenceCrc32c(data);
  const std::string_view view(data);
  for (size_t cut = 0; cut <= view.size(); ++cut) {
    const std::string_view head = view.substr(0, cut);
    const std::string_view tail = view.substr(cut);
    EXPECT_EQ(crc32c(tail, crc32c(head)), whole) << "cut " << cut;
    EXPECT_EQ(detail::crc32cPortable(tail, detail::crc32cPortable(head)),
              whole)
        << "cut " << cut;
    // Seeds cross paths: a CRC started on one continues on the other.
    EXPECT_EQ(crc32c(tail, detail::crc32cPortable(head)), whole)
        << "cut " << cut;
    EXPECT_EQ(detail::crc32cPortable(tail, referenceCrc32c(head)), whole)
        << "cut " << cut;
  }
}

TEST(Crc32cTest, ChunksEqualPerChunkCrcs) {
  constexpr size_t kChunk = 512;
  Rng rng(512);
  std::string blob(64 * 1024 + 1, '\0');
  for (auto& c : blob) c = static_cast<char>(rng.uniform(256));
  // 1536 is exactly three chunks (one interleaved group); 1537 adds a
  // one-byte tail after it.
  for (const size_t len : {0u, 1u, 511u, 512u, 513u, 1024u, 1536u, 1537u,
                           64u * 1024u}) {
    for (const size_t offset : {0u, 1u}) {
      const std::string_view data(blob.data() + offset, len);
      const size_t n = (len + kChunk - 1) / kChunk;
      std::vector<uint32_t> got(n + 1, 0xDEADBEEFu);  // + a guard slot
      crc32cChunks(data, kChunk, got.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], referenceCrc32c(data.substr(i * kChunk, kChunk)))
            << "len " << len << " offset " << offset << " chunk " << i;
      }
      EXPECT_EQ(got[n], 0xDEADBEEFu) << "wrote past the last chunk, len "
                                     << len;
    }
  }
}

TEST(Crc32cTest, ChunksHonourOddChunkWidths) {
  Rng rng(3);
  std::string data(1000, '\0');
  for (auto& c : data) c = static_cast<char>(rng.uniform(256));
  for (const size_t chunk : {1u, 7u, 100u, 333u, 1000u, 4096u}) {
    const size_t n = (data.size() + chunk - 1) / chunk;
    std::vector<uint32_t> got(n);
    crc32cChunks(data, chunk, got.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i],
                referenceCrc32c(std::string_view(data).substr(i * chunk, chunk)))
          << "chunk " << chunk << " index " << i;
    }
  }
}

}  // namespace
}  // namespace mh
