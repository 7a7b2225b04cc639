#include "mh/mr/kv_stream.h"

#include <gtest/gtest.h>

#include "mh/common/error.h"
#include "mh/common/rng.h"

namespace mh::mr {
namespace {

TEST(KvStreamTest, RoundTrip) {
  const std::vector<KeyValue> records{
      {"alpha", "1"}, {"", "empty key"}, {"beta", ""}, {"b\0in", "v\0al"}};
  EXPECT_EQ(decodeKvRun(encodeKvRun(records)), records);
}

TEST(KvStreamTest, EmptyRun) {
  EXPECT_TRUE(decodeKvRun("").empty());
  EXPECT_TRUE(encodeKvRun({}).empty());
}

TEST(KvStreamTest, StreamingReaderMatchesDecode) {
  Bytes run;
  KvWriter writer(run);
  writer.write("k1", "v1");
  writer.write("k2", "v2");
  KvReader reader(run);
  std::string_view k;
  std::string_view v;
  ASSERT_TRUE(reader.next(k, v));
  EXPECT_EQ(k, "k1");
  EXPECT_EQ(v, "v1");
  ASSERT_TRUE(reader.next(k, v));
  EXPECT_EQ(k, "k2");
  ASSERT_FALSE(reader.next(k, v));
}

TEST(KvStreamTest, TornFrameThrows) {
  Bytes run;
  KvWriter writer(run);
  writer.write("key", "value");
  run.resize(run.size() - 2);
  EXPECT_THROW(decodeKvRun(run), InvalidArgumentError);
}

TEST(SegmentTableTest, SplitReturnsTheJoinedSegments) {
  const Bytes a = encodeKvRun({{"a", "1"}, {"c", "2"}});
  const Bytes b = encodeKvRun({{"b", "3"}});
  const Bytes output = joinSegments({a, "", b});
  // The empty segment is left out; the rest come back in order, as views
  // and as slices of one shared buffer.
  EXPECT_EQ(splitSegments(std::string_view(output)),
            (std::vector<std::string_view>{a, b}));
  const BufferView shared(Buffer::copyOf(output));
  const std::vector<BufferView> slices = splitSegments(shared);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0], a);
  EXPECT_EQ(slices[1], b);
  EXPECT_EQ(slices[1].buffer().data(), shared.buffer().data());

  // Zero segments is the empty buffer, both ways.
  EXPECT_TRUE(joinSegments({}).empty());
  EXPECT_TRUE(joinSegments({""}).empty());
  EXPECT_TRUE(splitSegments(std::string_view()).empty());

  // A table appended in place describes the segments already written.
  Bytes in_place = a;
  in_place += b;
  appendSegmentTable(in_place, {a.size(), b.size()});
  EXPECT_EQ(in_place, output);
}

TEST(SegmentTableTest, TornTableThrows) {
  const Bytes output = joinSegments({encodeKvRun({{"a", "1"}}),
                                     encodeKvRun({{"b", "2"}, {"c", "3"}})});
  const auto expectTorn = [](const Bytes& bytes) {
    EXPECT_THROW(splitSegments(std::string_view(bytes)),
                 InvalidArgumentError);
    EXPECT_THROW(splitSegments(BufferView(Buffer::copyOf(bytes))),
                 InvalidArgumentError);
  };
  // Cut anywhere: the count or the lengths no longer add up.
  for (size_t cut = 1; cut < output.size(); ++cut) {
    SCOPED_TRACE(cut);
    expectTorn(output.substr(0, output.size() - cut));
  }
  // A plain run is not a segmented output.
  expectTorn(encodeKvRun({{"plain", "run"}}));
  // Every byte of the table matters: a flipped bit in a length or in the
  // count breaks the sum.
  const size_t table = 3 * sizeof(uint64_t);
  for (size_t i = output.size() - table; i < output.size(); ++i) {
    SCOPED_TRACE(i);
    Bytes bad = output;
    bad[i] = static_cast<char>(bad[i] ^ 0x10);
    expectTorn(bad);
  }
}

TEST(KvStreamTest, RandomizedRoundTripProperty) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<KeyValue> records;
    const int n = static_cast<int>(rng.uniform(200));
    for (int i = 0; i < n; ++i) {
      KeyValue kv;
      const auto klen = rng.uniform(30);
      const auto vlen = rng.uniform(100);
      for (uint64_t j = 0; j < klen; ++j) {
        kv.key.push_back(static_cast<char>(rng.uniform(256)));
      }
      for (uint64_t j = 0; j < vlen; ++j) {
        kv.value.push_back(static_cast<char>(rng.uniform(256)));
      }
      records.push_back(std::move(kv));
    }
    EXPECT_EQ(decodeKvRun(encodeKvRun(records)), records);
  }
}

}  // namespace
}  // namespace mh::mr
