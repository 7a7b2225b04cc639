#include "mh/common/strings.h"

#include <gtest/gtest.h>

#include "testutil/ctype_locales.h"

namespace mh {
namespace {

TEST(SplitStringTest, KeepsEmptyFields) {
  const auto parts = splitString("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitStringTest, NoDelimiterYieldsWhole) {
  const auto parts = splitString("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(SplitWhitespaceTest, CollapsesRuns) {
  const auto parts = splitWhitespace("  foo \t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[1], "bar");
  EXPECT_EQ(parts[2], "baz");
}

TEST(SplitWhitespaceTest, EmptyAndAllSpace) {
  EXPECT_TRUE(splitWhitespace("").empty());
  EXPECT_TRUE(splitWhitespace(" \t\n").empty());
}

TEST(SplitWhitespaceTest, ViewsPointIntoTheInput) {
  const std::string line = "alpha  beta";
  const auto parts = splitWhitespace(line);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].data(), line.data());
  EXPECT_EQ(parts[1].data(), line.data() + 7);
}

TEST(SplitWhitespaceTest, NextTokenWalksTheLine) {
  const std::string_view line = " \tone two\r\n";
  size_t pos = 0;
  EXPECT_EQ(nextWhitespaceToken(line, pos), "one");
  EXPECT_EQ(nextWhitespaceToken(line, pos), "two");
  EXPECT_EQ(nextWhitespaceToken(line, pos), "");
  EXPECT_EQ(pos, line.size());
  EXPECT_EQ(nextWhitespaceToken(line, pos), "");
}

/// Exactly the six ASCII whitespace bytes split a token, for every byte
/// value and whatever LC_CTYPE is: under a Latin-1 locale isspace() would
/// also accept 0x85 and 0xA0.
TEST(SplitWhitespaceTest, OnlyAsciiWhitespaceSplitsUnderAnyLocale) {
  testutil::forEachCtypeLocale([](const std::string& locale) {
    for (int b = 0; b < 256; ++b) {
      const char c = static_cast<char>(b);
      const bool space = b == ' ' || b == '\t' || b == '\n' || b == '\v' ||
                         b == '\f' || b == '\r';
      const std::string line = std::string("a") + c + "b";
      EXPECT_EQ(splitWhitespace(line).size(), space ? 2u : 1u)
          << "byte " << b << " under " << locale;
      EXPECT_EQ(trim(std::string(1, c) + "x" + c).size(), space ? 1u : 3u)
          << "byte " << b << " under " << locale;
    }
  });
}

TEST(TrimTest, Basics) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(JoinStringsTest, Basics) {
  EXPECT_EQ(joinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(joinStrings({}, ","), "");
  EXPECT_EQ(joinStrings({"only"}, ","), "only");
}

TEST(FormatBytesTest, Units) {
  EXPECT_EQ(formatBytes(0), "0.00 B");
  EXPECT_EQ(formatBytes(1024), "1.00 KiB");
  EXPECT_EQ(formatBytes(1536), "1.50 KiB");
  EXPECT_EQ(formatBytes(64ull * 1024 * 1024 * 1024), "64.0 GiB");
}

TEST(FormatMillisTest, Scales) {
  EXPECT_EQ(formatMillis(1500), "1.500s");
  EXPECT_EQ(formatMillis(61'000), "1m 1s");
  EXPECT_EQ(formatMillis(3'661'000), "1h 1m 1s");
}

TEST(ToLowerAsciiTest, OnlyAscii) {
  EXPECT_EQ(toLowerAscii("WordCount"), "wordcount");
  EXPECT_EQ(toLowerAscii("123-XYZ"), "123-xyz");
}

/// Over all 256 byte values only A-Z change, whatever LC_CTYPE is: under
/// a Latin-1 locale tolower() would also rewrite 0xC0-0xDE.
TEST(ToLowerAsciiTest, OnlyAToZChangeUnderAnyLocale) {
  testutil::forEachCtypeLocale([](const std::string& locale) {
    std::string all(256, '\0');
    for (int b = 0; b < 256; ++b) all[b] = static_cast<char>(b);
    const std::string lowered = toLowerAscii(all);
    ASSERT_EQ(lowered.size(), 256u);
    for (int b = 0; b < 256; ++b) {
      const int expected = b >= 'A' && b <= 'Z' ? b - 'A' + 'a' : b;
      EXPECT_EQ(static_cast<unsigned char>(lowered[b]), expected)
          << "byte " << b << " under " << locale;
    }
  });
}

TEST(IsDigitsTest, Basics) {
  EXPECT_TRUE(isDigits("12345"));
  EXPECT_FALSE(isDigits(""));
  EXPECT_FALSE(isDigits("12a"));
  EXPECT_FALSE(isDigits("-1"));
}

}  // namespace
}  // namespace mh
