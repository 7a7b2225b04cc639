#pragma once

#include <string>
#include <string_view>
#include <vector>

/// \file wordcount_reference.h
/// A hand-written reference for the shipped WordCount tokenizer, written
/// byte by byte from its documented contract and sharing no code with it:
/// split on the six ASCII whitespace bytes, trim every byte that is not an
/// ASCII letter, digit or apostrophe off both ends, lower-case A-Z only.
/// Tests compare the mapper's emitted keys and the job's record counters
/// against it.

namespace mh::testutil {

/// The keys WordCount emits for `text`, in emission order.
inline std::vector<std::string> referenceWordCountKeys(std::string_view text) {
  const auto is_space = [](char c) {
    switch (c) {
      case ' ':
      case '\t':
      case '\n':
      case '\v':
      case '\f':
      case '\r':
        return true;
      default:
        return false;
    }
  };
  const auto is_word = [](char c) {
    static const std::string_view kWordBytes =
        "0123456789"
        "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        "abcdefghijklmnopqrstuvwxyz"
        "'";
    return kWordBytes.find(c) != std::string_view::npos;
  };
  std::vector<std::string> keys;
  std::string token;
  const auto flush = [&] {
    size_t begin = 0;
    size_t end = token.size();
    while (begin < end && !is_word(token[begin])) ++begin;
    while (end > begin && !is_word(token[end - 1])) --end;
    if (begin < end) {
      std::string key = token.substr(begin, end - begin);
      for (char& c : key) {
        static const std::string_view kUpper = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
        static const std::string_view kLower = "abcdefghijklmnopqrstuvwxyz";
        if (const size_t i = kUpper.find(c); i != std::string_view::npos) {
          c = kLower[i];
        }
      }
      keys.push_back(std::move(key));
    }
    token.clear();
  };
  for (const char c : text) {
    if (is_space(c)) {
      flush();
    } else {
      token.push_back(c);
    }
  }
  flush();
  return keys;
}

}  // namespace mh::testutil
