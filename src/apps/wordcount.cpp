#include "mh/apps/wordcount.h"

#include <array>
#include <cstdint>

namespace mh::apps {

namespace {

enum ByteKind : uint8_t { kOther, kSpace, kWord };

/// What the tokenizer needs to know of one byte: whether it splits tokens
/// (the six ASCII whitespace bytes), belongs to a word (ASCII letters,
/// digits and the apostrophe, as in "don't") or is trimmed off a token's
/// ends (everything else, bytes >= 0x80 included), and its lower-cased
/// form (A-Z only).
struct ByteClass {
  ByteKind kind = kOther;
  char lower = 0;
};

constexpr std::array<ByteClass, 256> makeByteClasses() {
  std::array<ByteClass, 256> table{};
  for (int b = 0; b < 256; ++b) {
    ByteClass& c = table[static_cast<size_t>(b)];
    c.lower = static_cast<char>(b >= 'A' && b <= 'Z' ? b - 'A' + 'a' : b);
    if (b == ' ' || (b >= '\t' && b <= '\r')) {
      c.kind = kSpace;
    } else if ((b >= '0' && b <= '9') || (b >= 'a' && b <= 'z') ||
               (b >= 'A' && b <= 'Z') || b == '\'') {
      c.kind = kWord;
    }
  }
  return table;
}

constexpr std::array<ByteClass, 256> kByteClasses = makeByteClasses();

/// The encoded count every emission carries, built once.
const Bytes kOne = mr::MrCodec<int64_t>::enc(1);

}  // namespace

void WordCountMapper::map(std::string_view, std::string_view value,
                          mr::TaskContext& ctx) {
  // One pass over the line's bytes finds each token's first and last word
  // byte; the bytes between them, lower-cased into one reused buffer, are
  // the word. emit copies the key before it returns, so nothing is
  // allocated per word.
  const auto emit_word = [&](const char* begin, const char* end) {
    word_.resize(static_cast<size_t>(end - begin));
    for (char& c : word_) {
      c = kByteClasses[static_cast<uint8_t>(*begin++)].lower;
    }
    ctx.emit(word_, kOne);
  };
  const char* word = nullptr;      // the token's first word byte, once seen
  const char* word_end = nullptr;  // one past its last word byte so far
  for (const char* p = value.data(), *end = p + value.size(); p != end; ++p) {
    switch (kByteClasses[static_cast<uint8_t>(*p)].kind) {
      case kWord:
        if (word == nullptr) word = p;
        word_end = p + 1;
        break;
      case kSpace:
        if (word != nullptr) emit_word(word, word_end);
        word = nullptr;
        break;
      case kOther:
        break;
    }
  }
  if (word != nullptr) emit_word(word, word_end);
}

void WordCountCombiner::reduce(std::string_view key,
                               mr::ValuesIterator& values,
                               mr::TaskContext& ctx) {
  int64_t sum = 0;
  while (const auto v = values.nextTyped<int64_t>()) sum += *v;
  // emit copies the key view before it returns: no owned copy is needed.
  ctx.emit(key, mr::MrCodec<int64_t>::enc(sum));
}

void WordCountReducer::reduce(std::string_view key,
                              mr::ValuesIterator& values,
                              mr::TaskContext& ctx) {
  int64_t sum = 0;
  while (const auto v = values.nextTyped<int64_t>()) sum += *v;
  ctx.emitTyped<std::string, std::string>(std::string(key),
                                          std::to_string(sum));
}

mr::JobSpec makeWordCountJob(std::vector<std::string> inputs,
                             std::string output, bool with_combiner,
                             uint32_t num_reducers) {
  mr::JobSpec spec;
  spec.name = with_combiner ? "wordcount+combiner" : "wordcount";
  spec.input_paths = std::move(inputs);
  spec.output_dir = std::move(output);
  spec.num_reducers = num_reducers;
  spec.mapper = [] { return std::make_unique<WordCountMapper>(); };
  spec.reducer = [] { return std::make_unique<WordCountReducer>(); };
  if (with_combiner) {
    spec.combiner = [] { return std::make_unique<WordCountCombiner>(); };
  }
  return spec;
}

}  // namespace mh::apps
