#include "mh/apps/wordcount.h"

#include "mh/common/strings.h"

namespace mh::apps {

namespace {

/// ASCII letters, digits and the apostrophe ("don't"); every other byte,
/// including bytes >= 0x80, is trimmed off a token's ends.
bool isWordChar(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z') || c == '\'';
}

/// The encoded count every emission carries, built once.
const Bytes kOne = mr::MrCodec<int64_t>::enc(1);

}  // namespace

void WordCountMapper::map(std::string_view, std::string_view value,
                          mr::TaskContext& ctx) {
  // Tokens are views into the line, lower-cased into one reused buffer:
  // emit copies the key before it returns, so nothing is allocated per
  // word.
  size_t pos = 0;
  for (std::string_view token = nextWhitespaceToken(value, pos);
       !token.empty(); token = nextWhitespaceToken(value, pos)) {
    size_t begin = 0;
    size_t end = token.size();
    while (begin < end && !isWordChar(token[begin])) ++begin;
    while (end > begin && !isWordChar(token[end - 1])) --end;
    if (begin < end) {
      assignLowerAscii(word_, token.substr(begin, end - begin));
      ctx.emit(word_, kOne);
    }
  }
}

void WordCountCombiner::reduce(std::string_view key,
                               mr::ValuesIterator& values,
                               mr::TaskContext& ctx) {
  int64_t sum = 0;
  while (const auto v = values.nextTyped<int64_t>()) sum += *v;
  ctx.emitTyped<std::string, int64_t>(std::string(key), sum);
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
