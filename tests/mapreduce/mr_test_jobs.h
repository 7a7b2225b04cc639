#pragma once

#include <atomic>
#include <map>
#include <sstream>

#include "mh/common/rng.h"
#include "mh/common/strings.h"
#include "mh/mr/job.h"

/// Shared toy jobs for the engine tests: WordCount pieces and helpers to
/// read results back.

namespace mh::mr::testjobs {

/// Tokenizes lines into lowercase words, emits (word, 1).
class WordCountMapper : public Mapper {
 public:
  void map(std::string_view, std::string_view value,
           TaskContext& ctx) override {
    for (const auto& token : splitWhitespace(value)) {
      ctx.emitTyped<std::string, int64_t>(toLowerAscii(token), 1);
    }
  }
};

/// Sums int64 values, re-emitting int64 — usable as a combiner.
class SumCombiner : public Reducer {
 public:
  void reduce(std::string_view key, ValuesIterator& values,
              TaskContext& ctx) override {
    int64_t sum = 0;
    while (const auto v = values.nextTyped<int64_t>()) sum += *v;
    ctx.emitTyped<std::string, int64_t>(std::string(key), sum);
  }
};

/// Sums int64 values, emitting the decimal string (final output form).
class SumReducer : public Reducer {
 public:
  void reduce(std::string_view key, ValuesIterator& values,
              TaskContext& ctx) override {
    int64_t sum = 0;
    while (const auto v = values.nextTyped<int64_t>()) sum += *v;
    ctx.emitTyped<std::string, std::string>(std::string(key),
                                            std::to_string(sum));
  }
};

inline JobSpec wordCountSpec(std::vector<std::string> inputs,
                             std::string output, bool with_combiner = false,
                             uint32_t reducers = 1) {
  JobSpec spec;
  spec.name = "wordcount";
  spec.input_paths = std::move(inputs);
  spec.output_dir = std::move(output);
  spec.num_reducers = reducers;
  spec.mapper = [] { return std::make_unique<WordCountMapper>(); };
  spec.reducer = [] { return std::make_unique<SumReducer>(); };
  if (with_combiner) {
    spec.combiner = [] { return std::make_unique<SumCombiner>(); };
  }
  return spec;
}

/// Skewed text like real word-count input: `lines` lines of 3–8 "w<rank>"
/// tokens drawn from a 400-word Zipf(1.1) vocabulary.
inline std::string zipfCorpus(int lines, uint64_t seed) {
  Rng rng(seed);
  const ZipfSampler zipf(400, 1.1);
  std::string out;
  for (int line = 0; line < lines; ++line) {
    const uint64_t words = 3 + rng.uniform(6);
    for (uint64_t w = 0; w < words; ++w) {
      out += "w" + std::to_string(zipf.sample(rng));
      out.push_back(w + 1 == words ? '\n' : ' ');
    }
  }
  return out;
}

/// The bytes of every part file under `dir`, keyed by file name: the
/// byte-identity oracle for two runs of the same job.
inline std::map<std::string, Bytes> readPartFiles(FileSystemView& fs,
                                                  const std::string& dir) {
  std::map<std::string, Bytes> parts;
  for (const auto& file : fs.listFiles(dir)) {
    const std::string base = file.substr(file.find_last_of('/') + 1);
    if (base.rfind("part-", 0) != 0) continue;
    parts[base] = fs.readRange(file, 0, fs.fileLength(file));
  }
  return parts;
}

/// Parses "word\tcount" part files from all partitions into one map.
inline std::map<std::string, int64_t> readCounts(FileSystemView& fs,
                                                 const std::string& dir) {
  std::map<std::string, int64_t> counts;
  for (const auto& file : fs.listFiles(dir)) {
    const auto slash = file.find_last_of('/');
    if (file.substr(slash + 1).rfind("part-", 0) != 0) continue;
    const Bytes body = fs.readRange(file, 0, fs.fileLength(file));
    std::istringstream lines{body};
    std::string line;
    while (std::getline(lines, line)) {
      const auto tab = line.find('\t');
      counts[line.substr(0, tab)] = std::stoll(line.substr(tab + 1));
    }
  }
  return counts;
}

/// Reference word count computed directly.
inline std::map<std::string, int64_t> referenceCounts(
    const std::string& corpus) {
  std::map<std::string, int64_t> counts;
  for (const auto& token : splitWhitespace(corpus)) {
    ++counts[toLowerAscii(token)];
  }
  return counts;
}

}  // namespace mh::mr::testjobs
