#pragma once

#include <string>
#include <vector>

#include "mh/mr/job.h"

/// \file wordcount.h
/// The canonical first example from the course: count word occurrences.
/// Two configurations, exactly as taught in §III-A:
///  * plain — every (word, 1) pair crosses the shuffle;
///  * combiner — the reducer logic also runs map-side, so each map emits at
///    most one record per distinct word (more map CPU, far less traffic —
///    the trade-off students observe in the job report).

namespace mh::apps {

/// Tokenizes on ASCII whitespace, strips leading/trailing bytes that are not
/// ASCII letters, digits or '\'', lower-cases A-Z; emits (word, 1). Keys do
/// not depend on the process locale.
class WordCountMapper : public mr::Mapper {
 public:
  void map(std::string_view key, std::string_view value,
           mr::TaskContext& ctx) override;

 private:
  std::string word_;  ///< the lower-cased word being emitted
};

/// Sums counts, re-emitting the binary int64 (usable as a combiner).
class WordCountCombiner : public mr::Reducer {
 public:
  void reduce(std::string_view key, mr::ValuesIterator& values,
              mr::TaskContext& ctx) override;
};

/// Sums counts, emitting the decimal string (final output form).
class WordCountReducer : public mr::Reducer {
 public:
  void reduce(std::string_view key, mr::ValuesIterator& values,
              mr::TaskContext& ctx) override;
};

mr::JobSpec makeWordCountJob(std::vector<std::string> inputs,
                             std::string output, bool with_combiner = true,
                             uint32_t num_reducers = 1);

}  // namespace mh::apps
