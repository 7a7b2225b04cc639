#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mh/mr/job.h"

/// \file movies.h
/// Assignment 1 (§III-B): descriptive statistics per movie genre, and the
/// most active rater with their favorite genre — over the MovieLens-style
/// two-file dataset. The ratings reference movies; genres live in a
/// separate movies.csv the map tasks must join against (SIDE DATA).
///
/// Side-data strategy is the assignment's big lesson:
///  * kNaive  — "read the additional file from inside each mapper": the
///    movies table is re-read and re-parsed on EVERY map() call. Runs an
///    order of magnitude slower ("a little over half an hour" vs minutes).
///  * kCached — "a Java object that reads the additional file once and
///    stores the content in memory": loaded in setup(), reused.
///
/// Config key movies.side.path carries the movies.csv location.

namespace mh::apps {

enum class SideDataMode { kNaive = 0, kCached = 1 };

const char* sideDataModeName(SideDataMode mode);

/// Parsed movies.csv: movieId -> genres.
class MovieTable {
 public:
  static MovieTable load(mr::FileSystemView& fs, const std::string& path);

  /// nullptr when the movie is unknown.
  const std::vector<std::string>* genres(uint32_t movie_id) const;
  size_t size() const { return genres_.size(); }
  /// Approximate in-memory footprint, for heap accounting.
  int64_t approxBytes() const;

 private:
  std::map<uint32_t, std::vector<std::string>> genres_;
};

/// Monoid of descriptive statistics (count/sum/sum²/min/max) — the richer
/// custom value class the genre-statistics question needs.
struct StatSummary {
  int64_t count = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  double min = 0.0;
  double max = 0.0;

  void add(double x);
  void merge(const StatSummary& other);
  double mean() const;
  double stddev() const;

  bool operator==(const StatSummary&) const = default;
};

/// Per-user activity monoid for the top-rater question: total ratings plus
/// per-genre tallies — "several values for each key", hence the custom
/// output value class.
struct UserActivity {
  int64_t ratings = 0;
  std::map<std::string, int64_t> genre_counts;

  void merge(const UserActivity& other);
  std::string favoriteGenre() const;

  bool operator==(const UserActivity&) const = default;
};

/// Parses "userId,movieId,rating,timestamp"; false on malformed rows.
bool parseRatingRow(std::string_view line, uint32_t& user, uint32_t& movie,
                    double& rating);

/// Genre statistics job. Output: "genre<TAB>count mean stddev min max".
mr::JobSpec makeGenreStatsJob(std::vector<std::string> ratings_inputs,
                              std::string movies_side_path,
                              std::string output, SideDataMode mode,
                              uint32_t num_reducers = 1);

/// Top-rater job (single reducer). Output: one line
/// "userId<TAB>ratings<TAB>favoriteGenre".
mr::JobSpec makeTopRaterJob(std::vector<std::string> ratings_inputs,
                            std::string movies_side_path, std::string output);

}  // namespace mh::apps

namespace mh {

template <>
struct Serde<apps::StatSummary> {
  static void encode(ByteWriter& w, const apps::StatSummary& v) {
    w.writeVarI64(v.count);
    w.writeDouble(v.sum);
    w.writeDouble(v.sum_sq);
    w.writeDouble(v.min);
    w.writeDouble(v.max);
  }
  static apps::StatSummary decode(ByteReader& r) {
    apps::StatSummary v;
    v.count = r.readVarI64();
    v.sum = r.readDouble();
    v.sum_sq = r.readDouble();
    v.min = r.readDouble();
    v.max = r.readDouble();
    return v;
  }
};

template <>
struct Serde<apps::UserActivity> {
  static void encode(ByteWriter& w, const apps::UserActivity& v) {
    w.writeVarI64(v.ratings);
    w.writeVarU64(v.genre_counts.size());
    for (const auto& [genre, count] : v.genre_counts) {
      w.writeBytes(genre);
      w.writeVarI64(count);
    }
  }
  static apps::UserActivity decode(ByteReader& r) {
    apps::UserActivity v;
    v.ratings = r.readVarI64();
    const uint64_t n = r.readVarU64();
    for (uint64_t i = 0; i < n; ++i) {
      std::string genre = r.readString();
      v.genre_counts.emplace(std::move(genre), r.readVarI64());
    }
    return v;
  }
};

}  // namespace mh
