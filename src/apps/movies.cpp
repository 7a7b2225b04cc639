#include "mh/apps/movies.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "mh/common/csv.h"
#include "mh/common/error.h"
#include "mh/common/strings.h"
#include "mh/mr/fs_view.h"

namespace mh::apps {

const char* sideDataModeName(SideDataMode mode) {
  return mode == SideDataMode::kNaive ? "naive-reread" : "cached-object";
}

MovieTable MovieTable::load(mr::FileSystemView& fs, const std::string& path) {
  MovieTable table;
  const Bytes body = fs.readRange(path, 0, fs.fileLength(path));
  std::istringstream lines{body};
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const auto fields = parseCsvLine(line);
    if (fields.size() < 3 || !isDigits(fields[0])) continue;
    const auto movie = static_cast<uint32_t>(std::stoul(fields[0]));
    table.genres_[movie] = splitString(fields[2], '|');
  }
  return table;
}

const std::vector<std::string>* MovieTable::genres(uint32_t movie_id) const {
  const auto it = genres_.find(movie_id);
  return it == genres_.end() ? nullptr : &it->second;
}

int64_t MovieTable::approxBytes() const {
  int64_t bytes = 0;
  for (const auto& [movie, genres] : genres_) {
    bytes += 48;
    for (const auto& genre : genres) {
      bytes += 32 + static_cast<int64_t>(genre.size());
    }
  }
  return bytes;
}

void StatSummary::add(double x) {
  if (count == 0) {
    min = max = x;
  } else {
    min = std::min(min, x);
    max = std::max(max, x);
  }
  ++count;
  sum += x;
  sum_sq += x * x;
}

void StatSummary::merge(const StatSummary& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  count += other.count;
  sum += other.sum;
  sum_sq += other.sum_sq;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

double StatSummary::mean() const {
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

double StatSummary::stddev() const {
  if (count < 2) return 0.0;
  const double m = mean();
  const double var =
      (sum_sq - static_cast<double>(count) * m * m) /
      static_cast<double>(count - 1);
  return var > 0 ? std::sqrt(var) : 0.0;
}

void UserActivity::merge(const UserActivity& other) {
  ratings += other.ratings;
  for (const auto& [genre, count] : other.genre_counts) {
    genre_counts[genre] += count;
  }
}

std::string UserActivity::favoriteGenre() const {
  std::string best;
  int64_t best_count = -1;
  for (const auto& [genre, count] : genre_counts) {
    if (count > best_count) {
      best_count = count;
      best = genre;
    }
  }
  return best;
}

bool parseRatingRow(std::string_view line, uint32_t& user, uint32_t& movie,
                    double& rating) {
  const auto fields = parseCsvLine(line);
  if (fields.size() < 3 || !isDigits(fields[0]) || !isDigits(fields[1])) {
    return false;
  }
  try {
    user = static_cast<uint32_t>(std::stoul(fields[0]));
    movie = static_cast<uint32_t>(std::stoul(fields[1]));
    rating = std::stod(fields[2]);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

namespace {

/// Base for mappers joining ratings against the movies side table under
/// either side-data strategy.
class JoiningMapper : public mr::Mapper {
 public:
  explicit JoiningMapper(SideDataMode mode) : mode_(mode) {}

  void setup(mr::TaskContext& ctx) override {
    side_path_ = ctx.conf().get(keys::kMoviesSidePath);
    if (side_path_.empty()) {
      throw InvalidArgumentError(std::string(keys::kMoviesSidePath.name) +
                                 " is not configured");
    }
    if (mode_ == SideDataMode::kCached) {
      table_ = MovieTable::load(ctx.fs(), side_path_);
      ctx.allocateHeap(table_.approxBytes());
    }
  }

  void cleanup(mr::TaskContext& ctx) override {
    if (mode_ == SideDataMode::kCached) {
      ctx.allocateHeap(-table_.approxBytes());
    }
  }

 protected:
  /// Looks up genres, re-reading the whole table per call in naive mode.
  const std::vector<std::string>* lookupGenres(mr::TaskContext& ctx,
                                               uint32_t movie) {
    if (mode_ == SideDataMode::kNaive) {
      table_ = MovieTable::load(ctx.fs(), side_path_);  // every record!
    }
    return table_.genres(movie);
  }

 private:
  SideDataMode mode_;
  std::string side_path_;
  MovieTable table_;
};

class GenreStatsMapper final : public JoiningMapper {
 public:
  using JoiningMapper::JoiningMapper;

  void map(std::string_view, std::string_view value,
           mr::TaskContext& ctx) override {
    uint32_t user = 0;
    uint32_t movie = 0;
    double rating = 0;
    if (!parseRatingRow(value, user, movie, rating)) return;
    const auto* genres = lookupGenres(ctx, movie);
    if (genres == nullptr) return;
    for (const auto& genre : *genres) {
      StatSummary one;
      one.add(rating);
      ctx.emitTyped<std::string, StatSummary>(genre, one);
    }
  }
};

class StatSummaryCombiner : public mr::Reducer {
 public:
  void reduce(std::string_view key, mr::ValuesIterator& values,
              mr::TaskContext& ctx) override {
    StatSummary agg;
    while (const auto v = values.nextTyped<StatSummary>()) agg.merge(*v);
    ctx.emitTyped<std::string, StatSummary>(std::string(key), agg);
  }
};

class GenreStatsReducer : public mr::Reducer {
 public:
  void reduce(std::string_view key, mr::ValuesIterator& values,
              mr::TaskContext& ctx) override {
    StatSummary agg;
    while (const auto v = values.nextTyped<StatSummary>()) agg.merge(*v);
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%lld %.3f %.3f %.1f %.1f",
                  static_cast<long long>(agg.count), agg.mean(), agg.stddev(),
                  agg.min, agg.max);
    ctx.emitTyped<std::string, std::string>(std::string(key), buf);
  }
};

class TopRaterMapper final : public JoiningMapper {
 public:
  using JoiningMapper::JoiningMapper;

  void map(std::string_view, std::string_view value,
           mr::TaskContext& ctx) override {
    uint32_t user = 0;
    uint32_t movie = 0;
    double rating = 0;
    if (!parseRatingRow(value, user, movie, rating)) return;
    const auto* genres = lookupGenres(ctx, movie);
    if (genres == nullptr) return;
    UserActivity activity;
    activity.ratings = 1;
    for (const auto& genre : *genres) activity.genre_counts[genre] = 1;
    ctx.emitTyped<std::string, UserActivity>(std::to_string(user), activity);
  }
};

class UserActivityCombiner : public mr::Reducer {
 public:
  void reduce(std::string_view key, mr::ValuesIterator& values,
              mr::TaskContext& ctx) override {
    UserActivity agg;
    while (const auto v = values.nextTyped<UserActivity>()) agg.merge(*v);
    ctx.emitTyped<std::string, UserActivity>(std::string(key), agg);
  }
};

/// Single reducer: folds each user's activity, tracks the global best, and
/// emits exactly one line at cleanup().
class TopRaterReducer : public mr::Reducer {
 public:
  void reduce(std::string_view key, mr::ValuesIterator& values,
              mr::TaskContext&) override {
    UserActivity agg;
    while (const auto v = values.nextTyped<UserActivity>()) agg.merge(*v);
    const uint64_t user = std::stoull(std::string(key));
    if (agg.ratings > best_.ratings ||
        (agg.ratings == best_.ratings && user < best_user_)) {
      best_ = std::move(agg);
      best_user_ = user;
    }
  }

  void cleanup(mr::TaskContext& ctx) override {
    if (best_user_ == 0) return;
    ctx.emitTyped<std::string, std::string>(
        std::to_string(best_user_), std::to_string(best_.ratings) + "\t" +
                                        best_.favoriteGenre());
  }

 private:
  UserActivity best_;
  uint64_t best_user_ = 0;
};

}  // namespace

mr::JobSpec makeGenreStatsJob(std::vector<std::string> ratings_inputs,
                              std::string movies_side_path,
                              std::string output, SideDataMode mode,
                              uint32_t num_reducers) {
  mr::JobSpec spec;
  spec.name = std::string("genre-stats-") + sideDataModeName(mode);
  spec.input_paths = std::move(ratings_inputs);
  spec.output_dir = std::move(output);
  spec.num_reducers = num_reducers;
  spec.conf.set(keys::kMoviesSidePath, std::move(movies_side_path));
  spec.mapper = [mode] { return std::make_unique<GenreStatsMapper>(mode); };
  spec.combiner = [] { return std::make_unique<StatSummaryCombiner>(); };
  spec.reducer = [] { return std::make_unique<GenreStatsReducer>(); };
  return spec;
}

mr::JobSpec makeTopRaterJob(std::vector<std::string> ratings_inputs,
                            std::string movies_side_path,
                            std::string output) {
  mr::JobSpec spec;
  spec.name = "top-rater";
  spec.input_paths = std::move(ratings_inputs);
  spec.output_dir = std::move(output);
  spec.num_reducers = 1;  // the global maximum needs one reducer
  spec.conf.set(keys::kMoviesSidePath, std::move(movies_side_path));
  spec.mapper = [] {
    return std::make_unique<TopRaterMapper>(SideDataMode::kCached);
  };
  spec.combiner = [] { return std::make_unique<UserActivityCombiner>(); };
  spec.reducer = [] { return std::make_unique<TopRaterReducer>(); };
  return spec;
}

}  // namespace mh::apps
