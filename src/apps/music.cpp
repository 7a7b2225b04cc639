#include "mh/apps/music.h"

#include <cstdio>
#include <sstream>

#include "mh/common/error.h"
#include "mh/common/strings.h"
#include "mh/mr/fs_view.h"

namespace mh::apps {

SongTable SongTable::load(mr::FileSystemView& fs, const std::string& path) {
  SongTable table;
  const Bytes body = fs.readRange(path, 0, fs.fileLength(path));
  std::istringstream lines{body};
  std::string line;
  while (std::getline(lines, line)) {
    const auto fields = splitString(line, '\t');
    if (fields.size() < 2 || !isDigits(fields[0]) || !isDigits(fields[1])) {
      continue;
    }
    table.album_[static_cast<uint32_t>(std::stoul(fields[0]))] =
        static_cast<uint32_t>(std::stoul(fields[1]));
  }
  return table;
}

uint32_t SongTable::album(uint32_t song_id) const {
  const auto it = album_.find(song_id);
  return it == album_.end() ? 0 : it->second;
}

bool parseMusicRating(std::string_view line, uint32_t& user, uint32_t& song,
                      double& rating) {
  const auto fields = splitString(line, '\t');
  if (fields.size() < 3 || !isDigits(fields[0]) || !isDigits(fields[1])) {
    return false;
  }
  try {
    user = static_cast<uint32_t>(std::stoul(fields[0]));
    song = static_cast<uint32_t>(std::stoul(fields[1]));
    rating = std::stod(fields[2]);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

namespace {

class AlbumRatingMapper : public mr::Mapper {
 public:
  void setup(mr::TaskContext& ctx) override {
    const std::string path = ctx.conf().get(keys::kMusicSongsPath);
    if (path.empty()) {
      throw InvalidArgumentError(std::string(keys::kMusicSongsPath.name) +
                                 " is not configured");
    }
    songs_ = SongTable::load(ctx.fs(), path);
    ctx.allocateHeap(songs_.approxBytes());
  }

  void cleanup(mr::TaskContext& ctx) override {
    ctx.allocateHeap(-songs_.approxBytes());
  }

  void map(std::string_view, std::string_view value,
           mr::TaskContext& ctx) override {
    uint32_t user = 0;
    uint32_t song = 0;
    double rating = 0;
    if (!parseMusicRating(value, user, song, rating)) return;
    const uint32_t album = songs_.album(song);
    if (album == 0) return;
    DelaySum one;
    one.add(rating);
    ctx.emitTyped<std::string, DelaySum>(std::to_string(album), one);
  }

 private:
  SongTable songs_;
};

class AlbumSumCombiner : public mr::Reducer {
 public:
  void reduce(std::string_view key, mr::ValuesIterator& values,
              mr::TaskContext& ctx) override {
    DelaySum agg;
    while (const auto v = values.nextTyped<DelaySum>()) agg.merge(*v);
    ctx.emitTyped<std::string, DelaySum>(std::string(key), agg);
  }
};

class AlbumMeanReducer : public mr::Reducer {
 public:
  void reduce(std::string_view key, mr::ValuesIterator& values,
              mr::TaskContext& ctx) override {
    DelaySum agg;
    while (const auto v = values.nextTyped<DelaySum>()) agg.merge(*v);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", agg.mean());
    ctx.emitTyped<std::string, std::string>(std::string(key), buf);
  }
};

}  // namespace

mr::JobSpec makeAlbumAverageJob(std::vector<std::string> ratings_inputs,
                                std::string songs_side_path,
                                std::string output, uint32_t num_reducers) {
  mr::JobSpec spec;
  spec.name = "album-average";
  spec.input_paths = std::move(ratings_inputs);
  spec.output_dir = std::move(output);
  spec.num_reducers = num_reducers;
  spec.conf.set(keys::kMusicSongsPath, std::move(songs_side_path));
  spec.mapper = [] { return std::make_unique<AlbumRatingMapper>(); };
  spec.combiner = [] { return std::make_unique<AlbumSumCombiner>(); };
  spec.reducer = [] { return std::make_unique<AlbumMeanReducer>(); };
  return spec;
}

}  // namespace mh::apps
