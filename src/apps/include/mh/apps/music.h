#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mh/apps/airline.h"  // DelaySum: the reusable (sum, count) monoid
#include "mh/mr/job.h"

/// \file music.h
/// Assignment 2 part 2 (§III-B): "identify the album that has the highest
/// average rating" over Yahoo-Music-style data on HDFS. Songs map to albums
/// via the songs.tsv side table (config key music.songs.path); the
/// average is computed with the DelaySum monoid and the winner selected by
/// chaining the generic select-max job over this job's output.

namespace mh::apps {

/// Parsed songs.tsv: songId -> albumId.
class SongTable {
 public:
  static SongTable load(mr::FileSystemView& fs, const std::string& path);
  /// 0 when the song is unknown.
  uint32_t album(uint32_t song_id) const;
  size_t size() const { return album_.size(); }
  int64_t approxBytes() const { return static_cast<int64_t>(album_.size()) * 16; }

 private:
  std::map<uint32_t, uint32_t> album_;
};

/// Parses "userId<TAB>songId<TAB>rating"; false on malformed rows.
bool parseMusicRating(std::string_view line, uint32_t& user, uint32_t& song,
                      double& rating);

/// Album-average job. Output: "albumId<TAB>mean" (3 decimals).
mr::JobSpec makeAlbumAverageJob(std::vector<std::string> ratings_inputs,
                                std::string songs_side_path,
                                std::string output,
                                uint32_t num_reducers = 1);

}  // namespace mh::apps
