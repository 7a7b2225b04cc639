#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mh/common/config.h"
#include "mh/mr/fs_view.h"
#include "mh/mr/types.h"

/// \file input_format.h
/// Input splitting and record reading. TextInputFormat implements Hadoop's
/// line-splitting contract: a split that does not start at byte 0 skips its
/// leading partial line, and a line that *starts* inside a split is read to
/// completion even when it crosses the split boundary — so every line is
/// processed exactly once regardless of where block boundaries fall.

namespace mh::mr {

class RecordReader {
 public:
  virtual ~RecordReader() = default;
  /// Produces the next record; false at end of split. The views point at
  /// reader-owned storage (usually the split's backing buffer, uncopied)
  /// and stay valid until the next call to next() or the reader's
  /// destruction — copy (`Bytes(key)`) to keep a record longer.
  virtual bool next(std::string_view& key, std::string_view& value) = 0;
};

class InputFormat {
 public:
  virtual ~InputFormat() = default;

  /// Expands input paths (files or directories) into splits. Non-file
  /// input formats (e.g. hbase::TableInputFormat) override this to define
  /// their own split geometry.
  virtual std::vector<InputSplit> getSplits(
      FileSystemView& fs, const std::vector<std::string>& paths);

  /// `conf` is the job configuration (readers take tuning keys from it;
  /// formats that need none ignore it).
  virtual std::unique_ptr<RecordReader> createReader(
      FileSystemView& fs, const InputSplit& split, const Config& conf) = 0;
};

/// Records are lines; key = MrCodec<int64_t> byte offset of the line start,
/// value = the line without its terminator (trailing '\r' stripped).
class TextInputFormat final : public InputFormat {
 public:
  std::unique_ptr<RecordReader> createReader(FileSystemView& fs,
                                             const InputSplit& split,
                                             const Config& conf) override;
};

/// Records are kv_stream frames (used for binary intermediate files).
class KvInputFormat final : public InputFormat {
 public:
  std::unique_ptr<RecordReader> createReader(FileSystemView& fs,
                                             const InputSplit& split,
                                             const Config& conf) override;
};

using InputFormatFactory = std::function<std::unique_ptr<InputFormat>()>;

}  // namespace mh::mr
