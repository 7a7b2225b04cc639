#include "mh/mr/input_format.h"

#include "mh/common/error.h"
#include "mh/mr/kv_stream.h"

namespace mh::mr {

std::vector<InputSplit> InputFormat::getSplits(
    FileSystemView& fs, const std::vector<std::string>& paths) {
  std::vector<InputSplit> splits;
  for (const auto& path : paths) {
    for (const auto& file : fs.listFiles(path)) {
      // Skip framework artifacts (Hadoop does the same for _logs etc.).
      const auto slash = file.find_last_of('/');
      const std::string name =
          slash == std::string::npos ? file : file.substr(slash + 1);
      if (name.starts_with("_") || name.starts_with(".")) continue;
      for (auto& split : fs.splitsForFile(file)) {
        splits.push_back(std::move(split));
      }
    }
  }
  return splits;
}

namespace {

/// Line reader honoring the split contract, zero-copy over the split's
/// backing buffer: the split itself is held as a refcounted view (for an
/// HDFS split inside one block, the replica's buffer, uncopied) and values
/// are string_views into it. Only the final line's tail — read ahead in
/// chunks of `mapred.linerecordreader.readahead.bytes` past the split end —
/// lands in an owned spill buffer, and only a line straddling the
/// view/spill seam is ever spliced.
class LineRecordReader final : public RecordReader {
 public:
  LineRecordReader(FileSystemView& fs, const InputSplit& split,
                   uint64_t readahead)
      : fs_(fs), split_(split), readahead_(readahead) {
    base_ = fs_.readRangeView(split.path, split.offset, split.length);
    read_end_ = split.offset + base_.size();
    if (split.offset > 0) {
      // The previous split owns our leading partial line.
      const size_t nl = base_.view().find('\n');
      if (nl == std::string_view::npos) {
        // The whole split is the middle of one line owned by someone else.
        pos_ = base_.size();
        exhausted_ = true;
      } else {
        pos_ = nl + 1;
      }
    }
  }

  bool next(std::string_view& key, std::string_view& value) override {
    if (exhausted_ && pos_ >= size()) return false;
    // Lines STARTING strictly after the split end belong to a later split.
    // A line starting exactly AT the end boundary is ours: the next split
    // unconditionally skips its leading partial-or-boundary line, so we
    // must read one line "past the end" (Hadoop's `pos <= end` rule).
    if (pos_ > split_.length) return false;

    size_t nl = findNewline(pos_);
    while (nl == kNpos) {
      // Line crosses the end of what we fetched; read ahead.
      const Bytes more = fs_.readRange(split_.path, read_end_, readahead_);
      if (more.empty()) break;  // EOF: last line has no terminator
      read_end_ += more.size();
      tail_ += more;
      nl = findNewline(pos_);
    }

    const size_t line_start = pos_;
    size_t line_end;
    if (nl == kNpos) {
      line_end = size();
      pos_ = size();
      exhausted_ = true;
      if (line_end == line_start) return false;  // empty tail
    } else {
      line_end = nl;
      pos_ = nl + 1;
    }
    if (line_end > line_start && at(line_end - 1) == '\r') --line_end;

    key_ = MrCodec<int64_t>::enc(
        static_cast<int64_t>(split_.offset + line_start));
    key = key_;
    value = lineView(line_start, line_end);
    return true;
  }

 private:
  static constexpr size_t kNpos = std::string_view::npos;

  /// Logical stream length: the split view plus readahead spill.
  size_t size() const { return base_.size() + tail_.size(); }

  char at(size_t i) const {
    return i < base_.size() ? base_.view()[i] : tail_[i - base_.size()];
  }

  size_t findNewline(size_t from) const {
    if (from < base_.size()) {
      const size_t nl = base_.view().find('\n', from);
      if (nl != kNpos) return nl;
    }
    const size_t tail_from = from > base_.size() ? from - base_.size() : 0;
    const size_t nl = tail_.find('\n', tail_from);
    return nl == Bytes::npos ? kNpos : base_.size() + nl;
  }

  std::string_view lineView(size_t start, size_t end) {
    if (end <= base_.size()) return base_.view().substr(start, end - start);
    if (start >= base_.size()) {
      return std::string_view(tail_).substr(start - base_.size(), end - start);
    }
    // Straddles the view/spill seam (at most once, for the final line).
    line_.assign(base_.view().substr(start));
    line_.append(tail_, 0, end - base_.size());
    return line_;
  }

  FileSystemView& fs_;
  InputSplit split_;
  uint64_t readahead_;
  BufferView base_;  // the split's bytes; values alias this buffer
  Bytes tail_;       // readahead past the split end (final-line spillover)
  Bytes key_;        // backing store for the returned key view
  Bytes line_;       // splice buffer for a line straddling base_/tail_
  uint64_t read_end_ = 0;  // absolute file offset of the end of the stream
  size_t pos_ = 0;         // cursor within the stream (0 = split offset)
  bool exhausted_ = false;
};

/// Reads kv_stream frames. Only whole-file splits are supported (binary
/// frames are not boundary-seekable); callers use it for part files written
/// by KvOutputFormat.
class KvRecordReader final : public RecordReader {
 public:
  KvRecordReader(FileSystemView& fs, const InputSplit& split) {
    if (split.offset != 0 || split.length != fs.fileLength(split.path)) {
      throw InvalidArgumentError(
          "KvInputFormat requires whole-file splits: " + split.path);
    }
    data_ = fs.readRangeView(split.path, 0, split.length);
    reader_ = std::make_unique<KvReader>(data_.view());
  }

  bool next(std::string_view& key, std::string_view& value) override {
    return reader_->next(key, value);
  }

 private:
  BufferView data_;  // frames decode as views into this buffer
  std::unique_ptr<KvReader> reader_;
};

}  // namespace

std::unique_ptr<RecordReader> TextInputFormat::createReader(
    FileSystemView& fs, const InputSplit& split, const Config& conf) {
  return std::make_unique<LineRecordReader>(
      fs, split, static_cast<uint64_t>(conf.get(keys::kReadaheadBytes)));
}

std::unique_ptr<RecordReader> KvInputFormat::createReader(
    FileSystemView& fs, const InputSplit& split, const Config&) {
  return std::make_unique<KvRecordReader>(fs, split);
}

}  // namespace mh::mr
