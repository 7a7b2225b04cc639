#include "mh/hbase/table.h"

#include <algorithm>

#include "mh/common/error.h"
#include "mh/common/log.h"
#include "mh/common/strings.h"
#include "mh/hbase/hfile.h"

namespace mh::hbase {

namespace {
constexpr const char* kLog = "hbase";

uint64_t suffixNumber(const std::string& path, const char* prefix) {
  const auto slash = path.find_last_of('/');
  const std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  if (name.rfind(prefix, 0) != 0) return 0;
  const std::string digits = name.substr(std::string(prefix).size());
  return isDigits(digits) ? std::stoull(digits) : 0;
}

}  // namespace

Table::Table(mr::FileSystemView& fs, std::string dir, const Config& conf)
    : fs_(fs),
      dir_(std::move(dir)),
      wal_segment_ops_(conf.get(keys::kHbaseWalSegmentOps)) {
  conf.validate(keys::Scope::kDaemon);
}

std::unique_ptr<Table> Table::open(mr::FileSystemView& fs,
                                   const std::string& root,
                                   const std::string& name, Config conf) {
  auto table =
      std::unique_ptr<Table>(new Table(fs, root + "/" + name, conf));
  fs.mkdirs(table->dir_);
  table->recover();
  return table;
}

void Table::recover() {
  // Collect hfile-* and wal-* under the table dir, ordered by sequence.
  std::vector<std::pair<uint64_t, std::string>> hfile_entries;
  std::vector<std::pair<uint64_t, std::string>> wal_entries;
  for (const auto& path : fs_.listFiles(dir_)) {
    if (const uint64_t n = suffixNumber(path, "hfile-"); n > 0) {
      hfile_entries.emplace_back(n, path);
    } else if (const uint64_t n2 = suffixNumber(path, "wal-"); n2 > 0) {
      wal_entries.emplace_back(n2, path);
    }
  }
  std::sort(hfile_entries.begin(), hfile_entries.end());
  std::sort(wal_entries.begin(), wal_entries.end());

  for (const auto& [seq, path] : hfile_entries) {
    hfiles_.push_back(readHFile(fs_, path));
    hfile_paths_.push_back(path);
    next_file_seq_ = std::max(next_file_seq_, seq + 1);
    for (const Cell& cell : hfiles_.back()) {
      next_seq_ = std::max(next_seq_, cell.seq + 1);
    }
  }
  // Replay WAL segments into the MemStore (they are cells since the last
  // flush; a crash lost only the unsynced tail of the in-memory buffer).
  for (const auto& [seq, path] : wal_entries) {
    const Bytes body = fs_.readRange(path, 0, fs_.fileLength(path));
    ByteReader r(body);
    while (!r.atEnd()) {
      Cell cell = Serde<Cell>::decode(r);
      next_seq_ = std::max(next_seq_, cell.seq + 1);
      memstore_[{cell.row, cell.column}] = std::move(cell);
    }
    next_wal_seq_ = std::max(next_wal_seq_, seq + 1);
  }
  if (!wal_entries.empty()) {
    logInfo(kLog) << dir_ << ": replayed " << wal_entries.size()
                  << " WAL segment(s), " << memstore_.size()
                  << " cells into the memstore";
  }
}

void Table::writeWalSegment() {
  if (wal_buffer_.empty()) return;
  Bytes body;
  ByteWriter w(body);
  for (const Cell& cell : wal_buffer_) {
    Serde<Cell>::encode(w, cell);
  }
  fs_.writeFile(dir_ + "/wal-" + std::to_string(next_wal_seq_++), body);
  wal_buffer_.clear();
}

void Table::logToWal(const Cell& cell) {
  wal_buffer_.push_back(cell);
  if (wal_buffer_.size() >= wal_segment_ops_) writeWalSegment();
}

void Table::syncWal() { writeWalSegment(); }

void Table::put(const std::string& row, const std::string& column,
                Bytes value) {
  Cell cell{row, column, next_seq_++, CellType::kPut, std::move(value)};
  logToWal(cell);
  memstore_[{row, column}] = std::move(cell);
}

void Table::remove(const std::string& row, const std::string& column) {
  Cell cell{row, column, next_seq_++, CellType::kDelete, {}};
  logToWal(cell);
  memstore_[{row, column}] = std::move(cell);
}

std::optional<Bytes> Table::get(const std::string& row,
                                const std::string& column) {
  // MemStore first (always newest), then HFiles newest-file-first.
  const auto it = memstore_.find({row, column});
  if (it != memstore_.end()) {
    if (it->second.type == CellType::kDelete) return std::nullopt;
    return it->second.value;
  }
  const Cell probe{row, column, UINT64_MAX, CellType::kPut, {}};
  const Cell* best = nullptr;
  for (const auto& hfile : hfiles_) {
    const auto pos = std::lower_bound(hfile.begin(), hfile.end(), probe);
    if (pos != hfile.end() && pos->sameCoord(probe)) {
      if (best == nullptr || pos->seq > best->seq) best = &*pos;
    }
  }
  if (best == nullptr || best->type == CellType::kDelete) return std::nullopt;
  return best->value;
}

std::vector<Cell> Table::mergedCells() const {
  std::vector<Cell> all;
  for (const auto& hfile : hfiles_) {
    all.insert(all.end(), hfile.begin(), hfile.end());
  }
  for (const auto& [coord, cell] : memstore_) {
    all.push_back(cell);
  }
  std::sort(all.begin(), all.end());
  return all;
}

std::vector<RowResult> Table::scan(const std::string& start_row,
                                   const std::string& end_row) {
  std::vector<RowResult> out;
  const auto cells = mergedCells();
  size_t i = 0;
  while (i < cells.size()) {
    // cells are (row, col) ascending with newest seq first: cells[i] is the
    // authoritative version of its coordinate.
    const Cell& cell = cells[i];
    size_t j = i + 1;
    while (j < cells.size() && cells[j].sameCoord(cell)) ++j;
    i = j;
    if (cell.row < start_row) continue;
    if (!end_row.empty() && cell.row >= end_row) continue;
    if (cell.type == CellType::kDelete) continue;
    if (out.empty() || out.back().row != cell.row) {
      out.push_back({cell.row, {}});
    }
    out.back().columns[cell.column] = cell.value;
  }
  return out;
}

std::optional<RowResult> Table::getRow(const std::string& row) {
  // Half-open scan over exactly this row: end key is row + '\0'.
  auto rows = scan(row, row + std::string(1, '\0'));
  if (rows.empty()) return std::nullopt;
  return std::move(rows.front());
}

void Table::flush() {
  writeWalSegment();
  if (memstore_.empty()) return;
  std::vector<Cell> cells;
  cells.reserve(memstore_.size());
  for (const auto& [coord, cell] : memstore_) cells.push_back(cell);
  std::sort(cells.begin(), cells.end());

  const std::string path =
      dir_ + "/hfile-" + std::to_string(next_file_seq_++);
  writeHFile(fs_, path, cells);
  hfiles_.push_back(std::move(cells));
  hfile_paths_.push_back(path);
  memstore_.clear();

  // The WAL is superseded by the durable HFile.
  for (const auto& file : fs_.listFiles(dir_)) {
    if (suffixNumber(file, "wal-") > 0) fs_.remove(file);
  }
  logInfo(kLog) << dir_ << ": flushed to " << path;
}

void Table::compact() {
  flush();
  if (hfiles_.size() <= 1 &&
      (hfiles_.empty() ||
       std::none_of(hfiles_[0].begin(), hfiles_[0].end(), [](const Cell& c) {
         return c.type == CellType::kDelete;
       }))) {
    return;  // already compact and tombstone-free
  }
  // Keep only the newest version per coordinate; drop tombstones entirely.
  std::vector<Cell> survivors;
  const auto cells = mergedCells();
  size_t i = 0;
  while (i < cells.size()) {
    const Cell& cell = cells[i];
    size_t j = i + 1;
    while (j < cells.size() && cells[j].sameCoord(cell)) ++j;
    i = j;
    if (cell.type == CellType::kPut) survivors.push_back(cell);
  }

  for (const auto& path : hfile_paths_) fs_.remove(path);
  hfiles_.clear();
  hfile_paths_.clear();
  if (!survivors.empty()) {
    const std::string path =
        dir_ + "/hfile-" + std::to_string(next_file_seq_++);
    writeHFile(fs_, path, survivors);
    hfiles_.push_back(std::move(survivors));
    hfile_paths_.push_back(path);
  }
  logInfo(kLog) << dir_ << ": compacted to " << hfiles_.size() << " hfile(s)";
}

}  // namespace mh::hbase
