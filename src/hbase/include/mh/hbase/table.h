#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mh/common/config.h"
#include "mh/hbase/cell.h"
#include "mh/mr/fs_view.h"

/// \file table.h
/// A single-region mini-HBase table: an LSM tree over any FileSystemView
/// (HDFS or local). This is the working artifact behind the course's
/// Fall-2013 HBase lecture — "a more comprehensive view of the Hadoop
/// ecosystem" — demonstrating how a random-access, mutable store is built
/// on top of an immutable, append-only file system:
///
///  * writes land in an in-memory **MemStore** and in **WAL segments**
///    (write-once files, grouped every `hbase.wal.segment.ops` mutations);
///  * **flush()** turns the MemStore into an immutable sorted **HFile**;
///  * reads/scans merge the MemStore with every HFile, newest version
///    wins, delete tombstones hide older puts;
///  * **compact()** folds all HFiles into one, discarding shadowed
///    versions and tombstones;
///  * **open()** recovers state from HFiles + WAL replay after a crash.
///
/// Directory layout under `<root>/<name>`:
///   hfile-<seq>   sorted immutable runs
///   wal-<seq>     write-ahead segments since the last flush

namespace mh::hbase {

/// One row of scan output: column -> value.
struct RowResult {
  std::string row;
  std::map<std::string, Bytes> columns;

  bool operator==(const RowResult&) const = default;
};

class Table {
 public:
  /// Opens (or creates) the table at `<root>/<name>`, replaying any WAL
  /// segments left by a crash. `fs` must outlive the table.
  static std::unique_ptr<Table> open(mr::FileSystemView& fs,
                                     const std::string& root,
                                     const std::string& name,
                                     Config conf = {});

  /// Writes a cell (buffered in the MemStore; WAL-segmented durability).
  void put(const std::string& row, const std::string& column, Bytes value);

  /// Tombstones a cell.
  void remove(const std::string& row, const std::string& column);

  /// Latest value, or nullopt if absent/deleted.
  std::optional<Bytes> get(const std::string& row, const std::string& column);

  /// All live columns of one row.
  std::optional<RowResult> getRow(const std::string& row);

  /// Rows in [start_row, end_row), merged and deduplicated, newest wins.
  /// An empty end_row means "to the end".
  std::vector<RowResult> scan(const std::string& start_row = "",
                              const std::string& end_row = "");

  /// Persists the MemStore as a new HFile and drops the WAL segments.
  void flush();

  /// Merges every HFile into one, dropping shadowed versions + tombstones.
  /// Flushes first so the result is the complete table.
  void compact();

  /// Forces any buffered WAL ops into a segment (group-commit sync).
  void syncWal();

  // ----- introspection ------------------------------------------------

  size_t memstoreCells() const { return memstore_.size(); }
  size_t hfileCount() const { return hfiles_.size(); }
  uint64_t lastSeq() const { return next_seq_ - 1; }

 private:
  Table(mr::FileSystemView& fs, std::string dir, const Config& conf);

  void recover();
  void logToWal(const Cell& cell);
  void writeWalSegment();
  /// All cells, sorted, memstore + hfiles (no dedup).
  std::vector<Cell> mergedCells() const;

  mr::FileSystemView& fs_;
  std::string dir_;
  size_t wal_segment_ops_;

  std::map<std::pair<std::string, std::string>, Cell> memstore_;
  std::vector<std::vector<Cell>> hfiles_;  // loaded, each sorted
  std::vector<std::string> hfile_paths_;
  std::vector<Cell> wal_buffer_;
  uint64_t next_seq_ = 1;
  uint64_t next_file_seq_ = 1;
  uint64_t next_wal_seq_ = 1;
};

}  // namespace mh::hbase
