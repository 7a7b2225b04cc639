#pragma once

#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

#include "mh/common/bytes.h"
#include "mh/common/error.h"

/// \file buffer.h
/// Immutable refcounted payload buffers — the zero-copy currency of the data
/// path. A `Buffer` owns bytes behind a `shared_ptr<const Bytes>`; a
/// `BufferView` is a (owner, offset, length) slice whose copy costs one
/// refcount bump plus two integers. Block reads, RPC requests and replies,
/// and shuffle runs travel as views, so a 64 MB block served to a
/// co-located reader moves zero payload bytes.
///
/// Ownership rules (see DESIGN.md "Zero-copy data path"):
///  * Buffers are immutable once constructed. Mutation is copy-on-write at
///    the producer (e.g. MemBlockStore::corruptBlock builds a new Buffer).
///  * A view keeps its whole backing buffer alive; holding a tiny view of a
///    huge buffer pins the huge buffer. Call `str()` to detach.
///  * `str()` / assembling into a `Bytes` is the explicit copy point.

namespace mh {

class BufferView;

/// An immutable, refcounted byte buffer.
class Buffer {
 public:
  Buffer() = default;

  /// Takes ownership of `data` without copying.
  static Buffer fromString(Bytes&& data) {
    return Buffer(std::make_shared<const Bytes>(std::move(data)));
  }

  /// Copies `data` into a fresh buffer (the explicit copy point).
  static Buffer copyOf(std::string_view data) {
    return Buffer(std::make_shared<const Bytes>(data));
  }

  /// Adopts an existing shared payload — e.g. a MapOutputStore run — so the
  /// buffer aliases it instead of copying.
  static Buffer wrap(std::shared_ptr<const Bytes> data) {
    return Buffer(std::move(data));
  }

  bool empty() const { return data_ == nullptr || data_->empty(); }
  size_t size() const { return data_ == nullptr ? 0 : data_->size(); }
  const char* data() const { return data_ == nullptr ? nullptr : data_->data(); }

  std::string_view view() const {
    return data_ == nullptr ? std::string_view{} : std::string_view(*data_);
  }

  /// The underlying shared payload (null for a default-constructed buffer).
  const std::shared_ptr<const Bytes>& shared() const { return data_; }

  /// How many owners (buffers + views) share the payload; 0 when empty.
  long useCount() const { return data_ == nullptr ? 0 : data_.use_count(); }

 private:
  explicit Buffer(std::shared_ptr<const Bytes> data) : data_(std::move(data)) {}

  std::shared_ptr<const Bytes> data_;
};

/// A cheap slice of a Buffer: refcounted owner + (offset, length). Copying a
/// view never copies payload bytes; the view keeps the backing buffer alive.
class BufferView {
 public:
  BufferView() = default;

  /// Whole-buffer view.
  BufferView(Buffer buffer)  // NOLINT(google-explicit-constructor)
      : buffer_(std::move(buffer)), offset_(0), length_(buffer_.size()) {}

  /// Adopts owned bytes without copying, so a freshly packed message
  /// (`pack(...)`) converts wherever a view is expected. Lvalues do not
  /// convert: copying them must be spelled `Buffer::copyOf`.
  BufferView(Bytes&& data)  // NOLINT(google-explicit-constructor)
      : BufferView(Buffer::fromString(std::move(data))) {}

  /// Sub-range view; throws InvalidArgumentError when the range does not
  /// fit inside the buffer (length is NOT clamped — callers state intent).
  BufferView(Buffer buffer, size_t offset, size_t length)
      : buffer_(std::move(buffer)), offset_(offset), length_(length) {
    if (offset_ > buffer_.size() || length_ > buffer_.size() - offset_) {
      throw InvalidArgumentError(
          "BufferView range [" + std::to_string(offset_) + ", +" +
          std::to_string(length_) + ") outside buffer of " +
          std::to_string(buffer_.size()) + " bytes");
    }
  }

  bool empty() const { return length_ == 0; }
  size_t size() const { return length_; }
  const char* data() const { return buffer_.data() + offset_; }

  std::string_view view() const {
    return buffer_.view().substr(offset_, length_);
  }
  operator std::string_view() const { return view(); }  // NOLINT

  /// A narrower view sharing the same backing buffer. `length` is clamped
  /// to the view end (substr semantics); `offset` past the end throws.
  BufferView slice(size_t offset, size_t length) const {
    if (offset > length_) {
      throw InvalidArgumentError("BufferView::slice offset " +
                                 std::to_string(offset) + " past view end " +
                                 std::to_string(length_));
    }
    return BufferView(buffer_, offset_ + offset,
                      std::min(length, length_ - offset), Unchecked{});
  }

  /// Materializes the slice as an owned string (the explicit copy point).
  Bytes str() const { return Bytes(view()); }

  /// The backing buffer (its size may exceed this view's).
  const Buffer& buffer() const { return buffer_; }

 private:
  struct Unchecked {};
  BufferView(Buffer buffer, size_t offset, size_t length, Unchecked)
      : buffer_(std::move(buffer)), offset_(offset), length_(length) {}

  Buffer buffer_;
  size_t offset_ = 0;
  size_t length_ = 0;
};

/// Content equality. The string_view overloads also cover Bytes and string
/// literals (both convert), which keeps gtest EXPECT_EQ natural.
inline bool operator==(const BufferView& a, const BufferView& b) {
  return a.view() == b.view();
}
inline bool operator==(const BufferView& a, std::string_view b) {
  return a.view() == b;
}
inline bool operator==(std::string_view a, const BufferView& b) {
  return a == b.view();
}

inline std::ostream& operator<<(std::ostream& os, const BufferView& v) {
  return os << v.view();
}

}  // namespace mh
