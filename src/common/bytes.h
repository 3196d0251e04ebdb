#ifndef PPC_COMMON_BYTES_H_
#define PPC_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace ppc {

/// Little-endian binary writer used by the synopsis serialization code
/// and the wire codec. By default it fills a buffer of its own (Take());
/// given `out`, it appends to the caller's string in place instead, so a
/// frame is written where it will be sent from.
class ByteWriter {
 public:
  ByteWriter() : out_(&buffer_) {}
  explicit ByteWriter(std::string* out) : out_(out) {}
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }

  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }

  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    out_->append(s);
  }

  /// Bulk PutDouble: one append instead of `count` per-value calls. On the
  /// little-endian targets this code runs on, the memcpy emits exactly the
  /// bytes the per-value loop would (IEEE-754 values copied in order), so
  /// the serialized form is unchanged — this only removes per-element
  /// bookkeeping from the batch encode hot path.
  void PutDoubles(const double* values, size_t count) {
    PutRaw(values, count * sizeof(double));
  }

  const std::string& buffer() const { return *out_; }
  std::string Take() { return std::move(*out_); }

 private:
  void PutRaw(const void* data, size_t size) {
    out_->append(static_cast<const char*>(data), size);
  }

  std::string buffer_;
  std::string* const out_;
};

/// Bounds-checked reader over a serialized buffer, which must outlive it.
/// The Get* reads return OutOfRange on truncated input instead of reading
/// past the end. The Read* forms under them write into caller storage and
/// return false instead, moving nothing, so a hot decoder (the wire codec)
/// pays for no Result and no copy; Truncated() then gives the same error.
class ByteReader {
 public:
  explicit ByteReader(std::string_view buffer) : buffer_(buffer) {}

  template <typename T>
  bool Read(T* out) {
    if (remaining() < sizeof(T)) return false;
    std::memcpy(out, buffer_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadDoubles(double* out, size_t count) {
    if (remaining() < count * sizeof(double)) return false;
    std::memcpy(out, buffer_.data() + pos_, count * sizeof(double));
    pos_ += count * sizeof(double);
    return true;
  }

  /// A u32 length and that many bytes, assigned into `*out`, which keeps
  /// its storage. When the bytes fall short, the offset stays past the
  /// length.
  bool ReadString(std::string* out) {
    uint32_t size = 0;
    if (!Read(&size) || remaining() < size) return false;
    out->assign(buffer_.data() + pos_, size);
    pos_ += size;
    return true;
  }

  /// The error of a read that ran out of bytes at the current offset.
  Status Truncated() const {
    return Status::OutOfRange("serialized buffer truncated at offset " +
                              std::to_string(pos_));
  }

  Result<uint8_t> GetU8() { return Get<uint8_t>(); }
  Result<uint32_t> GetU32() { return Get<uint32_t>(); }
  Result<uint64_t> GetU64() { return Get<uint64_t>(); }
  Result<double> GetDouble() { return Get<double>(); }

  /// Bulk GetDouble into caller storage: a single bounds check and memcpy
  /// for `count` values. Reads the same bytes the per-value loop would.
  Status GetDoubles(double* out, size_t count) {
    if (!ReadDoubles(out, count)) return Truncated();
    return Status::OK();
  }

  Result<std::string> GetString() {
    std::string out;
    if (!ReadString(&out)) return Truncated();
    return out;
  }

  bool AtEnd() const { return pos_ == buffer_.size(); }
  size_t position() const { return pos_; }
  size_t remaining() const { return buffer_.size() - pos_; }

 private:
  template <typename T>
  Result<T> Get() {
    T v{};
    if (!Read(&v)) return Truncated();
    return v;
  }

  const std::string_view buffer_;
  size_t pos_ = 0;
};

}  // namespace ppc

#endif  // PPC_COMMON_BYTES_H_
