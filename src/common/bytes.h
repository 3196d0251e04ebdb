#ifndef PPC_COMMON_BYTES_H_
#define PPC_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/status.h"

namespace ppc {

/// Little-endian binary writer used by the synopsis serialization code.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }

  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }

  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buffer_.append(s);
  }

  /// Bulk PutDouble: one append instead of `count` per-value calls. On the
  /// little-endian targets this code runs on, the memcpy emits exactly the
  /// bytes the per-value loop would (IEEE-754 values copied in order), so
  /// the serialized form is unchanged — this only removes per-element
  /// bookkeeping from the batch encode hot path.
  void PutDoubles(const double* values, size_t count) {
    buffer_.append(reinterpret_cast<const char*>(values),
                   count * sizeof(double));
  }

  const std::string& buffer() const { return buffer_; }
  std::string Take() { return std::move(buffer_); }

 private:
  void PutRaw(const void* data, size_t size) {
    buffer_.append(reinterpret_cast<const char*>(data), size);
  }

  std::string buffer_;
};

/// Bounds-checked reader over a serialized buffer. All reads return
/// OutOfRange on truncated input instead of reading past the end.
class ByteReader {
 public:
  explicit ByteReader(const std::string& buffer) : buffer_(buffer) {}

  Result<uint8_t> GetU8() {
    PPC_RETURN_NOT_OK(Require(1));
    return static_cast<uint8_t>(buffer_[pos_++]);
  }

  Result<uint32_t> GetU32() { return GetRaw<uint32_t>(); }
  Result<uint64_t> GetU64() { return GetRaw<uint64_t>(); }
  Result<double> GetDouble() { return GetRaw<double>(); }

  /// Bulk GetDouble into caller storage: a single bounds check and memcpy
  /// for `count` values. Reads the same bytes the per-value loop would.
  Status GetDoubles(double* out, size_t count) {
    PPC_RETURN_NOT_OK(Require(count * sizeof(double)));
    std::memcpy(out, buffer_.data() + pos_, count * sizeof(double));
    pos_ += count * sizeof(double);
    return Status::OK();
  }

  Result<std::string> GetString() {
    PPC_ASSIGN_OR_RETURN(uint32_t size, GetU32());
    PPC_RETURN_NOT_OK(Require(size));
    std::string out = buffer_.substr(pos_, size);
    pos_ += size;
    return out;
  }

  bool AtEnd() const { return pos_ == buffer_.size(); }
  size_t position() const { return pos_; }
  size_t remaining() const { return buffer_.size() - pos_; }

 private:
  // PPC_RETURN_NOT_OK propagates into Result<T> returns via the implicit
  // Result(Status) constructor.
  Status Require(size_t bytes) const {
    if (pos_ + bytes > buffer_.size()) {
      return Status::OutOfRange("serialized buffer truncated at offset " +
                                std::to_string(pos_));
    }
    return Status::OK();
  }

  template <typename T>
  Result<T> GetRaw() {
    PPC_RETURN_NOT_OK(Require(sizeof(T)));
    T v;
    std::memcpy(&v, buffer_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const std::string& buffer_;
  size_t pos_ = 0;
};

}  // namespace ppc

#endif  // PPC_COMMON_BYTES_H_
