// Explicit little-endian byte (de)serialization.
//
// Everything FlashPS puts on a wire or a disk goes through these two
// cursors: multi-byte integers are assembled byte-by-byte, so the encoded
// form is identical on every host and nothing is ever reinterpret_cast off
// a buffer. Byte runs whose order the caller already fixed (an encoded
// matrix payload) move in bulk, one bounds check and one memcpy. The
// reader is fail-soft — the first short or out-of-range read flips ok()
// to false and every later read returns zero (or copies nothing), so
// decoders can run straight-line and check once at the end.
#ifndef FLASHPS_SRC_COMMON_BYTES_H_
#define FLASHPS_SRC_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace flashps {

// Appends little-endian encoded values to a caller-owned byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>& out) : out_(out) {}

  void U8(uint8_t v) { out_.push_back(v); }
  void U16(uint16_t v) {
    out_.push_back(static_cast<uint8_t>(v));
    out_.push_back(static_cast<uint8_t>(v >> 8));
  }
  void U32(uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
      out_.push_back(static_cast<uint8_t>(v >> shift));
    }
  }
  void U64(uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      out_.push_back(static_cast<uint8_t>(v >> shift));
    }
  }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Bytes(const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    out_.insert(out_.end(), p, p + n);
  }
  void String(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }

  size_t size() const { return out_.size(); }

 private:
  std::vector<uint8_t>& out_;
};

// Reads little-endian values off a borrowed buffer. Never throws; a short
// read latches ok() to false and yields zeros from then on.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t U8() {
    if (!Need(1)) return 0;
    return data_[off_++];
  }
  uint16_t U16() {
    if (!Need(2)) return 0;
    uint16_t v = static_cast<uint16_t>(data_[off_]) |
                 static_cast<uint16_t>(data_[off_ + 1]) << 8;
    off_ += 2;
    return v;
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(data_[off_ + i]) << (8 * i);
    }
    off_ += 4;
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data_[off_ + i]) << (8 * i);
    }
    off_ += 8;
    return v;
  }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  std::string String() {
    const uint32_t n = U32();
    if (!Need(n)) return std::string();
    std::string s(reinterpret_cast<const char*>(data_ + off_), n);
    off_ += n;
    return s;
  }
  // Copies the next `n` bytes to `out` verbatim. A short read copies
  // nothing and latches ok() false.
  void Bytes(void* out, size_t n) {
    if (!Need(n)) return;
    if (n > 0) std::memcpy(out, data_ + off_, n);
    off_ += n;
  }
  // The next `n` bytes where they lie, skipped over; null (and ok() false)
  // on a short read.
  const uint8_t* Skip(size_t n) {
    if (!Need(n)) return nullptr;
    const uint8_t* at = data_ + off_;
    off_ += n;
    return at;
  }

  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - off_; }
  size_t offset() const { return off_; }
  // Marks the whole read as failed (for semantic validation errors).
  void Fail() { ok_ = false; }

 private:
  bool Need(size_t n) {
    if (!ok_ || size_ - off_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t off_ = 0;
  bool ok_ = true;
};

}  // namespace flashps

#endif  // FLASHPS_SRC_COMMON_BYTES_H_
