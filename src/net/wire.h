// Wire-level primitives for the v1 binary codec: a growable byte writer and
// a bounds-checked reader over varints (LEB128), zigzag-signed integers,
// length-prefixed strings, and little-endian fixed words, plus the FNV-1a
// checksum the frame format carries.
//
// Every malformed-input path throws CodecError — readers never read past
// `end`, never trust an embedded length before checking it against the
// remaining bytes, and cap varints at their maximal encoded width — so a
// truncated or corrupted frame is rejected without undefined behaviour
// (the codec fuzz test runs these paths under ASan/UBSan).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace hds::net {

class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error("wire codec: " + what) {}
};

// Encoded width of an unsigned LEB128 varint, without encoding it.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

class WireWriter {
 public:
  // Tag selecting the counting mode: the writer materializes nothing and
  // only tracks size(). This is how the substrates estimate per-broadcast
  // wire bytes without allocating or copying on the hot path.
  struct CountOnly {};

  WireWriter() = default;
  explicit WireWriter(CountOnly) : counting_(true) {}

  void u8(std::uint8_t v) {
    if (counting_) {
      ++count_;
      return;
    }
    buf_.push_back(v);
  }

  // Little-endian fixed 32-bit word (the checksum slot).
  void u32_fixed(std::uint32_t v) {
    if (counting_) {
      count_ += 4;
      return;
    }
    buf_.push_back(static_cast<std::uint8_t>(v & 0xFF));
    buf_.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
    buf_.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
    buf_.push_back(static_cast<std::uint8_t>((v >> 24) & 0xFF));
  }

  // Unsigned LEB128.
  void varint(std::uint64_t v) {
    if (counting_) {
      count_ += varint_size(v);
      return;
    }
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  // Zigzag-mapped signed integer (small magnitudes of either sign stay short).
  void svarint(std::int64_t v) {
    varint((static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63));
  }

  void bytes(const void* data, std::size_t len) {
    if (counting_) {
      count_ += len;
      return;
    }
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }

  // Length-prefixed string.
  void str(const std::string& s) {
    varint(s.size());
    bytes(s.data(), s.size());
  }

  // In counting mode data() is always empty; use size().
  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::size_t size() const { return counting_ ? count_ : buf_.size(); }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t count_ = 0;
  bool counting_ = false;
};

class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t len) : p_(data), end_(data + len) {}

  [[nodiscard]] std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  [[nodiscard]] const std::uint8_t* cursor() const { return p_; }

  std::uint8_t u8() {
    need(1);
    return *p_++;
  }

  std::uint32_t u32_fixed() {
    need(4);
    std::uint32_t v = static_cast<std::uint32_t>(p_[0]) | (static_cast<std::uint32_t>(p_[1]) << 8) |
                      (static_cast<std::uint32_t>(p_[2]) << 16) |
                      (static_cast<std::uint32_t>(p_[3]) << 24);
    p_ += 4;
    return v;
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      const std::uint8_t b = u8();
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        // The 10th byte may only contribute the top bit of a u64.
        if (shift == 63 && b > 1) throw CodecError("varint overflows 64 bits");
        return v;
      }
    }
    throw CodecError("varint longer than 10 bytes");
  }

  std::int64_t svarint() {
    const std::uint64_t z = varint();
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  std::string str() {
    const std::uint64_t len = varint();
    if (len > remaining()) throw CodecError("string length exceeds remaining bytes");
    std::string s(reinterpret_cast<const char*>(p_), static_cast<std::size_t>(len));
    p_ += len;
    return s;
  }

  void skip(std::size_t len) {
    need(len);
    p_ += len;
  }

 private:
  void need(std::size_t len) const {
    if (remaining() < len) throw CodecError("truncated input");
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

// FNV-1a 32-bit, the frame checksum (cheap, endian-free, catches the
// truncation/bit-rot class of faults; not cryptographic).
[[nodiscard]] std::uint32_t fnv1a(const std::uint8_t* data, std::size_t len);

}  // namespace hds::net
