// Compact-CDR decoder (see encoder.hpp for the format).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/buffer_pool.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace maqs::cdr {

/// Thrown on malformed or truncated streams. Marshaling errors from remote
/// peers must never crash the process (untrusted input).
class CdrError : public Error {
 public:
  using Error::Error;
};

class Decoder {
 public:
  /// Non-owning view; the buffer must outlive the decoder.
  explicit Decoder(util::BytesView data) : data_(data) {}

  /// Owning variant (rvalues only): expressions like
  /// `Decoder dec(stub.invoke(...))` are safe because the returned
  /// temporary is moved into the decoder instead of dangling. Lvalue
  /// buffers keep using the zero-copy view overload.
  explicit Decoder(util::Bytes&& owned)
      : owned_(std::move(owned)), data_(owned_) {}

  /// An owned buffer is a dead frame once decoding ends — recycle its
  /// storage instead of freeing it (no-op for the view constructor).
  ~Decoder() {
    if (owned_.capacity() > 0) {
      util::BufferPool::instance().release(std::move(owned_));
    }
  }

  Decoder(const Decoder&) = delete;
  Decoder& operator=(const Decoder&) = delete;

  std::uint8_t read_u8() {
    require(1);
    return data_[pos_++];
  }

  bool read_bool() { return read_u8() != 0; }

  std::uint16_t read_u16() { return read_le<std::uint16_t>(); }
  std::uint32_t read_u32() { return read_le<std::uint32_t>(); }
  std::uint64_t read_u64() { return read_le<std::uint64_t>(); }

  std::int16_t read_i16() { return static_cast<std::int16_t>(read_u16()); }
  std::int32_t read_i32() { return static_cast<std::int32_t>(read_u32()); }
  std::int64_t read_i64() { return static_cast<std::int64_t>(read_u64()); }

  float read_f32() { return std::bit_cast<float>(read_u32()); }
  double read_f64() { return std::bit_cast<double>(read_u64()); }

  std::string read_string() { return std::string(read_string_view()); }

  /// Zero-copy string read: the view aliases the decoder's buffer and is
  /// valid only while that buffer lives (for the owning constructor, while
  /// the decoder itself lives). Use when the caller doesn't keep the value.
  std::string_view read_string_view() {
    const std::uint32_t n = read_u32();
    require(n);
    std::string_view s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  util::Bytes read_bytes() {
    const util::BytesView v = read_bytes_view();
    return util::Bytes(v.begin(), v.end());
  }

  /// Zero-copy octet-sequence read; same lifetime rule as
  /// read_string_view().
  util::BytesView read_bytes_view() { return read_raw_view(read_u32()); }

  /// Zero-copy read of `n` raw octets (no length prefix); same lifetime
  /// rule as read_string_view(). Bulk sequence unmarshaling reads a whole
  /// fixed-width element array through this.
  util::BytesView read_raw_view(std::size_t n) {
    require(n);
    const util::BytesView v = data_.subspan(pos_, n);
    pos_ += n;
    return v;
  }

  /// Remaining unread octets.
  std::size_t remaining() const noexcept { return data_.size() - pos_; }

  /// Consumes and returns the unread rest of the stream (no length
  /// prefix). QoS skeletons use this to lift the raw argument stream out
  /// for aspect transforms (decompression, decryption).
  util::Bytes read_remaining() {
    const util::BytesView v = read_remaining_view();
    return util::Bytes(v.begin(), v.end());
  }

  /// Zero-copy variant of read_remaining(); same lifetime rule as
  /// read_string_view().
  util::BytesView read_remaining_view() {
    const util::BytesView v = data_.subspan(pos_);
    pos_ = data_.size();
    return v;
  }

  bool at_end() const noexcept { return remaining() == 0; }

  /// Throws CdrError unless the stream is fully consumed; skeletons call
  /// this after unmarshaling arguments to reject trailing garbage.
  void expect_end() const {
    if (!at_end()) throw CdrError("cdr: trailing bytes in stream");
  }

 private:
  template <typename T>
  T read_le() {
    require(sizeof(T));
    T v;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, data_.data() + pos_, sizeof(T));
    } else {
      v = 0;
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
      }
    }
    pos_ += sizeof(T);
    return v;
  }

  void require(std::size_t n) const {
    if (data_.size() - pos_ < n) throw CdrError("cdr: stream underflow");
  }

  util::Bytes owned_;  // only used by the owning constructor
  util::BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace maqs::cdr
