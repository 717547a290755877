// Runtime support for qidlc-generated code.
//
// Generated marshaling is expressed as unqualified `write(enc, v)` /
// `read(dec, v)` calls after `using maqs::qidl::gen::write;` — basic types
// resolve here, generated structs/enums resolve via ADL in their own
// namespace, and the vector overloads recurse through both.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "cdr/decoder.hpp"
#include "cdr/encoder.hpp"

namespace maqs::qidl::gen {

inline void write(cdr::Encoder& enc, bool v) { enc.write_bool(v); }
inline void write(cdr::Encoder& enc, std::uint8_t v) { enc.write_u8(v); }
inline void write(cdr::Encoder& enc, std::int16_t v) { enc.write_i16(v); }
inline void write(cdr::Encoder& enc, std::int32_t v) { enc.write_i32(v); }
inline void write(cdr::Encoder& enc, std::int64_t v) { enc.write_i64(v); }
inline void write(cdr::Encoder& enc, float v) { enc.write_f32(v); }
inline void write(cdr::Encoder& enc, double v) { enc.write_f64(v); }
inline void write(cdr::Encoder& enc, const std::string& v) {
  enc.write_string(v);
}

inline void read(cdr::Decoder& dec, bool& v) { v = dec.read_bool(); }
inline void read(cdr::Decoder& dec, std::uint8_t& v) { v = dec.read_u8(); }
inline void read(cdr::Decoder& dec, std::int16_t& v) { v = dec.read_i16(); }
inline void read(cdr::Decoder& dec, std::int32_t& v) { v = dec.read_i32(); }
inline void read(cdr::Decoder& dec, std::int64_t& v) { v = dec.read_i64(); }
inline void read(cdr::Decoder& dec, float& v) { v = dec.read_f32(); }
inline void read(cdr::Decoder& dec, double& v) { v = dec.read_f64(); }
inline void read(cdr::Decoder& dec, std::string& v) {
  v = dec.read_string();
}

/// Element types whose compact-CDR form is their in-memory image: octets
/// everywhere, the fixed-width numbers on little-endian hosts. A sequence
/// of them marshals as its length prefix plus one bulk copy, byte-identical
/// to the element-by-element loop (which big-endian hosts keep).
template <typename T>
inline constexpr bool kBulkElement =
    std::is_same_v<T, std::uint8_t> ||
    (std::endian::native == std::endian::little &&
     (std::is_same_v<T, std::int16_t> || std::is_same_v<T, std::int32_t> ||
      std::is_same_v<T, std::int64_t> || std::is_same_v<T, float> ||
      std::is_same_v<T, double>));

template <typename T>
void write(cdr::Encoder& enc, const std::vector<T>& v) {
  enc.write_u32(static_cast<std::uint32_t>(v.size()));
  if constexpr (kBulkElement<T>) {
    enc.write_raw({reinterpret_cast<const std::uint8_t*>(v.data()),
                   v.size() * sizeof(T)});
  } else {
    for (const T& item : v) write(enc, item);
  }
}

template <typename T>
void read(cdr::Decoder& dec, std::vector<T>& v) {
  const std::uint32_t n = dec.read_u32();
  if constexpr (kBulkElement<T>) {
    // Bounds-checked before any allocation or multiplication: a hostile
    // length throws CdrError here instead of sizing the vector.
    if (n > dec.remaining() / sizeof(T)) {
      throw cdr::CdrError("cdr: stream underflow");
    }
    const util::BytesView raw = dec.read_raw_view(n * sizeof(T));
    if constexpr (sizeof(T) == 1) {
      v.assign(raw.begin(), raw.end());
    } else {
      v.resize(n);
      if (n != 0) std::memcpy(v.data(), raw.data(), raw.size());
    }
  } else {
    v.clear();
    // The length is peer input: never reserve more elements than the
    // stream has octets left (a short stream then underflows mid-loop).
    v.reserve(std::min<std::size_t>(n, dec.remaining()));
    for (std::uint32_t i = 0; i < n; ++i) {
      T item{};
      read(dec, item);
      v.push_back(std::move(item));
    }
  }
}

}  // namespace maqs::qidl::gen
