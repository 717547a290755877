#include "compress/lz77.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

namespace maqs::compress {

namespace {
constexpr std::size_t kWindow = 65535;   // max back-reference offset (u16)
constexpr std::size_t kMinMatch = 4;     // below this, literals are cheaper
constexpr std::size_t kMaxMatch = 65535;  // length field is u16
constexpr std::size_t kMaxLiteralRun = 65535;
constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;
constexpr std::size_t kChainSize = kWindow + 1;
// Inside a long match only the first kMaxInsert covered positions enter
// the hash tables: later occurrences of the same data still match against
// these anchors, and insertion cost stays O(1) per long match instead of
// O(len).
constexpr std::size_t kMaxInsert = 8;
// A match this long is taken immediately instead of probing further
// candidates for a marginally longer one: on repetitive payloads the
// newest candidate already yields a near-maximal match, and the remaining
// probes are the bulk of the search cost.
constexpr std::size_t kGoodEnough = 64;
// Skip-ahead on unmatched input (the Snappy/LZ4 heuristic): after every
// kSkipDivisor consecutive positions without a match the parser steps one
// byte further, so an incompressible run costs a few hash probes per
// kSkipDivisor bytes instead of a chain walk per byte. Any match resets
// the step to 1.
constexpr std::size_t kSkipDivisor = 32;

/// Length of the common prefix of a and b, capped at limit (word-wise).
std::size_t match_length(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t limit) noexcept {
  std::size_t len = 0;
  if constexpr (std::endian::native == std::endian::little) {
    while (len + 8 <= limit) {
      std::uint64_t wa;
      std::uint64_t wb;
      std::memcpy(&wa, a + len, 8);
      std::memcpy(&wb, b + len, 8);
      const std::uint64_t diff = wa ^ wb;
      if (diff != 0) {
        return len + (static_cast<std::size_t>(std::countr_zero(diff)) >> 3);
      }
      len += 8;
    }
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

std::uint32_t hash3(const std::uint8_t* p) noexcept {
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

void put_u16(std::uint8_t* p, std::uint16_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

/// Stored form: the input as pure literal runs. Exactly
/// n + 3 * ceil(n / kMaxLiteralRun) bytes.
std::size_t write_stored(util::BytesView input, std::uint8_t* out) {
  std::size_t w = 0;
  std::size_t begin = 0;
  while (begin < input.size()) {
    const std::size_t chunk = std::min(input.size() - begin, kMaxLiteralRun);
    out[w++] = 0x00;
    put_u16(out + w, static_cast<std::uint16_t>(chunk));
    w += 2;
    std::memcpy(out + w, input.data() + begin, chunk);
    w += chunk;
    begin += chunk;
  }
  return w;
}
}  // namespace

const std::string& Lz77Codec::name() const {
  static const std::string kName = "lz77";
  return kName;
}

std::size_t Lz77Codec::max_compressed_size(std::size_t n) const {
  if (n == 0) return 0;
  return n + 3 * ((n + kMaxLiteralRun - 1) / kMaxLiteralRun);
}

util::Bytes Lz77Codec::compress(util::BytesView input) const {
  util::Bytes out(max_compressed_size(input.size()));
  out.resize(compress_into(input, out));
  return out;
}

util::Bytes Lz77Codec::decompress(util::BytesView input) const {
  util::Bytes out;
  decompress_append(input, out);
  return out;
}

std::size_t Lz77Codec::compress_into(util::BytesView input,
                                     std::span<std::uint8_t> out) const {
  const std::size_t n = input.size();
  const std::size_t bound = max_compressed_size(n);
  if (out.size() < bound) {
    throw CodecError("lz77: compress_into output buffer too small");
  }
  if (n == 0) return 0;
  if (n < kMinMatch) return write_stored(input, out.data());
  const std::size_t written = try_compress(input, out.data(), bound);
  // Expansion guard: an adversarial token stream can exceed the stored
  // form (a 5-byte match token may replace only 4 literal bytes). Fall
  // back to the stored form so output stays within the advertised bound.
  if (written >= bound) return write_stored(input, out.data());
  return written;
}

std::size_t Lz77Codec::try_compress(util::BytesView input, std::uint8_t* out,
                                    std::size_t cap) const {
  const std::size_t n = input.size();

  if (head_.empty()) {
    head_.assign(kHashSize, 0);
    chain_.assign(kChainSize, 0);
  }
  if (static_cast<std::uint64_t>(next_base_) + n + 1 >
      std::numeric_limits<std::uint32_t>::max()) {
    std::fill(head_.begin(), head_.end(), 0u);
    std::fill(chain_.begin(), chain_.end(), 0u);
    next_base_ = 0;
  }
  base_ = next_base_;
  next_base_ = base_ + static_cast<std::uint32_t>(n) + 1;
  const std::uint32_t base = base_;

  std::size_t w = 0;
  // Emits input[begin, end) as literal runs; false when out of room.
  auto flush_literals = [&](std::size_t begin, std::size_t end) -> bool {
    while (begin < end) {
      const std::size_t chunk = std::min(end - begin, kMaxLiteralRun);
      if (cap - w < 3 + chunk) return false;
      out[w++] = 0x00;
      put_u16(out + w, static_cast<std::uint16_t>(chunk));
      w += 2;
      std::memcpy(out + w, input.data() + begin, chunk);
      w += chunk;
      begin += chunk;
    }
    return true;
  };

  std::size_t literal_start = 0;
  std::size_t i = 0;
  std::size_t misses = 0;  // consecutive unmatched probes
  while (i + kMinMatch <= n) {
    const std::uint32_t h = hash3(input.data() + i);
    std::size_t best_len = 0;
    std::size_t best_off = 0;

    // head_/chain_ store global positions + 1; values <= base are stale
    // leftovers from earlier inputs and terminate the probe like a null.
    std::uint32_t candidate = head_[h];
    int probes = max_probes_;
    const std::size_t limit = std::min(n - i, kMaxMatch);
    while (candidate > base && probes-- > 0) {
      const std::size_t pos = candidate - 1 - base;
      if (i - pos > kWindow) break;  // chain entries only get older
      // A candidate can only beat best_len if it also matches at index
      // best_len; checking that one byte first skips the extension for
      // most losing candidates without changing the outcome.
      if (best_len == 0 || input[pos + best_len] == input[i + best_len]) {
        const std::size_t len =
            match_length(input.data() + pos, input.data() + i, limit);
        if (len > best_len) {
          best_len = len;
          best_off = i - pos;
          if (len >= limit || len >= kGoodEnough) break;
        }
      }
      // The chain slot may have been overwritten by a position ~64K newer
      // (modulo indexing); accept only strictly older candidates to stay
      // acyclic.
      const std::uint32_t next = chain_[(candidate - 1) % kChainSize];
      if (next > base && next - 1 - base >= pos) break;
      candidate = next;
    }

    if (best_len >= kMinMatch) {
      if (!flush_literals(literal_start, i)) return cap;
      if (cap - w < 5) return cap;
      out[w++] = 0x01;
      put_u16(out + w, static_cast<std::uint16_t>(best_off));
      put_u16(out + w + 2, static_cast<std::uint16_t>(best_len));
      w += 4;
      // Insert hash anchors for the leading covered positions so later
      // matches can reference into this one (bounded per match).
      const std::size_t match_end = i + best_len;
      const std::size_t insert_end = std::min(match_end, i + kMaxInsert);
      while (i < insert_end && i + kMinMatch <= n) {
        const std::uint32_t hh = hash3(input.data() + i);
        chain_[(base + i) % kChainSize] = head_[hh];
        head_[hh] = base + static_cast<std::uint32_t>(i) + 1;
        ++i;
      }
      i = match_end;
      literal_start = i;
      misses = 0;
    } else {
      chain_[(base + i) % kChainSize] = head_[h];
      head_[h] = base + static_cast<std::uint32_t>(i) + 1;
      i += 1 + misses++ / kSkipDivisor;
    }
  }
  if (!flush_literals(literal_start, n)) return cap;
  return w;
}

void Lz77Codec::decompress_append(util::BytesView input,
                                  util::Bytes& out) const {
  const std::size_t start = out.size();
  std::size_t i = 0;
  auto read_u16 = [&]() -> std::uint16_t {
    if (input.size() - i < 2) throw CodecError("lz77: truncated stream");
    const std::uint16_t v = static_cast<std::uint16_t>(
        input[i] | (static_cast<std::uint16_t>(input[i + 1]) << 8));
    i += 2;
    return v;
  };
  while (i < input.size()) {
    const std::uint8_t tag = input[i++];
    if (tag == 0x00) {
      const std::uint16_t len = read_u16();
      if (len == 0) throw CodecError("lz77: zero-length literal run");
      if (input.size() - i < len) throw CodecError("lz77: truncated literals");
      out.insert(out.end(), input.begin() + static_cast<std::ptrdiff_t>(i),
                 input.begin() + static_cast<std::ptrdiff_t>(i + len));
      i += len;
    } else if (tag == 0x01) {
      const std::uint16_t off = read_u16();
      const std::uint16_t len = read_u16();
      if (off == 0 || off > out.size() - start) {
        throw CodecError("lz77: back-reference out of window");
      }
      if (len < kMinMatch) throw CodecError("lz77: short match token");
      // Overlapping copies are legal (e.g. off=1 replicates one byte).
      // Disjoint ranges take one memcpy; overlapping ones replicate the
      // off-byte pattern by doubling — identical bytes to the naive
      // byte-at-a-time copy.
      const std::size_t old_size = out.size();
      out.resize(old_size + len);
      std::uint8_t* dst = out.data() + old_size;
      const std::uint8_t* src = dst - off;
      if (off >= len) {
        std::memcpy(dst, src, len);
      } else if (off == 1) {
        std::memset(dst, src[0], len);
      } else {
        std::size_t have = std::min<std::size_t>(off, len);
        std::memcpy(dst, src, have);
        while (have < len) {
          const std::size_t chunk = std::min(have, len - have);
          std::memcpy(dst + have, dst, chunk);
          have += chunk;
        }
      }
    } else {
      throw CodecError("lz77: bad token tag");
    }
  }
}

}  // namespace maqs::compress
