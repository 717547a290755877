#include "compress/rle.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

namespace maqs::compress {

const std::string& RleCodec::name() const {
  static const std::string kName = "rle";
  return kName;
}

util::Bytes RleCodec::compress(util::BytesView input) const {
  util::Bytes out(max_compressed_size(input.size()));
  out.resize(compress_into(input, out));
  return out;
}

util::Bytes RleCodec::decompress(util::BytesView input) const {
  util::Bytes out;
  decompress_append(input, out);
  return out;
}

std::size_t RleCodec::max_compressed_size(std::size_t n) const { return 2 * n; }

std::size_t RleCodec::compress_into(util::BytesView input,
                                    std::span<std::uint8_t> out) const {
  return compress_until(input, out, std::numeric_limits<std::size_t>::max());
}

std::size_t RleCodec::compress_until(util::BytesView input,
                                     std::span<std::uint8_t> out,
                                     std::size_t limit) const {
  if (out.size() < max_compressed_size(input.size())) {
    throw CodecError("rle: compress_into output buffer too small");
  }
  std::uint8_t* w = out.data();
  std::size_t i = 0;
  while (i < input.size()) {
    const std::size_t written = static_cast<std::size_t>(w - out.data());
    if (written >= limit) break;
    // Every run starts on a fresh input octet and writes one pair, so the
    // runs starting in the next (limit - written) / 2 + 1 octets end at
    // most one pair past the limit: encode them without a per-run check.
    const std::size_t segment_end =
        std::min(input.size(), i + (limit - written) / 2 + 1);
    while (i < segment_end) {
      const std::uint8_t byte = input[i];
      std::size_t run = 1;
      while (run < 255 && i + run < input.size() && input[i + run] == byte) {
        ++run;
      }
      *w++ = static_cast<std::uint8_t>(run);
      *w++ = byte;
      i += run;
    }
  }
  return static_cast<std::size_t>(w - out.data());
}

void RleCodec::decompress_append(util::BytesView input, util::Bytes& out) const {
  if (input.size() % 2 != 0) {
    throw CodecError("rle: truncated stream");
  }
  // Validate and size first, then fill: one resize for the whole stream.
  std::size_t total = 0;
  for (std::size_t i = 0; i < input.size(); i += 2) {
    if (input[i] == 0) throw CodecError("rle: zero-length run");
    total += input[i];
  }
  const std::size_t start = out.size();
  out.resize(start + total);
  std::uint8_t* w = out.data() + start;
  for (std::size_t i = 0; i < input.size(); i += 2) {
    std::memset(w, input[i + 1], input[i]);
    w += input[i];
  }
}

}  // namespace maqs::compress
