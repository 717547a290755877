// Byte-oriented run-length encoding.
//
// Format: a stream of (count:u8, byte) pairs for runs of length >= 1;
// count is the run length (1..255). Chosen for simplicity and worst-case
// predictability: expansion is bounded at 2x. compress_until() gives up
// once the output reaches its limit, so a caller that ships such inputs
// raw pays for at most `limit` octets of encoding.
#pragma once

#include "compress/codec.hpp"

namespace maqs::compress {

class RleCodec final : public Codec {
 public:
  const std::string& name() const override;
  util::Bytes compress(util::BytesView input) const override;
  util::Bytes decompress(util::BytesView input) const override;

  /// Exact worst case: one (count, byte) pair per input byte.
  std::size_t max_compressed_size(std::size_t n) const override;
  std::size_t compress_into(util::BytesView input,
                            std::span<std::uint8_t> out) const override;
  std::size_t compress_until(util::BytesView input,
                             std::span<std::uint8_t> out,
                             std::size_t limit) const override;
  void decompress_append(util::BytesView input,
                         util::Bytes& out) const override;
};

}  // namespace maqs::compress
