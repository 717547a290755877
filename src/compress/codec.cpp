#include "compress/codec.hpp"

#include <cstring>

#include "compress/lz77.hpp"
#include "compress/rle.hpp"

namespace maqs::compress {

std::size_t Codec::compress_into(util::BytesView input,
                                 std::span<std::uint8_t> out) const {
  const util::Bytes compressed = compress(input);
  if (compressed.size() > out.size()) {
    throw CodecError(name() + ": compress_into output buffer too small");
  }
  if (!compressed.empty()) {
    std::memcpy(out.data(), compressed.data(), compressed.size());
  }
  return compressed.size();
}

std::size_t Codec::compress_until(util::BytesView input,
                                  std::span<std::uint8_t> out,
                                  std::size_t limit) const {
  (void)limit;
  return compress_into(input, out);
}

void Codec::decompress_append(util::BytesView input, util::Bytes& out) const {
  const util::Bytes plain = decompress(input);
  out.insert(out.end(), plain.begin(), plain.end());
}

const std::string& IdentityCodec::name() const {
  static const std::string kName = "identity";
  return kName;
}

util::Bytes IdentityCodec::compress(util::BytesView input) const {
  return util::Bytes(input.begin(), input.end());
}

util::Bytes IdentityCodec::decompress(util::BytesView input) const {
  return util::Bytes(input.begin(), input.end());
}

std::size_t IdentityCodec::max_compressed_size(std::size_t n) const {
  return n;
}

std::size_t IdentityCodec::compress_into(util::BytesView input,
                                         std::span<std::uint8_t> out) const {
  if (input.size() > out.size()) {
    throw CodecError("identity: compress_into output buffer too small");
  }
  if (!input.empty()) std::memcpy(out.data(), input.data(), input.size());
  return input.size();
}

void IdentityCodec::decompress_append(util::BytesView input,
                                      util::Bytes& out) const {
  out.insert(out.end(), input.begin(), input.end());
}

std::unique_ptr<Codec> make_codec(const std::string& name) {
  if (name == "identity") return std::make_unique<IdentityCodec>();
  if (name == "rle") return std::make_unique<RleCodec>();
  if (name == "lz77") return std::make_unique<Lz77Codec>();
  throw CodecError("unknown codec: " + name);
}

}  // namespace maqs::compress
