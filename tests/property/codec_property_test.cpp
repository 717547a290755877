// Property tests for codecs and crypto.
//
//  P1  compress/decompress is the identity for all codecs across a wide
//      size x redundancy grid.
//  P2  lz77 decompression is total on random token soup (throws or
//      returns, never crashes; output bounded).
//  P3  XTEA-CTR is an involution for every (key, nonce, size); sealed
//      frames open to the identity and reject any single-bit tamper.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "compress/codec.hpp"
#include "compress/lz77.hpp"
#include "crypto/mac.hpp"
#include "crypto/xtea.hpp"
#include "util/rng.hpp"

namespace maqs {
namespace {

util::Bytes mixed_payload(util::Rng& rng, std::size_t size,
                          double redundancy) {
  util::Bytes out(size);
  for (std::size_t i = 0; i < size; ++i) {
    out[i] = rng.chance(redundancy)
                 ? static_cast<std::uint8_t>('x')
                 : static_cast<std::uint8_t>(rng.next());
  }
  return out;
}

// The codec name is a std::string, not a const char*: gtest prints a
// char pointer with its address, which would put a different address
// into every discovered ctest name.
class CodecGridP
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(CodecGridP, RoundTripAcrossSizeRedundancyGrid) {
  const auto codec = compress::make_codec(std::get<0>(GetParam()));
  util::Rng rng(static_cast<std::uint64_t>(std::get<1>(GetParam())));
  for (std::size_t size : {0u, 1u, 2u, 63u, 64u, 65u, 1000u, 70000u}) {
    for (double redundancy : {0.0, 0.5, 0.95}) {
      const util::Bytes input = mixed_payload(rng, size, redundancy);
      const util::Bytes packed = codec->compress(input);
      EXPECT_EQ(codec->decompress(packed), input)
          << codec->name() << " size=" << size << " r=" << redundancy;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CodecGridP,
    ::testing::Combine(::testing::Values(std::string("identity"),
                                         std::string("rle"),
                                         std::string("lz77")),
                       ::testing::Values(1, 2, 3)));

class Lz77TotalityP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lz77TotalityP, RandomTokenSoupNeverCrashes) {
  compress::Lz77Codec codec;
  util::Rng rng(GetParam());
  for (int round = 0; round < 500; ++round) {
    util::Bytes soup(rng.next_below(256));
    for (auto& b : soup) b = static_cast<std::uint8_t>(rng.next());
    // Bias the first byte toward valid tags sometimes to reach deeper
    // paths.
    if (!soup.empty() && rng.chance(0.5)) soup[0] &= 0x01;
    try {
      const util::Bytes out = codec.decompress(soup);
      // Expansion is bounded: each token yields at most 64 KiB.
      EXPECT_LE(out.size(), soup.size() * 65536u + 65536u);
    } catch (const compress::CodecError&) {
    }
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lz77TotalityP,
                         ::testing::Values(5u, 55u, 555u));

class XteaP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XteaP, CtrInvolutionAcrossKeysNoncesSizes) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    util::Bytes secret(8 + rng.next_below(16));
    for (auto& b : secret) b = static_cast<std::uint8_t>(rng.next());
    const crypto::Key128 key = crypto::derive_key(secret);
    const std::uint64_t nonce = rng.next();
    const crypto::XteaCtr cipher(key, nonce);
    const util::Bytes plain = mixed_payload(rng, rng.next_below(300), 0.3);
    const util::Bytes sealed = cipher.apply(plain);
    EXPECT_EQ(cipher.apply(sealed), plain);
    if (plain.size() >= 16) {
      EXPECT_NE(sealed, plain);
      // A different nonce must give a different keystream.
      const crypto::XteaCtr other(key, nonce ^ 1);
      EXPECT_NE(other.apply(plain), sealed);
    }
  }
}

TEST_P(XteaP, MacRejectsEverySingleBitFlip) {
  util::Rng rng(GetParam() ^ 0xBEEF);
  const std::uint64_t key = rng.next();
  util::Bytes data = mixed_payload(rng, 64, 0.5);
  const std::uint64_t tag = crypto::mac64(key, data);
  for (std::size_t byte = 0; byte < data.size(); byte += 7) {
    for (int bit = 0; bit < 8; bit += 3) {
      data[byte] ^= static_cast<std::uint8_t>(1 << bit);
      EXPECT_FALSE(crypto::mac_verify(key, data, tag))
          << "byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<std::uint8_t>(1 << bit);
    }
  }
  EXPECT_TRUE(crypto::mac_verify(key, data, tag));
}

INSTANTIATE_TEST_SUITE_P(Seeds, XteaP, ::testing::Values(1u, 12u, 123u));

}  // namespace
}  // namespace maqs
