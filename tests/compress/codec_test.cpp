#include "compress/codec.hpp"

#include <gtest/gtest.h>

#include "compress/lz77.hpp"
#include "compress/rle.hpp"
#include "util/rng.hpp"

namespace maqs::compress {
namespace {

using util::Bytes;

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Bytes b(n);
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.next());
  return b;
}

Bytes compressible_bytes(std::size_t n, std::uint64_t seed) {
  // Repeating phrases with occasional noise: typical structured payload.
  util::Rng rng(seed);
  const std::string phrase = "quality-of-service middleware telemetry ";
  Bytes b;
  while (b.size() < n) {
    if (rng.chance(0.1)) {
      b.push_back(static_cast<std::uint8_t>(rng.next()));
    } else {
      for (char c : phrase) {
        if (b.size() >= n) break;
        b.push_back(static_cast<std::uint8_t>(c));
      }
    }
  }
  b.resize(n);
  return b;
}

// ---- parameterized round-trip sweep over all codecs ----

class CodecRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(CodecRoundTrip, EmptyInput) {
  auto codec = make_codec(GetParam());
  EXPECT_TRUE(codec->decompress(codec->compress(Bytes{})).empty());
}

TEST_P(CodecRoundTrip, SingleByte) {
  auto codec = make_codec(GetParam());
  const Bytes in{0x42};
  EXPECT_EQ(codec->decompress(codec->compress(in)), in);
}

TEST_P(CodecRoundTrip, AllByteValues) {
  auto codec = make_codec(GetParam());
  Bytes in;
  for (int i = 0; i < 256; ++i) in.push_back(static_cast<std::uint8_t>(i));
  EXPECT_EQ(codec->decompress(codec->compress(in)), in);
}

TEST_P(CodecRoundTrip, LongUniformRun) {
  auto codec = make_codec(GetParam());
  const Bytes in(100000, 0xAA);
  EXPECT_EQ(codec->decompress(codec->compress(in)), in);
}

TEST_P(CodecRoundTrip, RandomData) {
  auto codec = make_codec(GetParam());
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Bytes in = random_bytes(4096, seed);
    EXPECT_EQ(codec->decompress(codec->compress(in)), in) << "seed " << seed;
  }
}

TEST_P(CodecRoundTrip, CompressibleData) {
  auto codec = make_codec(GetParam());
  const Bytes in = compressible_bytes(20000, 7);
  EXPECT_EQ(codec->decompress(codec->compress(in)), in);
}

TEST_P(CodecRoundTrip, ManySmallSizes) {
  auto codec = make_codec(GetParam());
  for (std::size_t n = 0; n < 64; ++n) {
    const Bytes in = random_bytes(n, 100 + n);
    EXPECT_EQ(codec->decompress(codec->compress(in)), in) << "size " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecRoundTrip,
                         ::testing::Values("identity", "rle", "lz77"));

// ---- codec-specific behaviour ----

TEST(Identity, IsByteExactAndSizePreserving) {
  IdentityCodec codec;
  const Bytes in = random_bytes(100, 1);
  EXPECT_EQ(codec.compress(in), in);
  EXPECT_EQ(codec.name(), "identity");
}

TEST(Rle, CompressesRunsWell) {
  RleCodec codec;
  const Bytes in(10000, 0x00);
  const Bytes out = codec.compress(in);
  EXPECT_LT(out.size(), 100u);  // ~40 pairs of (255, 0)
}

TEST(Rle, WorstCaseBoundedAtTwoX) {
  RleCodec codec;
  Bytes in;
  for (int i = 0; i < 1000; ++i) in.push_back(static_cast<std::uint8_t>(i));
  EXPECT_LE(codec.compress(in).size(), 2 * in.size());
}

TEST(Rle, RejectsTruncatedStream) {
  RleCodec codec;
  EXPECT_THROW(codec.decompress(Bytes{5}), CodecError);
}

TEST(Rle, RejectsZeroRun) {
  RleCodec codec;
  EXPECT_THROW(codec.decompress(Bytes{0, 0x41}), CodecError);
}

TEST(Rle, OneShotStreamIsPinned) {
  // The (count, byte) stream of compress() is part of the wire format:
  // runs split at 255, single bytes cost a pair.
  RleCodec codec;
  Bytes in = {'a', 'a', 'a', 'b', 'c', 'c'};
  in.insert(in.end(), 300, 0x7F);
  Bytes expected = {3, 'a', 1, 'b', 2, 'c', 255, 0x7F, 45, 0x7F};
  EXPECT_EQ(codec.compress(in), expected);
  // Incompressible input still encodes in full on the one-shot path.
  const Bytes noise = random_bytes(1000, 4);
  const Bytes packed = codec.compress(noise);
  EXPECT_GE(packed.size(), noise.size());
  EXPECT_EQ(codec.decompress(packed), noise);
}

TEST(Rle, CompressUntilStopsOnceOutputReachesLimit) {
  // The compression stage ships any output of n or more octets raw, so
  // RLE stops encoding there: at most one pair past the limit is written.
  RleCodec codec;
  const Bytes noise = random_bytes(4096, 8);
  Bytes out(codec.max_compressed_size(noise.size()), 0xEE);
  const std::size_t written = codec.compress_until(noise, out, noise.size());
  EXPECT_GE(written, noise.size());
  EXPECT_LE(written, noise.size() + 2);
  for (std::size_t i = noise.size() + 2; i < out.size(); ++i) {
    ASSERT_EQ(out[i], 0xEE) << "wrote past the limit at " << i;
  }
}

TEST(Rle, CompressUntilBelowLimitMatchesCompress) {
  RleCodec codec;
  Bytes in;
  for (int run = 1; run < 40; ++run) {
    in.insert(in.end(), static_cast<std::size_t>(run * 7),
              static_cast<std::uint8_t>(run));
  }
  const Bytes via_compress = codec.compress(in);
  ASSERT_LT(via_compress.size(), in.size());
  Bytes out(codec.max_compressed_size(in.size()));
  const std::size_t written = codec.compress_until(in, out, in.size());
  out.resize(written);
  EXPECT_EQ(out, via_compress);
  Bytes small(1);
  EXPECT_THROW(codec.compress_until(in, small, in.size()), CodecError);
}

TEST(Rle, DecompressAppendFillsRunsAfterExistingContent) {
  RleCodec codec;
  Bytes out = {'x', 'y'};
  codec.decompress_append(Bytes{3, 'a', 255, 0, 1, 'b'}, out);
  Bytes expected = {'x', 'y', 'a', 'a', 'a'};
  expected.insert(expected.end(), 255, 0);
  expected.push_back('b');
  EXPECT_EQ(out, expected);
  // A zero run anywhere rejects the stream before anything is appended.
  Bytes untouched = {'k'};
  EXPECT_THROW(codec.decompress_append(Bytes{2, 'a', 0, 'b'}, untouched),
               CodecError);
  EXPECT_EQ(untouched, Bytes{'k'});
}

TEST(Lz77, CompressesRepetitiveTextWell) {
  Lz77Codec codec;
  const Bytes in = compressible_bytes(50000, 3);
  const Bytes out = codec.compress(in);
  EXPECT_LT(out.size(), in.size() / 3);
}

TEST(Lz77, HandlesOverlappingMatches) {
  Lz77Codec codec;
  // "abcabcabc..." forces overlapping back-references.
  Bytes in;
  for (int i = 0; i < 5000; ++i) in.push_back("abc"[i % 3]);
  EXPECT_EQ(codec.decompress(codec.compress(in)), in);
  EXPECT_LT(codec.compress(in).size(), 100u);
}

TEST(Lz77, ProbeDepthTradesRatioForSpeed) {
  const Bytes in = compressible_bytes(30000, 9);
  const auto shallow = Lz77Codec(1).compress(in);
  const auto deep = Lz77Codec(128).compress(in);
  EXPECT_LE(deep.size(), shallow.size());
  EXPECT_EQ(Lz77Codec().decompress(shallow), in);
  EXPECT_EQ(Lz77Codec().decompress(deep), in);
}

TEST(Lz77, RejectsBadTag) {
  Lz77Codec codec;
  EXPECT_THROW(codec.decompress(Bytes{0x02, 0, 0}), CodecError);
}

TEST(Lz77, RejectsOutOfWindowReference) {
  Lz77Codec codec;
  // match token: offset 10 with empty output so far
  EXPECT_THROW(codec.decompress(Bytes{0x01, 10, 0, 8, 0}), CodecError);
}

TEST(Lz77, RejectsTruncatedLiteralRun) {
  Lz77Codec codec;
  EXPECT_THROW(codec.decompress(Bytes{0x00, 10, 0, 'a'}), CodecError);
}

TEST(Lz77, RejectsZeroLengthLiteralRun) {
  Lz77Codec codec;
  EXPECT_THROW(codec.decompress(Bytes{0x00, 0, 0}), CodecError);
}

// ---- streaming-path contracts: output bounds and compress_into ----

TEST(Lz77, CompressedSizeNeverExceedsAdvertisedBound) {
  // The streaming transform sizes its arena region by
  // max_compressed_size(); the expansion guard (stored-block fallback)
  // must hold the promise even on adversarial inputs where match tokens
  // would expand the stream.
  Lz77Codec codec;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (std::size_t n : {std::size_t{4}, std::size_t{5}, std::size_t{64},
                          std::size_t{1000}, std::size_t{70000}}) {
      // Worst case for token expansion: minimum-length (4-byte) matches
      // everywhere, each costing a 5-byte token.
      util::Rng rng(seed);
      Bytes nasty(n);
      for (std::size_t i = 0; i < n; ++i) {
        nasty[i] = static_cast<std::uint8_t>((i / 4) % 2 == 0
                                                 ? 0xAB
                                                 : rng.next());
      }
      const Bytes packed = codec.compress(nasty);
      EXPECT_LE(packed.size(), codec.max_compressed_size(n))
          << "seed " << seed << " n " << n;
      EXPECT_EQ(codec.decompress(packed), nasty);
    }
  }
}

TEST(Lz77, CompressIntoMatchesCompressAndChecksCapacity) {
  Lz77Codec codec;
  const Bytes input = compressible_bytes(4096, 3);
  const Bytes via_compress = codec.compress(input);

  Bytes buf(codec.max_compressed_size(input.size()));
  const std::size_t written = codec.compress_into(input, buf);
  buf.resize(written);
  EXPECT_EQ(buf, via_compress);

  Bytes small(codec.max_compressed_size(input.size()) - 1);
  EXPECT_THROW(codec.compress_into(input, small), CodecError);
}

TEST(Rle, CompressIntoMatchesCompressAndChecksCapacity) {
  RleCodec codec;
  const Bytes input = compressible_bytes(1024, 5);
  const Bytes via_compress = codec.compress(input);

  Bytes buf(codec.max_compressed_size(input.size()));
  const std::size_t written = codec.compress_into(input, buf);
  buf.resize(written);
  EXPECT_EQ(buf, via_compress);

  Bytes small(via_compress.size() > 0 ? 1 : 0);
  EXPECT_THROW(codec.compress_into(input, small), CodecError);
}

TEST(Lz77, IncompressibleInputStaysWithinStoredForm) {
  // Pure noise: no matches survive, so the stored form (3-byte run
  // headers) is the worst case and the guard must keep us at it.
  Lz77Codec codec;
  const Bytes noise = random_bytes(100000, 17);
  const Bytes packed = codec.compress(noise);
  EXPECT_LE(packed.size(), codec.max_compressed_size(noise.size()));
  EXPECT_EQ(codec.decompress(packed), noise);
}

TEST(Factory, UnknownNameThrows) {
  EXPECT_THROW(make_codec("zstd"), CodecError);
}

TEST(Factory, NamesMatch) {
  EXPECT_EQ(make_codec("rle")->name(), "rle");
  EXPECT_EQ(make_codec("lz77")->name(), "lz77");
}

}  // namespace
}  // namespace maqs::compress
