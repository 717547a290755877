// Lossless codecs for the compression QoS characteristic.
//
// The paper evaluates "compression for channels with small bandwidth"; we
// implement the codecs from scratch (offline build, DESIGN.md §2): RLE for
// highly redundant data and LZ77 as the general-purpose codec. Both are
// exact round-trip codecs; compress() never fails, decompress() throws
// CodecError on corrupt input.
//
// Two call shapes coexist:
//   - the legacy one-shot API (compress/decompress returning fresh Bytes),
//     kept for tools and tests;
//   - the streaming API (max_compressed_size/compress_into/
//     decompress_append) used by the zero-copy transform chain: the caller
//     provides the output storage, so the hot path never materializes an
//     intermediate vector per stage.
// Both produce byte-identical streams; the one-shot entry points are thin
// wrappers over the streaming ones.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace maqs::compress {

class CodecError : public Error {
 public:
  using Error::Error;
};

class Codec {
 public:
  virtual ~Codec() = default;
  virtual const std::string& name() const = 0;
  virtual util::Bytes compress(util::BytesView input) const = 0;
  virtual util::Bytes decompress(util::BytesView input) const = 0;

  // ---- streaming API (zero-copy transform chain) ----

  /// Upper bound on compress_into() output for `n` input bytes, or 0 when
  /// the codec cannot bound its output (callers then fall back to the
  /// one-shot compress()). A bound of 0 for n == 0 is always correct.
  virtual std::size_t max_compressed_size(std::size_t n) const {
    (void)n;
    return 0;
  }

  /// Compresses `input` into caller-owned storage `out` and returns the
  /// number of bytes written. `out.size()` must be at least
  /// max_compressed_size(input.size()); throws CodecError otherwise.
  /// Default bridges through the one-shot compress().
  virtual std::size_t compress_into(util::BytesView input,
                                    std::span<std::uint8_t> out) const;

  /// compress_into() for callers that discard any output of `limit` or
  /// more octets (the compression stage ships such payloads raw). The
  /// codec may stop as soon as its output reaches `limit`: a result
  /// >= limit then means "not worth it", and `out` holds no valid stream.
  /// A result below `limit` is exactly compress_into()'s stream. Default:
  /// compress_into().
  virtual std::size_t compress_until(util::BytesView input,
                                     std::span<std::uint8_t> out,
                                     std::size_t limit) const;

  /// Decompresses `input`, appending to `out` (existing content is
  /// preserved; back-references never reach across the append point).
  /// Default bridges through the one-shot decompress().
  virtual void decompress_append(util::BytesView input,
                                 util::Bytes& out) const;
};

/// Identity codec (baseline: "no compression" with the same call shape).
class IdentityCodec final : public Codec {
 public:
  const std::string& name() const override;
  util::Bytes compress(util::BytesView input) const override;
  util::Bytes decompress(util::BytesView input) const override;

  std::size_t max_compressed_size(std::size_t n) const override;
  std::size_t compress_into(util::BytesView input,
                            std::span<std::uint8_t> out) const override;
  void decompress_append(util::BytesView input,
                         util::Bytes& out) const override;
};

/// Factory by codec name: "identity", "rle", "lz77".
/// Throws CodecError for unknown names.
std::unique_ptr<Codec> make_codec(const std::string& name);

}  // namespace maqs::compress
