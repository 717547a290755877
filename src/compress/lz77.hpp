// LZ77 with a hash-chain match finder.
//
// Token stream format (compact CDR-free, self-delimiting):
//   0x00 len:u16 <len literal bytes>      -- literal run, len >= 1
//   0x01 offset:u16 len:u16               -- back-reference, offset >= 1,
//                                            len >= kMinMatch, may overlap
// Window size 64 KiB (offset is u16). Greedy parse; match finder keeps
// hash chains over 3-byte prefixes, bounded probe depth. Unmatched
// stretches are probed sparsely: the parser advances 1 + misses/32 bytes
// after `misses` consecutive unmatched positions and resets on a match.
//
// Worst-case expansion is bounded: whenever the greedy token stream would
// reach the stored form's size, compress emits the stored form instead
// (pure literal runs), so output never exceeds n + 3 * ceil(n / 65535)
// bytes. Callers sizing buffers with max_compressed_size() never see a
// mid-transform reallocation, even for incompressible input.
//
// The match-finder hash tables persist across calls on the codec instance
// (positions are kept in a rolling global coordinate space, so stale
// entries are recognized by range instead of a 384 KiB memset per call).
// This makes compress() non-reentrant per instance; codec instances are
// owned per-characteristic in the single-threaded simulator.
#pragma once

#include <vector>

#include "compress/codec.hpp"

namespace maqs::compress {

class Lz77Codec final : public Codec {
 public:
  /// max_probes bounds match-finder effort (compression level knob).
  explicit Lz77Codec(int max_probes = 32) : max_probes_(max_probes) {}

  const std::string& name() const override;
  util::Bytes compress(util::BytesView input) const override;
  util::Bytes decompress(util::BytesView input) const override;

  /// Stored-form bound: n + 3 bytes of framing per 64 KiB literal run.
  std::size_t max_compressed_size(std::size_t n) const override;
  std::size_t compress_into(util::BytesView input,
                            std::span<std::uint8_t> out) const override;
  void decompress_append(util::BytesView input,
                         util::Bytes& out) const override;

 private:
  /// Greedy token stream into out[0..cap); returns bytes written, or `cap`
  /// as a sentinel when the stream would reach/exceed the stored bound.
  std::size_t try_compress(util::BytesView input, std::uint8_t* out,
                           std::size_t cap) const;

  int max_probes_;

  // Persistent match-finder scratch. head_[h] / chain_[g % (window+1)]
  // store global positions + 1; entries <= base_ belong to earlier calls
  // and read as "none". base_ rolls forward per call and the tables are
  // zeroed only when the u32 position space would wrap.
  mutable std::vector<std::uint32_t> head_;
  mutable std::vector<std::uint32_t> chain_;
  mutable std::uint32_t base_ = 0;
  mutable std::uint32_t next_base_ = 0;
};

}  // namespace maqs::compress
