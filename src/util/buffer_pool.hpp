// Per-thread recycling pool for byte buffers.
//
// The invocation hot path creates and destroys one util::Bytes per layer
// crossing (wire frames, decoded bodies, transform arena slabs). Payload
// sizes are stable in steady state, so a small free list turns nearly all
// of that churn into capacity reuse. instance() is thread-local: each
// simulation shard is its own single-threaded world, so pools need no
// locks and buffers never migrate between shards.
//
// Free buffers are binned by capacity class: sixteen classes per octave,
// so every buffer in a class above the one a hint falls in is big enough
// for it. acquire() looks at the newest buffer of the hint's own class,
// then at the lowest non-empty class above it (a bitmap lookup), so it
// costs the same however many buffers are pooled. Each class keeps its
// own bound, so a burst of one size cannot evict another size's buffers,
// and buffers keep the capacity they were reserved with: the pool never
// rounds a request up.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bytes.hpp"

namespace maqs::util {

class BufferPool {
 public:
  /// This thread's pool (one per thread — see file comment).
  static BufferPool& instance();

  /// Returns an empty buffer with capacity >= size_hint — recycled when a
  /// pooled buffer is big enough, freshly reserved otherwise.
  Bytes acquire(std::size_t size_hint);

  /// Donates a dead buffer's storage back to the pool. Tiny buffers and
  /// overflow beyond a class's bound are simply freed.
  void release(Bytes&& buf) noexcept;

  // Observability (bench + tests).
  std::size_t pooled() const noexcept { return pooled_; }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }

  /// Drops all pooled storage (test isolation between scenarios).
  void clear() noexcept;

  /// Capacities up to this many octets are not worth keeping.
  static constexpr std::size_t kMaxTiny = 16;
  /// Buffers kept per capacity class.
  static constexpr std::size_t kMaxPerClass = 32;
  /// Bound on the capacity held by the whole pool.
  static constexpr std::size_t kMaxPooledBytes = std::size_t{16} << 20;

 private:
  BufferPool() = default;

  // Classes cover capacities [16, 2^32): octave k (16 <= 2^k) splits into
  // kSteps classes by the four bits below the leading one.
  static constexpr unsigned kStepBits = 4;
  static constexpr std::size_t kSteps = std::size_t{1} << kStepBits;
  static constexpr unsigned kMinOctave = 4;
  static constexpr unsigned kMaxOctave = 31;
  static constexpr std::size_t kClasses =
      (kMaxOctave - kMinOctave + 1) * kSteps;
  static constexpr std::size_t kWords = (kClasses + 63) / 64;

  /// Class of a capacity in [kMaxTiny, 2^32); kClasses beyond.
  static std::size_t class_of(std::size_t capacity) noexcept;
  /// Lowest non-empty class >= `from`; kClasses when there is none.
  std::size_t first_nonempty(std::size_t from) const noexcept;
  Bytes take(std::size_t cls) noexcept;

  std::array<std::vector<Bytes>, kClasses> bins_;
  std::array<std::uint64_t, kWords> nonempty_{};
  std::size_t pooled_ = 0;
  std::size_t pooled_bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace maqs::util
