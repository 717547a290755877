// Open-addressing index from 64-bit ids to 32-bit slot numbers.
//
// The event loop (event id -> handler slot) and the ORB (request id ->
// pending entry) both look entries up by an id they hand out in sequence.
// A node-based std::unordered_map costs one heap allocation per insert;
// this table stores its buckets inline, so once it has grown to the
// working set, insert and erase never touch the allocator.
//
// Linear probing over a power-of-two table at most half full; keys are
// spread by Fibonacci hashing, so runs of sequential ids (and ids a table
// size apart) land in different buckets. Erase shifts the rest of the
// probe run back (no tombstones), so lookups stay short however long the
// table lives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace maqs::util {

class FlatIndex {
 public:
  /// find()'s answer for an absent id.
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  /// Value stored for `id`, or kNone.
  std::uint32_t find(std::uint64_t id) const noexcept {
    if (size_ == 0) return kNone;
    for (std::size_t i = home(id);; i = (i + 1) & mask_) {
      const Bucket& b = buckets_[i];
      if (b.empty() || b.key == id) return b.value;
    }
  }

  /// Inserts `id` or overwrites its value; `value` must not be kNone.
  void insert(std::uint64_t id, std::uint32_t value) {
    if ((size_ + 1) * 2 > buckets_.size()) grow();
    for (std::size_t i = home(id);; i = (i + 1) & mask_) {
      Bucket& b = buckets_[i];
      if (b.empty()) {
        b.key = id;
        ++size_;
      } else if (b.key != id) {
        continue;
      }
      b.value = value;
      return;
    }
  }

  /// Removes `id`; returns the value it had, or kNone when absent.
  std::uint32_t erase(std::uint64_t id) noexcept {
    if (size_ == 0) return kNone;
    std::size_t hole = home(id);
    while (!buckets_[hole].empty() && buckets_[hole].key != id) {
      hole = (hole + 1) & mask_;
    }
    if (buckets_[hole].empty()) return kNone;
    const std::uint32_t value = buckets_[hole].value;
    // Backward shift: pull later members of the probe run into the hole
    // unless that would move one in front of its own home bucket.
    for (std::size_t j = (hole + 1) & mask_; !buckets_[j].empty();
         j = (j + 1) & mask_) {
      const std::size_t h = home(buckets_[j].key);
      const bool stays = hole <= j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (stays) continue;
      buckets_[hole] = buckets_[j];
      hole = j;
    }
    buckets_[hole].value = kNone;
    --size_;
    return value;
  }

  std::size_t size() const noexcept { return size_; }

  /// Drops every entry; keeps the bucket array.
  void clear() noexcept {
    for (Bucket& b : buckets_) b.value = kNone;
    size_ = 0;
  }

 private:
  struct Bucket {
    std::uint64_t key = 0;
    std::uint32_t value = kNone;  // kNone = empty bucket
    bool empty() const noexcept { return value == kNone; }
  };

  std::size_t home(std::uint64_t id) const noexcept {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void grow() {
    std::vector<Bucket> old = std::move(buckets_);
    const std::size_t n = old.empty() ? 16 : old.size() * 2;
    buckets_.assign(n, Bucket{});
    mask_ = n - 1;
    shift_ = 64;
    for (std::size_t m = n; m > 1; m >>= 1) --shift_;
    size_ = 0;
    for (const Bucket& b : old) {
      if (!b.empty()) insert(b.key, b.value);
    }
  }

  std::vector<Bucket> buckets_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace maqs::util
