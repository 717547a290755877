#include "util/buffer_pool.hpp"

#include <algorithm>
#include <bit>
#include <new>

namespace maqs::util {

BufferPool& BufferPool::instance() {
  static thread_local BufferPool pool;
  return pool;
}

std::size_t BufferPool::class_of(std::size_t capacity) noexcept {
  const unsigned octave = static_cast<unsigned>(std::bit_width(capacity)) - 1;
  if (octave > kMaxOctave) return kClasses;
  const std::size_t step = (capacity >> (octave - kStepBits)) - kSteps;
  return (octave - kMinOctave) * kSteps + step;
}

std::size_t BufferPool::first_nonempty(std::size_t from) const noexcept {
  for (std::size_t w = from / 64; w < kWords; ++w) {
    std::uint64_t bits = nonempty_[w];
    if (w == from / 64) bits &= ~std::uint64_t{0} << (from % 64);
    if (bits != 0) {
      return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
    }
  }
  return kClasses;
}

Bytes BufferPool::take(std::size_t cls) noexcept {
  std::vector<Bytes>& bin = bins_[cls];
  Bytes out = std::move(bin.back());
  bin.pop_back();
  if (bin.empty()) nonempty_[cls / 64] &= ~(std::uint64_t{1} << (cls % 64));
  --pooled_;
  pooled_bytes_ -= out.capacity();
  ++hits_;
  return out;
}

Bytes BufferPool::acquire(std::size_t size_hint) {
  // The newest buffer of the hint's own class fits when its capacity
  // reaches the hint; any buffer of a higher class fits outright, and the
  // lowest such class wastes the least. Newest-first within a class keeps
  // the cache-warm buffer in play.
  const std::size_t cls = class_of(std::max(size_hint, kMaxTiny));
  if (cls < kClasses) {
    const std::vector<Bytes>& own = bins_[cls];
    if (!own.empty() && own.back().capacity() >= size_hint) return take(cls);
    if (const std::size_t above = first_nonempty(cls + 1); above < kClasses) {
      return take(above);
    }
  }
  ++misses_;
  Bytes out;
  out.reserve(size_hint);
  return out;
}

void BufferPool::release(Bytes&& buf) noexcept {
  const std::size_t capacity = buf.capacity();
  if (capacity <= kMaxTiny) return;
  const std::size_t cls = class_of(capacity);
  if (cls >= kClasses || pooled_bytes_ + capacity > kMaxPooledBytes) return;
  std::vector<Bytes>& bin = bins_[cls];
  if (bin.size() >= kMaxPerClass) return;
  buf.clear();
  try {
    bin.push_back(std::move(buf));
  } catch (const std::bad_alloc&) {
    return;  // the bin could not grow: the buffer is simply freed
  }
  nonempty_[cls / 64] |= std::uint64_t{1} << (cls % 64);
  ++pooled_;
  pooled_bytes_ += capacity;
}

void BufferPool::clear() noexcept {
  for (std::vector<Bytes>& bin : bins_) bin.clear();
  nonempty_.fill(0);
  pooled_ = 0;
  pooled_bytes_ = 0;
  hits_ = 0;
  misses_ = 0;
}

}  // namespace maqs::util
