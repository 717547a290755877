#include "util/buffer_pool.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace maqs::util {
namespace {

/// The pool is a process-wide singleton; every test starts it empty and
/// with zeroed counters.
class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override { BufferPool::instance().clear(); }
  void TearDown() override { BufferPool::instance().clear(); }
};

TEST_F(BufferPoolTest, RecyclesReleasedStorage) {
  BufferPool& pool = BufferPool::instance();
  Bytes a = pool.acquire(256);
  EXPECT_TRUE(a.empty());
  EXPECT_GE(a.capacity(), 256u);
  a.assign(200, 0x7E);
  const std::uint8_t* storage = a.data();

  pool.release(std::move(a));
  EXPECT_EQ(pool.pooled(), 1u);

  // A smaller request reuses the same storage, handed back cleared.
  Bytes b = pool.acquire(100);
  EXPECT_EQ(b.data(), storage);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(pool.pooled(), 0u);
  EXPECT_EQ(pool.hits(), 1u);
}

TEST_F(BufferPoolTest, MissesWhenNothingFits) {
  BufferPool& pool = BufferPool::instance();
  Bytes small = pool.acquire(128);
  pool.release(std::move(small));
  const std::uint64_t misses_before = pool.misses();

  // The pooled 128-capacity buffer cannot serve a 64K request.
  Bytes big = pool.acquire(64 * 1024);
  EXPECT_GE(big.capacity(), 64u * 1024u);
  EXPECT_EQ(pool.misses(), misses_before + 1);
  // The unusable pooled buffer stays for future smaller requests.
  EXPECT_EQ(pool.pooled(), 1u);
}

TEST_F(BufferPoolTest, TinyBuffersAreDroppedNotPooled) {
  BufferPool& pool = BufferPool::instance();
  Bytes tiny;
  tiny.reserve(16);  // below the minimum useful capacity
  pool.release(std::move(tiny));
  EXPECT_EQ(pool.pooled(), 0u);
}

TEST_F(BufferPoolTest, PoolSizeIsBounded) {
  BufferPool& pool = BufferPool::instance();
  for (int i = 0; i < 100; ++i) {
    Bytes buf;
    buf.reserve(128);
    pool.release(std::move(buf));
  }
  EXPECT_LE(pool.pooled(), 32u);
}

/// Steady-state hits of a request cycle over `order` that holds one
/// buffer while acquiring the next (two live at a time), after one warm-up
/// round.
std::uint64_t steady_hits(const std::vector<std::size_t>& order) {
  BufferPool& pool = BufferPool::instance();
  pool.clear();
  Bytes held;
  std::uint64_t warm = 0;
  for (int round = 0; round < 10; ++round) {
    if (round == 1) warm = pool.hits();
    for (const std::size_t size : order) {
      Bytes next = pool.acquire(size);
      next.resize(size);
      pool.release(std::move(held));
      held = std::move(next);
    }
  }
  pool.release(std::move(held));
  return pool.hits() - warm;
}

TEST_F(BufferPoolTest, SameHitsForCyclicAndShuffledOrder) {
  // One size multiset straddling the small sizes; a best-fit scan over one
  // shared free list hit every acquire in ascending order but only half of
  // them in this shuffled order (small requests took the only fitting
  // large buffer out from under the next large request).
  const std::vector<std::size_t> cyclic = {33, 34, 51, 56, 68, 73, 95, 106};
  const std::vector<std::size_t> shuffled = {106, 51, 73, 33, 68, 56, 95, 34};
  const std::uint64_t all = 9 * cyclic.size();
  EXPECT_EQ(steady_hits(cyclic), all);
  EXPECT_EQ(steady_hits(shuffled), all);
}

TEST_F(BufferPoolTest, NeverRoundsCapacityUp) {
  BufferPool& pool = BufferPool::instance();
  for (const std::size_t size : {17u, 100u, 1000u, 4097u, 70000u}) {
    const Bytes fresh = pool.acquire(size);
    EXPECT_EQ(fresh.capacity(), size);
  }
}

TEST_F(BufferPoolTest, ClassesAreBoundedSeparately) {
  // A flood of one size fills only its own class: a different size's
  // buffer is still pooled and found.
  BufferPool& pool = BufferPool::instance();
  Bytes big;
  big.reserve(4096);
  pool.release(std::move(big));
  for (int i = 0; i < 100; ++i) {
    Bytes small;
    small.reserve(128);
    pool.release(std::move(small));
  }
  EXPECT_EQ(pool.pooled(), BufferPool::kMaxPerClass + 1);
  EXPECT_GE(pool.acquire(4000).capacity(), 4096u);
  EXPECT_EQ(pool.misses(), 0u);
}

}  // namespace
}  // namespace maqs::util
