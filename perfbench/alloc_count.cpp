// Counting replacement of the global allocation functions. Every heap
// allocation the program makes in this process goes through here, so the
// per-request allocation metrics need no cooperation from the libraries.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "bench.hpp"

namespace {
std::atomic<std::uint64_t> g_count{0};
std::atomic<std::uint64_t> g_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_count.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t alloc_count() noexcept {
  return g_count.load(std::memory_order_relaxed);
}

std::uint64_t alloc_bytes() noexcept {
  return g_bytes.load(std::memory_order_relaxed);
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace perfbench
