// Shared pieces of the benchmark program: metric collection, timing,
// allocation counters and small statistics helpers.
#pragma once

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Totals kept by the replacement operator new (alloc_count.cpp).
/// Relaxed atomics: exact under the population run's shard thread.
std::uint64_t alloc_count() noexcept;
std::uint64_t alloc_bytes() noexcept;

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one run reports: the counters behind the result line, the
/// metrics, and every self-check that failed.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  bool correct() const noexcept { return problems.empty(); }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void problem(std::string what) { problems.push_back(std::move(what)); }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its retained spans ("" = nowhere).
  std::string spans_path;
};

/// q-quantile (nearest rank) of `values`; 0 for an empty set.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const std::size_t rank = std::min(
      values.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(values.size())));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Log-linear histogram of non-negative nanosecond values: 64 sub-buckets
/// per power of two, so a quantile reads within 1.6% of the exact value
/// while the footprint stays fixed however many requests a run makes.
class Histogram {
 public:
  void record(std::int64_t ns) {
    ++counts_[index(ns < 0 ? 0 : static_cast<std::uint64_t>(ns))];
    ++total_;
  }
  std::uint64_t count() const noexcept { return total_; }
  /// q-quantile (nearest rank), interpolated linearly by rank inside the
  /// bucket that holds it.
  double quantile(double q) const {
    if (total_ == 0) return 0;
    const std::uint64_t rank = std::min<std::uint64_t>(
        total_ - 1, static_cast<std::uint64_t>(q * static_cast<double>(total_)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (seen + counts_[i] > rank) {
        if (i < kSub) return static_cast<double>(i);  // exact buckets
        const double lo = static_cast<double>(lower_edge(i));
        const double width = static_cast<double>(lower_edge(i + 1)) - lo;
        const double within = (static_cast<double>(rank - seen) + 0.5) /
                               static_cast<double>(counts_[i]);
        return lo + width * within;
      }
      seen += counts_[i];
    }
    return static_cast<double>(lower_edge(kBuckets - 1));
  }

 private:
  static constexpr std::size_t kSub = 64;
  static constexpr std::size_t kBuckets = kSub * 48;
  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int top = 63 - __builtin_clzll(v);          // >= 6
    const std::size_t shift = static_cast<std::size_t>(top) - 6;
    const std::size_t sub = static_cast<std::size_t>(v >> shift) - kSub;
    return std::min(kBuckets - 1, kSub * (shift + 1) + sub);
  }
  static std::uint64_t lower_edge(std::size_t i) {
    if (i < kSub) return i;
    const std::size_t shift = i / kSub - 1;
    return (static_cast<std::uint64_t>(kSub + i % kSub)) << shift;
  }
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t total_ = 0;
};

/// Pins the calling thread to each CPU of the starting affinity mask in
/// turn. On a shared host each CPU runs at its own speed (a busy sibling
/// hyperthread, a frequency step) and that changes over seconds; a run
/// pinned to whichever CPU it started on reads that CPU's state, whereas
/// rounds spread over every CPU read the machine's.
class CpuRotation {
 public:
  CpuRotation() = default;
  /// Gives the calling thread back the process's starting mask.
  ~CpuRotation() {
    const Allowed& a = allowed();
    if (!a.cpus.empty()) sched_setaffinity(0, sizeof a.mask, &a.mask);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the k-th allowed CPU (k wraps around).
  void pin(std::size_t k) const {
    const Allowed& a = allowed();
    if (a.cpus.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(a.cpus[k % a.cpus.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  struct Allowed {
    cpu_set_t mask{};
    std::vector<int> cpus;
  };
  /// The mask as it was before the first rotation pinned anything.
  static const Allowed& allowed() {
    static const Allowed a = [] {
      Allowed out;
      if (sched_getaffinity(0, sizeof out.mask, &out.mask) != 0) return out;
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &out.mask)) out.cpus.push_back(cpu);
      }
      return out;
    }();
    return a;
  }
};

/// Two's-complement sum, as the Echo servant computes `add`.
inline std::int32_t wrapping_add(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                   static_cast<std::uint32_t>(b));
}

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb();

/// Splits a run's measuring time: the untraced baseline and the traced
/// half of a `--trace 1` run each get half.
inline double measure_seconds(const Options& opt) {
  return opt.trace ? opt.seconds / 2 : opt.seconds;
}

}  // namespace perfbench
