#include "workloads.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <limits>
#include <optional>
#include <thread>

#include "characteristics/actuality.hpp"
#include "characteristics/compression.hpp"
#include "characteristics/encryption.hpp"
#include "core/mediator.hpp"
#include "core/negotiation.hpp"
#include "core/qos_transport.hpp"
#include "echo.hpp"
#include "gateway/gateway.hpp"
#include "gateway/json.hpp"
#include "gateway/mtom.hpp"
#include "http_frames.hpp"
#include "load/harness.hpp"
#include "naming/selector.hpp"
#include "net/network.hpp"
#include "probes.hpp"
#include "qidl/repository.hpp"
#include "sched/classifier.hpp"
#include "sched/scheduler.hpp"
#include "tests/support/http_client.hpp"
#include "trace/trace.hpp"
#include "util/buffer_pool.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace maqs;

const char* class_name(int cls) {
  static const char* const kNames[kClassCount] = {"gold", "silver",
                                                  "best_effort"};
  return kNames[cls];
}

util::Bytes make_payload(std::size_t size, double compressibility,
                         std::uint64_t seed) {
  // The share of phrase chunks is exact (error diffusion); only the noise
  // bytes come from the seed, so a payload's compressibility does not
  // drift between seeds.
  util::Rng rng(seed);
  const std::string phrase = "quality-of-service middleware frame ";
  util::Bytes out;
  out.reserve(size);
  double credit = 0;
  while (out.size() < size) {
    credit += compressibility;
    if (credit >= 1.0) {
      credit -= 1.0;
      const std::size_t n = std::min(phrase.size(), size - out.size());
      out.insert(out.end(), phrase.begin(), phrase.begin() + n);
    } else {
      const std::uint64_t word = rng.next();
      std::uint8_t bytes[sizeof word];
      std::memcpy(bytes, &word, sizeof word);
      const std::size_t n = std::min(sizeof word, size - out.size());
      out.insert(out.end(), bytes, bytes + n);
    }
  }
  return out;
}

namespace {

// ---------------------------------------------------------------------
// Closed-loop machinery shared by rpc_small, woven_rw and gateway_http.
// ---------------------------------------------------------------------

/// Cumulative layer counters a workload exposes; the runner differences
/// them across the measured rounds.
struct Counters {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t selector_picks = 0;
  std::uint64_t sched_parked = 0;
  std::array<std::uint64_t, kClassCount> sched_arrived{};
  std::array<std::uint64_t, kClassCount> sched_shed{};
};

Counters sched_counters(const sched::RequestScheduler& scheduler) {
  Counters c;
  const sched::SchedStats& stats = scheduler.stats();
  c.sched_parked = stats.parked;
  for (int cls = 0; cls < kClassCount; ++cls) {
    const auto id = scheduler.classifier().class_id(class_name(cls));
    if (!id.has_value() || *id >= stats.classes.size()) continue;
    c.sched_arrived[cls] = stats.classes[*id].arrived;
    c.sched_shed[cls] = stats.classes[*id].shed;
  }
  return c;
}

class ClosedLoop {
 public:
  virtual ~ClosedLoop() = default;
  const std::vector<Call>& calls() const noexcept { return calls_; }
  /// Layer the benchmark's call itself belongs to in the traced split.
  virtual Layer base_layer() const { return Layer::kStub; }
  /// Untimed hook before call `i` of a round (renegotiation points).
  virtual void before_call(std::size_t i) { (void)i; }
  /// Issues one request and checks its reply against the expected value.
  virtual bool call(const Call& c) = 0;
  virtual net::Network& network() = 0;
  virtual void set_probes(bool on) = 0;
  virtual Counters counters() const { return {}; }
  virtual ReplayContext replay_context() const { return {}; }

 protected:
  std::vector<Call> calls_;
};

/// Client and server ORB on one simulated network.
struct World {
  explicit World(sim::Duration latency, double bandwidth_bps = 0) {
    const net::LinkParams link{.latency = latency,
                               .bandwidth_bps = bandwidth_bps};
    network.set_default_link(link);
    network.set_link("client", "server", link);
    network.set_loopback_latency(latency);
  }
  sim::EventLoop loop;
  net::Network network{loop};
  orb::Orb server{network, "server", 9000};
  orb::Orb client{network, "client", 9001};
};

/// Runs `c` through a stub and checks the reply. `value` mirrors the
/// servant's state (the last value written).
bool call_stub(const EchoStub& stub, const Call& c, std::int32_t& value) {
  switch (c.op) {
    case Op::kAdd:
      return stub.add(c.a, c.b) == wrapping_add(c.a, c.b);
    case Op::kEcho:
      return stub.echo(c.s) == c.s;
    case Op::kSetValue:
      stub.set_value(c.a);
      value = c.a;
      return true;
    case Op::kValue:
      return stub.value() == value;
    case Op::kBlob:
      return stub.blob(*c.blob) == *c.blob;
  }
  return false;
}

/// A word of exactly `len` seeded characters from [a-z0-9].
std::string random_word(util::Rng& rng, std::size_t len) {
  static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string s;
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(kAlphabet[rng.next_below(sizeof kAlphabet - 1)]);
  }
  return s;
}

/// `n` picks whose counts follow `weights` exactly (up to rounding), in
/// an irregular order that is the same for every seed. Workloads fix
/// their mix, sizes and order this way and let the seed vary only the
/// contents (numbers, characters, payload bytes): a buffer pool or cache
/// then sees the same shapes under every seed, so a seed cannot move a
/// workload between allocation regimes.
std::vector<std::size_t> schedule(const std::vector<double>& weights,
                                  std::size_t n) {
  // Smooth weighted round-robin gives the exact counts...
  double total = 0;
  for (double w : weights) total += w;
  std::vector<double> current(weights.size(), 0.0);
  std::vector<std::size_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t pick = 0;
    for (std::size_t k = 0; k < weights.size(); ++k) {
      current[k] += weights[k];
      if (current[k] > current[pick]) pick = k;
    }
    current[pick] -= total;
    out.push_back(pick);
  }
  // ...and a fixed shuffle breaks its regular stride.
  util::Rng shape(0x5eedf00dULL);
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[shape.next_below(i)]);
  }
  return out;
}

std::int32_t random_i32(util::Rng& rng) {
  return static_cast<std::int32_t>(rng.next() & 0xFFFFFFFFu);
}

/// One (tenant, operation) pair of the population's traffic model.
struct MixEntry {
  int qos_class;
  load::OpKind op;
};

int class_index(const std::string& name) {
  for (int cls = 0; cls < kClassCount; ++cls) {
    if (name == class_name(cls)) return cls;
  }
  return kBestEffort;
}

/// The request mix of load::default_tenants(): every (tenant, operation)
/// pair weighted by population share x operation weight, over the tenants
/// whose class `keep` accepts. Control-plane commands are left out: they
/// carry no reply payload to check and bypass every layer measured here.
std::vector<MixEntry> tenant_mix(const std::function<bool(int)>& keep,
                                 std::vector<double>& weights) {
  std::vector<MixEntry> entries;
  for (const load::TenantSpec& tenant : load::default_tenants()) {
    const int cls = class_index(tenant.qos_class);
    if (!keep(cls)) continue;
    for (load::OpKind op : {load::OpKind::kPlainAdd, load::OpKind::kPlainEcho,
                            load::OpKind::kWovenBlob}) {
      weights.push_back(tenant.population_share *
                        tenant.op_mix[static_cast<std::size_t>(op)]);
      entries.push_back(MixEntry{cls, op});
    }
  }
  return entries;
}

/// One round's measurements.
struct Round {
  double wall_ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t frames = 0;
  std::uint64_t events = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
};

/// The fastest rounds of a phase, each with the latency of every call.
///
/// The host switches between a fast and a slow state every few
/// milliseconds (fast spells last 2-4 rounds of rpc_small), and the share
/// of time spent in each drifts over minutes: on a 4-vCPU VM the calls/s
/// of rpc_small read 440k-630k in 5 s windows of one run, with round
/// rates in two clusters about 1.7x apart. A figure over all rounds reads
/// that share; the fastest rounds read the program in the fast state.
/// Over 15 s slices of a 200 s run of rpc_small, the spread (IQR/median)
/// of throughput was 0.18 over all rounds and 0.10 over the fastest 2%.
/// Rounds are ranked by their own speed, so a stall that hits only some
/// rounds can drop out of these figures; the allocation counts still
/// show it.
class FastRounds {
 public:
  /// Round buffers are sized up front: no allocation while measuring, and
  /// the same footprint in every run.
  void reserve(std::size_t calls_per_round) {
    current_.assign(calls_per_round, 0);
    kept_.assign(kFastRounds, Kept{});
    for (Kept& k : kept_) k.latency_ns.assign(calls_per_round, 0);
    size_ = 0;
  }
  /// Latency slot of call `i` of the round in progress.
  std::uint32_t& at(std::size_t i) { return current_[i]; }
  /// Keeps the round just run if it is among the fastest so far.
  void offer(const Round& r) {
    const double rate = static_cast<double>(r.calls) / r.wall_ns;
    const auto slower = [](const Kept& a, const Kept& b) { return a.rate > b.rate; };
    if (size_ == kept_.size()) {
      if (rate <= kept_.front().rate) return;
      std::pop_heap(kept_.begin(), kept_.end(), slower);
      --size_;
    }
    Kept& k = kept_[size_++];
    k.rate = rate;
    k.wall_ns = r.wall_ns;
    k.calls = r.calls;
    std::swap(k.latency_ns, current_);
    std::push_heap(kept_.begin(), kept_.begin() + static_cast<std::ptrdiff_t>(size_),
                   slower);
  }
  /// Calls per wall second over the kept rounds.
  double rate_per_s() const {
    double calls = 0;
    double wall_ns = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      calls += static_cast<double>(kept_[i].calls);
      wall_ns += kept_[i].wall_ns;
    }
    return calls / (wall_ns / 1e9);
  }
  /// The kept rounds' call latencies, all together and by class. Each
  /// call drops its slowest kTrimmed of kFastRounds repetitions: the
  /// host's disturbances (interrupts, a preempted slice) still hit about
  /// 1% of the calls of a fast round, at random positions (over 64 kept
  /// rounds of rpc_small, 1161 of 2000 calls never exceeded the pooled
  /// p99, 570 once, 186 twice, none more than 11 times), and that share
  /// set where the p99 fell. What a call costs every time stays.
  void fill(const std::vector<Call>& calls, Histogram& all,
            std::array<Histogram, kClassCount>& by_class) const {
    const std::size_t kept = size_ > kTrimmed ? size_ - kTrimmed : size_;
    std::vector<std::uint32_t> reps(size_);
    for (std::size_t i = 0; i < calls.size(); ++i) {
      for (std::size_t k = 0; k < size_; ++k) reps[k] = kept_[k].latency_ns[i];
      std::nth_element(reps.begin(), reps.begin() + static_cast<std::ptrdiff_t>(kept - 1),
                       reps.end());
      for (std::size_t k = 0; k < kept; ++k) {
        all.record(reps[k]);
        if (calls[i].qos_class >= 0) by_class[calls[i].qos_class].record(reps[k]);
      }
    }
  }

 private:
  static constexpr std::size_t kFastRounds = 64;
  static constexpr std::size_t kTrimmed = 6;
  struct Kept {
    double rate = 0;
    double wall_ns = 0;
    std::uint64_t calls = 0;
    std::vector<std::uint32_t> latency_ns;
  };
  std::vector<std::uint32_t> current_;
  std::vector<Kept> kept_;  ///< min-heap on rate over [0, size_)
  std::size_t size_ = 0;
};

/// Everything the measured rounds of one phase add up to.
struct Totals {
  std::array<std::uint64_t, kClassCount> class_sent{};
  std::array<std::uint64_t, kClassCount> class_ok{};
  std::uint64_t rounds = 0;
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
  /// The first kCountedRounds rounds only, so that the footprint does not
  /// grow with the number of rounds the host's speed allows.
  std::vector<Round> counted;
  FastRounds fast;
  Counters before;  ///< at the first measured round
  Counters after;   ///< after the last counted round
};

struct Snap {
  std::uint64_t allocs;
  std::uint64_t alloc_bytes;
  std::uint64_t wire_bytes;
  std::uint64_t frames;
  std::uint64_t pool_hits;
  std::uint64_t pool_misses;
  sim::EventId marker;
};

Snap take_snap(ClosedLoop& w) {
  Snap s{};
  s.allocs = alloc_count();
  s.alloc_bytes = alloc_bytes();
  const net::NetStats& net = w.network().stats();
  s.wire_bytes = net.bytes_sent;
  s.frames = net.messages_sent;
  const util::BufferPool& pool = util::BufferPool::instance();
  s.pool_hits = pool.hits();
  s.pool_misses = pool.misses();
  // Event ids are handed out in sequence: the gap between two markers is
  // the number of events scheduled in between.
  s.marker = w.network().loop().schedule(0, [] {});
  return s;
}

std::string g_first_error;

Round run_round(ClosedLoop& w, Outcome& out, Totals* totals) {
  Ledger& ledger = Ledger::instance();
  const std::vector<Call>& calls = w.calls();
  const Snap s0 = take_snap(w);
  Round r;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < calls.size(); ++i) {
    w.before_call(i);
    const Call& c = calls[i];
    const std::int64_t t0 = now_ns();
    ledger.begin(w.base_layer(), static_cast<int>(c.op));
    bool ok = false;
    try {
      ok = w.call(c);
    } catch (const std::exception& e) {
      if (g_first_error.empty()) g_first_error = e.what();
    }
    const std::int64_t dt = now_ns() - t0;
    ledger.end(dt);
    if (!ok) ++r.failed;
    if (totals != nullptr) {
      totals->fast.at(i) = static_cast<std::uint32_t>(
          std::min<std::int64_t>(dt, std::numeric_limits<std::uint32_t>::max()));
      if (c.qos_class >= 0) {
        ++totals->class_sent[c.qos_class];
        if (ok) ++totals->class_ok[c.qos_class];
      }
    }
  }
  r.wall_ns = static_cast<double>(now_ns() - start);
  const Snap s1 = take_snap(w);
  r.calls = calls.size();
  r.allocs = s1.allocs - s0.allocs;
  r.alloc_bytes = s1.alloc_bytes - s0.alloc_bytes;
  r.wire_bytes = s1.wire_bytes - s0.wire_bytes;
  r.frames = s1.frames - s0.frames;
  r.events = s1.marker - s0.marker - 1;
  r.pool_hits = s1.pool_hits - s0.pool_hits;
  r.pool_misses = s1.pool_misses - s0.pool_misses;
  out.attempted += r.calls;
  out.failed += r.failed;
  return r;
}

double per_call(std::uint64_t v, const Round& r) {
  return static_cast<double>(v) / static_cast<double>(r.calls);
}

/// Warm-up ends when two consecutive rounds allocate the same per call.
void warm_up(ClosedLoop& w, Outcome& out) {
  constexpr int kMaxRounds = 40;
  double previous = -1;
  for (int i = 0; i < kMaxRounds; ++i) {
    const Round r = run_round(w, out, nullptr);
    const double allocs = per_call(r.allocs, r);
    if (i > 0 && allocs == previous) return;
    previous = allocs;
  }
  std::printf("# note: warm-up did not settle in %d rounds\n", kMaxRounds);
}

using Factory = std::function<std::unique_ptr<ClosedLoop>()>;

/// Builds and warms the workload `kSetups` times, each on a fresh thread
/// so that the thread-local buffer pool starts empty as in a new process,
/// and reports the median. The world that is measured is then built and
/// warmed on this thread, outside the timed set-ups.
std::unique_ptr<ClosedLoop> set_up(const Factory& make, Outcome& out,
                                   double& setup_s) {
  constexpr int kSetups = 7;
  std::vector<double> seconds;
  const CpuRotation cpus;
  for (int i = 0; i < kSetups; ++i) {
    std::exception_ptr error;
    std::thread([&] {
      try {
        cpus.pin(static_cast<std::size_t>(i));
        const std::int64_t t0 = now_ns();
        std::unique_ptr<ClosedLoop> w = make();
        warm_up(*w, out);
        seconds.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      } catch (...) {
        error = std::current_exception();
      }
    }).join();
    if (error) std::rethrow_exception(error);
  }
  setup_s = median(seconds);
  std::unique_ptr<ClosedLoop> w = make();
  warm_up(*w, out);
  return w;
}

/// The exact counts come from the first measured rounds: the program's
/// state evolves the same way from one run of a seed to the next, so they
/// repeat bit for bit however many rounds the machine's speed allows.
constexpr std::size_t kCountedRounds = 5;

/// Runs rounds for `seconds` (at least kCountedRounds). The layer
/// counters are differenced over the counted rounds only.
void measure(ClosedLoop& w, double seconds, Outcome& out, Totals& totals) {
  totals.before = w.counters();
  totals.fast.reserve(w.calls().size());
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  // A move to the next CPU every 100 ms: often enough to visit every CPU
  // many times in a run, seldom enough that the calls slowed by the cold
  // caches after a move stay far below 1% (p99).
  constexpr std::int64_t kSliceNs = 100'000'000;
  const CpuRotation cpus;
  std::size_t slice = 0;
  std::int64_t next_move = 0;
  totals.counted.reserve(kCountedRounds);
  while (totals.rounds < kCountedRounds || now_ns() < deadline) {
    if (now_ns() >= next_move) {
      cpus.pin(slice++);
      next_move = now_ns() + kSliceNs;
    }
    const Round r = run_round(w, out, &totals);
    ++totals.rounds;
    totals.calls += r.calls;
    totals.failed += r.failed;
    if (totals.counted.size() < kCountedRounds) totals.counted.push_back(r);
    totals.fast.offer(r);
    if (totals.rounds == kCountedRounds) totals.after = w.counters();
  }
}

Round counted(const Totals& t) {
  Round sum;
  for (const Round& r : t.counted) {
    sum.calls += r.calls;
    sum.failed += r.failed;
    sum.allocs += r.allocs;
    sum.alloc_bytes += r.alloc_bytes;
    sum.wire_bytes += r.wire_bytes;
    sum.frames += r.frames;
    sum.events += r.events;
    sum.pool_hits += r.pool_hits;
    sum.pool_misses += r.pool_misses;
  }
  return sum;
}

/// Latency quantiles of the fastest rounds' calls (see FastRounds).
struct FastLatency {
  Histogram all;
  std::array<Histogram, kClassCount> by_class;
};

FastLatency fast_latency(const Totals& t, const std::vector<Call>& calls) {
  FastLatency f;
  t.fast.fill(calls, f.all, f.by_class);
  return f;
}

void report_end_to_end(const Totals& t, const std::vector<Call>& calls,
                       double setup_s, Outcome& out) {
  out.add("setup_s", setup_s, "s");
  out.add("throughput_rps", t.fast.rate_per_s(), "1/s");
  // The kept rounds give at least 58 x 600 latencies, and each class
  // sent on a workload at least 6,900: more than ten beyond every p99.
  const FastLatency f = fast_latency(t, calls);
  out.add("p50_us", f.all.quantile(0.50) / 1e3, "us");
  out.add("p99_us", f.all.quantile(0.99) / 1e3, "us");
  const Round c = counted(t);
  out.add("allocs_per_req", per_call(c.allocs, c), "count");
  out.add("alloc_bytes_per_req", per_call(c.alloc_bytes, c), "B");
  out.add("peak_rss_mb", peak_rss_mb(), "MiB");
  out.add("wire_bytes_per_req", per_call(c.wire_bytes, c), "B");
  // A class without traffic on this workload reports the workload-wide
  // figure: without differentiation every request is served alike.
  const double overall_ok = static_cast<double>(t.calls - t.failed) /
                            static_cast<double>(t.calls);
  for (int cls = 0; cls < kClassCount; ++cls) {
    const double ok =
        t.class_sent[cls] > 0 ? static_cast<double>(t.class_ok[cls]) /
                                    static_cast<double>(t.class_sent[cls])
                              : overall_ok;
    out.add(std::string(class_name(cls)) + "_ok_ratio", ok, "ratio");
  }
  for (int cls : {kGold, kSilver}) {
    const Histogram& h = f.by_class[cls].count() > 0 ? f.by_class[cls] : f.all;
    out.add(std::string(class_name(cls)) + "_p99_ms", h.quantile(0.99) / 1e6, "ms");
  }
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// Exact counts from the untraced phase's counted rounds.
void report_counts(const Totals& t, Outcome& out) {
  const Counters& a = t.before;
  const Counters& b = t.after;
  const Round c = counted(t);
  const std::uint64_t cache_hits = b.cache_hits - a.cache_hits;
  const std::uint64_t cache_lookups =
      cache_hits + (b.cache_misses - a.cache_misses);
  out.add("characteristics.actuality.hit_ratio", ratio(cache_hits, cache_lookups),
          "ratio");
  out.add("net.frames_per_req", per_call(c.frames, c), "frames/req");
  out.add("sim.events_per_req", per_call(c.events, c), "events/req");
  out.add("util.buffer_pool.hit_ratio",
          ratio(c.pool_hits, c.pool_hits + c.pool_misses), "ratio");
  out.add("naming.selector.picks_per_req",
          ratio(b.selector_picks - a.selector_picks, c.calls), "picks/req");
  for (int cls = 0; cls < kClassCount; ++cls) {
    out.add(std::string("sched.shed_ratio.") + class_name(cls),
            ratio(b.sched_shed[cls] - a.sched_shed[cls],
                  b.sched_arrived[cls] - a.sched_arrived[cls]),
            "ratio");
  }
  out.add("sched.parked_per_req",
          ratio(b.sched_parked - a.sched_parked, c.calls), "parked/req");
}

/// The traced phase: probes on, the ledger split, the overhead against
/// the untraced phase.
void report_segments(ClosedLoop& w, const Options& opt, const Totals& plain,
                     Outcome& out) {
  Ledger& ledger = Ledger::instance();
  Totals traced;
  w.set_probes(true);
  ledger.set_active(true);
  measure(w, measure_seconds(opt), out, traced);
  ledger.set_active(false);
  w.set_probes(false);

  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const Layer layer = static_cast<Layer>(i);
    out.add(layer_metric(layer), ledger.median_self_ns(layer), "ns");
  }
  out.add("trace.overhead_ns",
          fast_latency(traced, w.calls()).all.quantile(0.5) -
              fast_latency(plain, w.calls()).all.quantile(0.5),
          "ns");
  const double conservation = ledger.conservation_error();
  out.add("trace.conservation_error", conservation, "ratio");
  constexpr double kConservationTolerance = 0.10;
  if (conservation > kConservationTolerance) {
    out.problem("segments miss the call time by " +
                std::to_string(conservation));
  }
  if (ledger.calls() == 0) out.problem("the traced phase recorded no calls");
  if (ledger.unstamped() > 0) {
    out.problem(std::to_string(ledger.unstamped()) + " of " +
                std::to_string(ledger.calls()) +
                " traced calls passed a layer whose probe did not fire");
  }
  if (ledger.unbalanced() > 0) {
    out.problem(std::to_string(ledger.unbalanced()) +
                " traced calls had unbalanced boundary stamps");
  }
  if (!opt.spans_path.empty() && !ledger.write_spans(opt.spans_path)) {
    out.problem("cannot write spans to " + opt.spans_path);
  }
}

/// Untraced rounds (end-to-end metrics), or with --trace 1 an untraced
/// baseline then a traced phase (per-layer metrics).
void run_closed_loop(const Options& opt, const Factory& make, Outcome& out) {
  double setup_s = 0;
  std::unique_ptr<ClosedLoop> w = set_up(make, out, setup_s);
  Totals plain;
  measure(*w, measure_seconds(opt), out, plain);
  if (!opt.trace) {
    report_end_to_end(plain, w->calls(), setup_s, out);
  } else {
    report_segments(*w, opt, plain, out);
    report_counts(plain, out);
    run_replays(w->calls(), w->replay_context(), opt.seed, out);
  }
  if (!g_first_error.empty()) {
    std::printf("# first failed call: %s\n", g_first_error.c_str());
  }
}

// ---------------------------------------------------------------------
// rpc_small: plain echo object, zero-latency loopback, tiny messages.
// ---------------------------------------------------------------------

class RpcSmall final : public ClosedLoop {
 public:
  explicit RpcSmall(std::uint64_t seed) : world_(0) {
    world_.client.set_trace_recorder(&recorder_);  // installed, disabled
    world_.server.set_trace_recorder(&recorder_);
    const orb::ObjRef ref = world_.server.adapter().activate(
        "echo", std::make_shared<PlainEcho>());
    stub_.emplace(world_.client, ref);

    // Alternating add and echo; echo strings of 4..24 characters.
    constexpr std::size_t kRound = 2000;
    util::Rng rng(seed);
    const std::vector<std::size_t> lengths =
        schedule(std::vector<double>(21, 1.0), kRound / 2);
    for (std::size_t i = 0; i < kRound; ++i) {
      Call c;
      if (i % 2 == 0) {
        c.op = Op::kAdd;
        c.a = random_i32(rng);
        c.b = random_i32(rng);
      } else {
        c.op = Op::kEcho;
        c.s = random_word(rng, 4 + lengths[i / 2]);
      }
      calls_.push_back(std::move(c));
    }
  }

  bool call(const Call& c) override { return call_stub(*stub_, c, value_); }
  net::Network& network() override { return world_.network; }
  void set_probes(bool on) override {
    if (on) {
      probes_.attach(world_.client);
      probes_.attach(world_.server);
    } else {
      probes_.detach(world_.client);
      probes_.detach(world_.server);
    }
  }

 private:
  World world_;
  trace::TraceRecorder recorder_{world_.loop};
  std::optional<EchoStub> stub_;
  ProbeSet probes_;
  std::int32_t value_ = 0;
};

// ---------------------------------------------------------------------
// woven_rw: actuality -> compression -> encryption negotiated over a 1 ms
// link; compression walks lz77 -> rle -> none through each round.
// ---------------------------------------------------------------------

class WovenRw final : public ClosedLoop {
 public:
  explicit WovenRw(std::uint64_t seed) : world_(sim::kMillisecond) {
    resources_.declare("cpu", 1e9);
    resources_.declare("bandwidth", 1e9);
    providers_.add(characteristics::make_actuality_provider());
    providers_.add(characteristics::make_compression_provider());
    providers_.add(characteristics::make_encryption_psk_provider());
    negotiation_.emplace(server_transport_, providers_, resources_);
    negotiator_.emplace(client_transport_, providers_);

    auto servant = std::make_shared<WovenEcho>();
    std::vector<orb::QosProfile> profiles;
    for (const core::CharacteristicDescriptor& d :
         {characteristics::actuality_descriptor(),
          characteristics::compression_descriptor(),
          characteristics::encryption_descriptor()}) {
      servant->assign_characteristic(d);
      orb::QosProfile profile;
      profile.characteristic = d.name();
      profiles.push_back(profile);
    }
    const orb::ObjRef ref =
        world_.server.adapter().activate("echo", servant, profiles);
    stub_.emplace(world_.client, ref);

    // The recommended weaving order: the cache sees plaintext, the
    // compressor sees cleartext, the cipher sees compressed bytes.
    negotiator_->negotiate(
        *stub_, characteristics::actuality_name(),
        {{"max_age_ms", cdr::Any::from_long(100)},
         {"cacheable_ops", cdr::Any::from_string("value,echo")}});
    compression_ = negotiator_->negotiate(
        *stub_, characteristics::compression_name(),
        {{"algorithm", cdr::Any::from_string("lz77")},
         {"level", cdr::Any::from_long(32)}});
    negotiator_->negotiate(
        *stub_, characteristics::encryption_name(),
        {{"psk", cdr::Any::from_string("perfbench-psk")}});
    const auto composite =
        std::dynamic_pointer_cast<core::CompositeMediator>(stub_->mediator());
    if (composite != nullptr) {
      cache_ = std::dynamic_pointer_cast<characteristics::ActualityMediator>(
          composite->find(characteristics::actuality_name()));
    }

    // Per round: the population's blob share (load::default_tenants())
    // of blobs cycling 256 B .. 16 KiB, incompressible and 90% redundant
    // in turn; reads and writes one to one (an assumed update-heavy
    // split, as YCSB workload A: no traffic model in the repository
    // splits reads from writes), so set_value makes up the writes and the
    // reads divide evenly between value and echo over six cached words.
    constexpr std::size_t kRound = 900;
    std::vector<double> population;
    double blob_share = 0;
    double total = 0;
    const std::vector<MixEntry> mix =
        tenant_mix([](int) { return true; }, population);
    for (std::size_t k = 0; k < mix.size(); ++k) {
      total += population[k];
      if (mix[k].op == load::OpKind::kWovenBlob) blob_share += population[k];
    }
    blob_share /= total;
    util::Rng rng(seed);
    std::vector<std::string> words;
    for (std::size_t i = 0; i < 6; ++i) words.push_back(random_word(rng, 8 + 5 * i));
    const std::vector<std::size_t> word_of = schedule(std::vector<double>(6, 1.0), kRound);
    const std::vector<std::size_t> blob_of = schedule(std::vector<double>(14, 1.0), kRound);
    std::size_t echoes = 0;
    std::size_t blobs = 0;
    for (const std::size_t pick :
         schedule({0.25, 0.25, 0.5 - blob_share, blob_share}, kRound)) {
      Call c;
      if (pick == 0) {
        c.op = Op::kValue;
      } else if (pick == 1) {
        c.op = Op::kEcho;
        c.s = words[word_of[echoes++]];
      } else if (pick == 2) {
        c.op = Op::kSetValue;
        c.a = random_i32(rng);
      } else {
        c.op = Op::kBlob;
        const std::size_t shape = blob_of[blobs++];
        const std::size_t size = std::size_t{256} << (shape % 7);
        const double compressibility = shape < 7 ? 0.9 : 0.0;
        c.blob = std::make_shared<const util::Bytes>(
            make_payload(size, compressibility, rng.next()));
      }
      calls_.push_back(std::move(c));
    }
  }

  void before_call(std::size_t i) override {
    const std::size_t n = calls_.size();
    if (i != 0 && i != n / 3 && i != 2 * n / 3) return;
    const char* want = i == 0 ? "lz77" : i == n / 3 ? "rle" : "none";
    if (algorithm_ == want) return;
    compression_ = negotiator_->renegotiate(
        *stub_, compression_, {{"algorithm", cdr::Any::from_string(want)}});
    algorithm_ = want;
  }

  bool call(const Call& c) override { return call_stub(*stub_, c, value_); }
  net::Network& network() override { return world_.network; }
  void set_probes(bool on) override {
    if (on) {
      probes_.attach(world_.client);
      probes_.attach(world_.server);
    } else {
      probes_.detach(world_.client);
      probes_.detach(world_.server);
    }
  }
  Counters counters() const override {
    Counters c;
    if (cache_ != nullptr) {
      c.cache_hits = cache_->cache_hits();
      c.cache_misses = cache_->cache_misses();
    }
    return c;
  }

 private:
  World world_;
  core::QosTransport server_transport_{world_.server};
  core::QosTransport client_transport_{world_.client};
  core::ResourceManager resources_;
  core::ProviderRegistry providers_;
  std::optional<core::NegotiationService> negotiation_;
  std::optional<core::Negotiator> negotiator_;
  std::optional<EchoStub> stub_;
  core::Agreement compression_;
  std::string algorithm_ = "lz77";
  std::shared_ptr<characteristics::ActualityMediator> cache_;
  ProbeSet probes_;
  std::int32_t value_ = 0;
};

// ---------------------------------------------------------------------
// gateway_http: keep-alive HTTP/1.1 client -> gateway -> two-replica
// echo group (round-robin) on a server with an unpaced scheduler.
// ---------------------------------------------------------------------

std::string body_text(const gateway::HttpResponse& resp) {
  return std::string(resp.body.begin(), resp.body.end());
}

/// Checks a gateway response against the value the call must produce.
bool check_response(const Call& c, const gateway::HttpResponse& resp) {
  if (resp.status != 200) return false;
  if (c.op != Op::kBlob) return body_text(resp) == expected_json_body(c);
  const auto content_type = resp.header("content-type");
  if (!content_type.has_value()) return false;
  const gateway::ContentType ct = gateway::parse_content_type(*content_type);
  if (ct.media_type != "multipart/related") return false;
  const auto container = gateway::parse_multipart_related(resp.body, ct.boundary);
  if (!container.has_value()) return false;
  const gateway::JsonValue root = gateway::parse_json(std::string_view(
      reinterpret_cast<const char*>(container->root.data()),
      container->root.size()));
  const gateway::JsonValue* result = root.find("result");
  const gateway::JsonValue* ref =
      result != nullptr ? result->find("$blob") : nullptr;
  if (ref == nullptr || !ref->is_string()) return false;
  const gateway::MtomPart* part = container->find(ref->as_string());
  return part != nullptr && part->data.size() == c.blob->size() &&
         std::equal(part->data.begin(), part->data.end(), c.blob->begin());
}

ReplayContext population_depths();

class GatewayHttp final : public ClosedLoop {
 public:
  explicit GatewayHttp(std::uint64_t seed)
      : world_(0),
        repo_(qidl::InterfaceRepository::build(qidl::analyze(kEchoQidl))) {
    orb::ObjRef group = world_.server.adapter().activate(
        "echo-a", std::make_shared<PlainEcho>());
    world_.server.adapter().activate("echo-b", std::make_shared<PlainEcho>());
    group.alternates.push_back(
        orb::AltProfile{world_.server.endpoint(), "echo-b"});

    sched::SchedulerConfig config;  // unpaced: dispatches inline
    for (const sched::ClassConfig& cls : load::default_classes()) {
      if (cls.name != sched::kBestEffortClassName) config.classes.push_back(cls);
    }
    scheduler_.emplace(world_.server, config);
    selector_.emplace(edge_, naming::SelectorConfig{});
    gateway_.emplace(edge_, repo_, 8080);
    gateway_->expose("Echo", group);
    web_.emplace(world_.network, net::Address{"web", 80},
                 gateway_->endpoint());

    // Per round: the gold and best_effort tenants of
    // load::default_tenants(), each (tenant, operation) pair in proportion
    // to population share x operation weight: add, echo (4..48
    // characters) and MTOM 4 KiB blob.
    constexpr std::size_t kRound = 600;
    std::vector<double> weights;
    const std::vector<MixEntry> mix = tenant_mix(
        [](int cls) { return cls == kGold || cls == kBestEffort; }, weights);
    util::Rng rng(seed);
    const std::vector<std::size_t> picks = schedule(weights, kRound);
    const std::vector<std::size_t> lengths =
        schedule(std::vector<double>(45, 1.0), kRound);
    std::size_t echoes = 0;
    for (std::size_t i = 0; i < kRound; ++i) {
      const MixEntry& entry = mix[picks[i]];
      Call c;
      if (entry.op == load::OpKind::kPlainAdd) {
        c.op = Op::kAdd;
        c.a = random_i32(rng) / 2;
        c.b = random_i32(rng) / 2;
      } else if (entry.op == load::OpKind::kPlainEcho) {
        c.op = Op::kEcho;
        c.s = random_word(rng, 4 + lengths[echoes++]);
      } else {
        c.op = Op::kBlob;
        c.blob = std::make_shared<const util::Bytes>(
            make_payload(4096, 0.5, rng.next()));
      }
      c.qos_class = entry.qos_class;
      frames_.push_back(http_request_frame(c));
      calls_.push_back(std::move(c));
    }
  }

  Layer base_layer() const override { return Layer::kFront; }
  bool call(const Call& c) override {
    const std::size_t i = static_cast<std::size_t>(&c - calls_.data());
    web_->send_raw(frames_[i]);
    const auto resp = web_->await_response();
    web_->discard_delivered();
    return resp.has_value() && check_response(c, *resp);
  }
  net::Network& network() override { return world_.network; }
  void set_probes(bool on) override {
    if (on) {
      probes_.attach(edge_);
      probes_.attach(world_.server);
    } else {
      probes_.detach(edge_);
      probes_.detach(world_.server);
    }
  }
  Counters counters() const override {
    Counters c = sched_counters(*scheduler_);
    c.selector_picks = selector_->stats().selections;
    return c;
  }
  /// The traced run also carries the population overload (see
  /// report_population), so the deep replays run at its depths.
  ReplayContext replay_context() const override { return population_depths(); }

 private:
  World world_;
  orb::Orb edge_{world_.network, "edge", 9100};
  qidl::InterfaceRepository repo_;
  std::optional<sched::RequestScheduler> scheduler_;
  std::optional<naming::ReplicaSelector> selector_;
  std::optional<gateway::Gateway> gateway_;
  std::optional<maqs::testing::HttpTestClient> web_;
  std::vector<util::Bytes> frames_;
  ProbeSet probes_;
};

// ---------------------------------------------------------------------
// The population overload carried by gateway_http's traced run.
// ---------------------------------------------------------------------

/// load::run_population with the default classes and tenants: 125k
/// clients in one shard over a 16 s virtual horizon, which holds the
/// headline overload (best effort mostly shed, gold inside its budget).
/// One shard keeps the run on one core.
constexpr std::uint32_t kClients = 125'000;
constexpr sim::Duration kHorizon = 16 * sim::kSecond;
constexpr double kServiceRate = 10'000.0;

load::PopulationConfig population_config(std::uint64_t seed) {
  load::PopulationConfig config;
  config.shards = 1;
  config.clients = kClients;
  config.seed = seed;
  config.horizon = kHorizon;
  config.service_rate_rps = kServiceRate;
  return config;
}

/// The depths the population runs at: one pending timer per client, and
/// every class queue at its limit.
ReplayContext population_depths() {
  ReplayContext ctx;
  ctx.event_depth = kClients;
  ctx.queue_depth = 0;
  for (const sched::ClassConfig& cls : population_config(0).classes) {
    ctx.queue_depth += cls.queue_limit;
  }
  return ctx;
}

/// Runs the population once and reports its scheduler outcome in place of
/// the closed loop's (an unpaced scheduler never sheds). Every request
/// must settle, and timeouts and errors count as failed.
void report_population(const Options& opt, Outcome& out) {
  const load::PopulationConfig config = population_config(opt.seed);
  std::printf("# population: %u clients, %u shard, %lld s horizon\n",
              config.clients, config.shards,
              static_cast<long long>(config.horizon / sim::kSecond));
  const load::PopulationResult r = load::run_population(config);
  std::uint64_t sent = 0;
  for (const load::ClassOutcome& c : r.classes) {
    sent += c.sent;
    out.attempted += c.sent;
    out.failed += c.timeout + c.error;
    if (c.sent != c.ok + c.shed + c.timeout + c.error) {
      out.problem("class " + c.name + " does not settle every request");
    }
  }
  std::erase_if(out.metrics, [](const Metric& m) {
    return m.name.rfind("sched.shed_ratio.", 0) == 0 ||
           m.name == "sched.parked_per_req";
  });
  for (int cls = 0; cls < kClassCount; ++cls) {
    double shed = 0;
    for (const load::ClassOutcome& c : r.classes) {
      if (c.name == class_name(cls)) shed = ratio(c.shed, c.sent);
    }
    out.add(std::string("sched.shed_ratio.") + class_name(cls), shed, "ratio");
  }
  out.add("sched.parked_per_req", ratio(r.sched.parked, sent), "parked/req");
}

}  // namespace

void run_rpc_small(const Options& opt, Outcome& out) {
  run_closed_loop(
      opt, [&] { return std::make_unique<RpcSmall>(opt.seed); }, out);
}

void run_woven_rw(const Options& opt, Outcome& out) {
  run_closed_loop(
      opt, [&] { return std::make_unique<WovenRw>(opt.seed); }, out);
}

void run_gateway_http(const Options& opt, Outcome& out) {
  run_closed_loop(
      opt, [&] { return std::make_unique<GatewayHttp>(opt.seed); }, out);
  if (opt.trace) report_population(opt, out);
}

}  // namespace perfbench
