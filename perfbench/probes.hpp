// The traced run's boundary ledger.
//
// Benchmark-owned interceptors sit outside every built-in priority band:
// on the client at 50 (above trace.client, 100) and 600 (below breaker,
// 500); on the server at 50 (above trace.server, 100) and 300 (below
// qos.server, 200). The benchmark's own servants stamp the application
// body. Each stamp pushes or pops a layer; the time between consecutive
// stamps belongs to the layer on top, so one call splits into
//
//   stub          stub marshal/unmarshal, reply check (base layer)
//   front         the gateway's HTTP/JSON side (base layer on gateway_http)
//   client_chain  client interceptors: mediators, transforms, QoS routing
//   wire          GIOP framing, net, event loop, server-side frame decode
//   server_chain  server interceptors, reply encode+send, skeleton weaving
//   servant       the application operation body
//
// Spans are kept in memory and written out when the run ends.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "orb/interceptor.hpp"
#include "orb/orb.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kStub,
  kFront,
  kClientChain,
  kWire,
  kServerChain,
  kServant,
};
inline constexpr std::size_t kLayerCount = 6;

/// The per-layer metric name, e.g. "orb.wire.self_ns".
const char* layer_metric(Layer layer);

class Ledger {
 public:
  static Ledger& instance();

  void set_active(bool on) noexcept { active_ = on; }

  /// Opens one measured call; `group` (the operation) tags its spans.
  void begin(Layer base, int group);
  void push(Layer layer) {
    if (in_call_) stamps_.push_back(Stamp{now_ns(), layer, true});
  }
  void pop(Layer layer) {
    if (in_call_) stamps_.push_back(Stamp{now_ns(), layer, false});
  }
  /// Closes the call. `call_ns` is the caller's own timing of it, which
  /// the segments must add up to.
  void end(std::int64_t call_ns);

  std::uint64_t calls() const noexcept { return calls_; }
  std::uint64_t unbalanced() const noexcept { return unbalanced_; }
  /// Calls on which a layer the call passed through left no stamp: the
  /// client chain on every call; the server chain and the servant on
  /// every call that reached the wire.
  std::uint64_t unstamped() const noexcept { return unstamped_; }
  double median_self_ns(Layer layer) const;
  /// Mean over calls of |call time - sum of its segments| / call time.
  double conservation_error() const {
    return calls_ > 0 ? gap_sum_ / static_cast<double>(calls_) : 0;
  }
  /// Writes the retained calls as JSON lines; false on I/O failure.
  bool write_spans(const std::string& path) const;

 private:
  struct Stamp {
    std::int64_t t;
    Layer layer;
    bool push;
  };
  struct Retained {
    int group;
    std::int64_t t0;
    std::int64_t t1;
    std::vector<Stamp> stamps;
  };
  static constexpr std::size_t kRetain = 512;

  bool active_ = false;
  bool in_call_ = false;
  Layer base_ = Layer::kStub;
  int group_ = 0;
  std::int64_t t0_ = 0;
  std::vector<Stamp> stamps_;
  std::vector<Layer> stack_;
  std::array<Histogram, kLayerCount> self_;
  std::vector<Retained> retained_;
  std::uint64_t calls_ = 0;
  std::uint64_t unbalanced_ = 0;
  std::uint64_t unstamped_ = 0;
  double gap_sum_ = 0;
};

class ClientProbe final : public maqs::orb::ClientInterceptor {
 public:
  explicit ClientProbe(Layer layer) : layer_(layer) {}
  const char* name() const noexcept override { return "perfbench.probe"; }
  maqs::orb::SendAction send_request(maqs::orb::ClientRequestInfo&) override {
    Ledger::instance().push(layer_);
    return maqs::orb::SendAction::kContinue;
  }
  maqs::orb::ReplyAction receive_reply(maqs::orb::ClientRequestInfo&) override {
    Ledger::instance().pop(layer_);
    return maqs::orb::ReplyAction::kContinue;
  }
  void receive_exception(maqs::orb::ClientRequestInfo&) noexcept override {
    Ledger::instance().pop(layer_);
  }

 private:
  Layer layer_;
};

class ServerProbe final : public maqs::orb::ServerInterceptor {
 public:
  const char* name() const noexcept override { return "perfbench.probe"; }
  void receive_request(maqs::orb::ServerRequestInfo&) override {
    Ledger::instance().push(Layer::kServerChain);
  }
  void send_reply(maqs::orb::ServerRequestInfo&) override {
    Ledger::instance().pop(Layer::kServerChain);
  }
  void send_exception(maqs::orb::ServerRequestInfo&) noexcept override {
    Ledger::instance().pop(Layer::kServerChain);
  }
};

/// The four probes of one ORB, registered at the priorities above.
class ProbeSet {
 public:
  static constexpr int kClientOuter = 50;
  static constexpr int kClientInner = 600;
  static constexpr int kServerOuter = 50;
  static constexpr int kServerInner = 300;

  ProbeSet() = default;
  ProbeSet(const ProbeSet&) = delete;
  ProbeSet& operator=(const ProbeSet&) = delete;

  void attach(maqs::orb::Orb& orb);
  void detach(maqs::orb::Orb& orb);

 private:
  ClientProbe client_outer_{Layer::kClientChain};
  ClientProbe client_inner_{Layer::kWire};
  ServerProbe server_outer_;
  ServerProbe server_inner_;
};

/// RAII stamp around a benchmark servant's application body.
struct ServantScope {
  ServantScope() { Ledger::instance().push(Layer::kServant); }
  ~ServantScope() { Ledger::instance().pop(Layer::kServant); }
  ServantScope(const ServantScope&) = delete;
  ServantScope& operator=(const ServantScope&) = delete;
};

}  // namespace perfbench
