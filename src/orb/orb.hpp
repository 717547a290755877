// The ORB core: invocation interface, plain GIOP/IIOP-style transport and
// the hook where the QoS transport (Fig. 3) plugs in.
//
// Request routing implements the paper's Fig. 3 decision tree:
//
//   invocation interface -- with QoS? --no--> GIOP/IIOP path
//                                  \--yes--> QoS transport (RequestRouter)
//
// and on the receiving side:
//
//   frame --request?--> command?        --> QoS transport / module
//                      service request  --> (module inbound transform) -->
//                                           object adapter --> servant
//
// Both halves are realized as interceptor chains (orb/interceptor.hpp):
// invoke()/invoke_plain() walk the client chain down to one terminal wire
// attempt, handle_request() walks the server chain down to the object
// adapter. The ORB itself knows nothing about QoS mechanisms; routing,
// mediation, tracing, retry and circuit breaking are interceptors, and
// the RequestRouter extension point (implemented by maqs::core's
// QosTransport) hangs off the qos.route/qos.server stages. This keeps the
// hierarchy of concerns the paper argues for: the ORB is reusable without
// any QoS.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "orb/adapter.hpp"
#include "orb/breaker.hpp"
#include "orb/exceptions.hpp"
#include "orb/interceptor.hpp"
#include "orb/ior.hpp"
#include "orb/message.hpp"
#include "util/flat_index.hpp"

namespace maqs::trace {
class TraceRecorder;
}

namespace maqs::orb {

/// Extension point implemented by the QoS transport (maqs::core). See file
/// comment for where each hook sits in the Fig. 3 flow.
class RequestRouter {
 public:
  virtual ~RequestRouter() = default;

  /// Client side: deliver a QoS-aware service request and return the reply.
  virtual ReplyMessage route(const ObjRef& target, RequestMessage req) = 0;

  /// Server side, before adapter dispatch. May rewrite the request (e.g.
  /// decrypt/decompress the body). Returning a reply short-circuits
  /// dispatch entirely (commands are answered here).
  virtual std::optional<ReplyMessage> inbound(RequestMessage& req,
                                              const net::Address& from) = 0;

  /// Server side, after dispatch: transform the outgoing reply.
  virtual void outbound(const RequestMessage& req, ReplyMessage& rep) = 0;
};

/// Statistics for the dispatch-path benchmarks (bench_f3_dispatch,
/// bench_f4_hotpath).
struct OrbStats {
  std::uint64_t requests_sent = 0;
  std::uint64_t requests_dispatched = 0;
  std::uint64_t commands_dispatched = 0;
  std::uint64_t plain_path = 0;     // requests that took GIOP/IIOP
  std::uint64_t qos_path = 0;       // requests handed to the QoS transport
  std::uint64_t replies_orphaned = 0;  // replies with no pending entry
  std::uint64_t timeouts = 0;
  std::uint64_t bytes_marshaled_out = 0;  // frame bytes encoded and sent
  std::uint64_t bytes_marshaled_in = 0;   // frame bytes decoded successfully
  // Resilience counters (all zero unless a RetryAdvisor / BreakerConfig
  // is installed).
  std::uint64_t requests_retried = 0;     // extra attempts by the retry stage
  std::uint64_t breaker_fast_fails = 0;   // requests rejected while open
  std::uint64_t breaker_opens = 0;        // transitions into open
  std::uint64_t breaker_half_opens = 0;   // transitions into half-open
  std::uint64_t breaker_closes = 0;       // transitions back to closed
};

class Orb {
 public:
  /// Binds the ORB to (node, port) on the simulated network.
  Orb(net::Network& network, net::NodeId node, std::uint16_t port);
  ~Orb();
  Orb(const Orb&) = delete;
  Orb& operator=(const Orb&) = delete;

  net::Network& network() noexcept { return network_; }
  const net::Network& network() const noexcept { return network_; }
  sim::EventLoop& loop() noexcept { return network_.loop(); }
  const net::Address& endpoint() const noexcept { return endpoint_; }
  ObjectAdapter& adapter() noexcept { return adapter_; }
  const OrbStats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_ = OrbStats{}; }

  /// Installs/uninstalls the QoS transport. Not owned.
  void set_router(RequestRouter* router) noexcept { router_ = router; }
  RequestRouter* router() const noexcept { return router_; }

  /// Installs/uninstalls the retry policy driving the retry interceptor.
  /// Not owned. nullptr (the default) keeps the single-attempt zero-copy
  /// fast path.
  void set_retry_advisor(RetryAdvisor* advisor) noexcept {
    retry_ci_.set_advisor(advisor);
  }
  RetryAdvisor* retry_advisor() const noexcept { return retry_ci_.advisor(); }

  /// Enables per-endpoint circuit breaking on the outgoing request path
  /// (nullopt, the default, disables it and drops all breaker state).
  void set_breaker_config(std::optional<BreakerConfig> config) {
    breaker_ci_.set_config(std::move(config));
  }
  const std::optional<BreakerConfig>& breaker_config() const noexcept {
    return breaker_ci_.config();
  }

  /// Aggregate state over every profile breaker at `dest` (worst wins);
  /// nullopt when breaking is off or no request has touched that endpoint
  /// yet.
  std::optional<BreakerState> breaker_state(const net::Address& dest) const {
    return breaker_ci_.state(dest);
  }
  /// State of the breaker guarding exactly (dest, profile) — profile is
  /// the addressed object key.
  std::optional<BreakerState> breaker_state(const net::Address& dest,
                                            std::string_view profile) const {
    return breaker_ci_.state(dest, profile);
  }

  /// Installs/uninstalls the causal trace recorder (not owned; may be
  /// shared between ORBs so client and server spans land in one ring).
  /// nullptr (the default) keeps every instrumentation point on the
  /// branch-and-skip fast path.
  void set_trace_recorder(trace::TraceRecorder* recorder) noexcept {
    trace_recorder_ = recorder;
  }
  trace::TraceRecorder* trace_recorder() const noexcept {
    return trace_recorder_;
  }

  void set_default_timeout(sim::Duration timeout) noexcept {
    default_timeout_ = timeout;
  }
  sim::Duration default_timeout() const noexcept { return default_timeout_; }

  /// Fresh request id (unique per ORB; the wire pairs them with the
  /// requester endpoint, so per-ORB uniqueness suffices).
  std::uint64_t next_request_id() noexcept { return next_request_id_++; }

  // ---- interceptor pipeline ----

  /// Registers a custom interceptor (not owned) at `priority`; see
  /// orb/interceptor.hpp for the built-in chain positions. Must not be
  /// called while an invocation is walking the chain.
  void register_client_interceptor(ClientInterceptor* interceptor,
                                   int priority) {
    client_chain_.add(interceptor, priority);
  }
  bool unregister_client_interceptor(const ClientInterceptor* interceptor) {
    return client_chain_.remove(interceptor);
  }
  void register_server_interceptor(ServerInterceptor* interceptor,
                                   int priority) {
    server_chain_.add(interceptor, priority);
  }
  bool unregister_server_interceptor(const ServerInterceptor* interceptor) {
    return server_chain_.remove(interceptor);
  }

  /// Reserves a SlotTable index for a custom interceptor's cross-stage
  /// state (built-ins hold theirs already).
  std::size_t allocate_client_slot() { return client_chain_.allocate_slot(); }
  std::size_t allocate_server_slot() { return server_chain_.allocate_slot(); }

  /// Both chains in walk order: names, priorities and per-interceptor
  /// hit/short-circuit counters (client chain first).
  std::vector<InterceptorRecord> dump_interceptors() const;

  // ---- client side ----

  /// The invocation interface (Fig. 3 client half): walks the full client
  /// chain — trace mint, mediation, the QoS/plain fork, resilience — down
  /// to one (or more, under retry) wire attempts. Blocks (pumps the event
  /// loop) until the reply arrives; throws TransportError on timeout.
  ReplyMessage invoke(const ObjRef& target, RequestMessage req);

  /// Power-user form of invoke(): the caller owns the info record (target,
  /// request and the per-invocation mediator delegate must be set) and it
  /// outlives the walk, so the root trace span covers whatever the caller
  /// does with info.reply afterwards (the stub classifies status under
  /// it). info.reply holds the result.
  void invoke_with(ClientRequestInfo& info);

  /// Plain GIOP/IIOP path to an explicit endpoint: enters the client
  /// chain at kClientPlainEntry (local-fault/retry/breaker stages only).
  /// Used directly by the QoS transport for negotiation bootstrap and
  /// module fallback.
  ReplyMessage invoke_plain(const net::Address& dest, RequestMessage req);

  /// Reply callback. Takes the reply by value so the ORB can move the
  /// decoded message straight into the handler (zero-copy reply path);
  /// lambdas taking `const ReplyMessage&` remain compatible.
  using ReplyHandler = std::function<void(ReplyMessage)>;

  /// Fire-and-collect: sends without blocking; `on_reply` runs for the
  /// reply or, on timeout, for a synthesized SYSTEM_EXCEPTION reply with
  /// exception "maqs/TIMEOUT". Returns the request id.
  std::uint64_t send_request(const net::Address& dest, RequestMessage req,
                             ReplyHandler on_reply,
                             sim::Duration timeout = 0);

  /// Multicast variant: one frame to every group member; `on_reply` runs
  /// once per reply until cancel_request() is called or the timeout fires
  /// (timeout delivers the synthesized "maqs/TIMEOUT" reply once).
  std::uint64_t send_multicast_request(
      const std::string& group, RequestMessage req,
      ReplyHandler on_reply,
      sim::Duration timeout = 0);

  /// Stops reply delivery for an outstanding request id.
  void cancel_request(std::uint64_t request_id);

  /// Convenience: blocking wait for a predicate on this ORB's loop.
  bool run_until(const std::function<bool()>& pred) {
    return loop().run_until(pred);
  }

  // ---- server side (exposed for the QoS transport) ----

  /// Dispatches a service request through the server chain from
  /// kServerDispatchEntry (router inbound/outbound transforms + adapter),
  /// skipping the wire stages.
  ReplyMessage dispatch(RequestMessage req, const net::Address& from);

  /// Re-enters the full server chain for a request a scheduling
  /// interceptor parked earlier (see sched::RequestScheduler). The walk
  /// carries ServerRequestInfo::resumed so the parking level passes the
  /// request through; everything else — trace re-attach, wire reply,
  /// QoS transforms, adapter dispatch — runs exactly as for a fresh
  /// arrival.
  void resume_request(RequestMessage req, const net::Address& from);

  /// Encodes `rep`, counts the bytes in stats and sends the frame to
  /// `to`. The wire tail shared by the wire.reply interceptor and by
  /// schedulers that must answer a parked request (shed/evict) outside
  /// any chain walk.
  void send_reply_frame(const net::Address& to, const ReplyMessage& rep);

 private:
  void on_frame(const net::Address& from, const util::Bytes& data);
  void handle_request(const net::Address& from, RequestMessage req);
  void handle_reply(const net::Address& from, ReplyMessage rep);
  /// Adapter dispatch only (the server chain's terminal).
  ReplyMessage dispatch_to_servant(const RequestMessage& req,
                                   const net::Address& from);

  /// Recursive onion walk over the client chain; the level past the end
  /// is attempt_once().
  void client_walk(ClientRequestInfo& info, std::size_t index);
  /// The client chain's terminal: one blocking wire attempt — send, pump
  /// until the reply (possibly a synthesized local fault) arrives.
  /// Admission (breaker) already happened in the chain; this never
  /// re-checks it (a half-open circuit admits exactly one probe).
  void attempt_once(ClientRequestInfo& info);
  /// Encode + pending entry + network send (no breaker admission).
  std::uint64_t wire_send(const net::Address& dest, const RequestMessage& req,
                          ReplyHandler on_reply, sim::Duration timeout);

  struct Pending {
    std::uint64_t id = 0;
    ReplyHandler on_reply;
    sim::EventId timeout_event = 0;
    bool multi = false;
    /// Destination and addressed profile (object key), recorded only while
    /// circuit breaking is enabled (and never for multicast) so the
    /// timeout and the matched reply can charge/credit the right breaker.
    net::Address dest;
    std::string profile;
  };

  /// Registers a pending entry with its timeout; shared by wire_send and
  /// send_multicast_request. `dest`/`profile` may be empty (multicast).
  void add_pending(std::uint64_t id, ReplyHandler on_reply,
                   sim::Duration timeout, bool multi, const net::Address& dest,
                   const std::string& profile);
  std::vector<Pending>::iterator find_pending(std::uint64_t id) noexcept;
  /// Removes the entry without touching its timeout event. The swap-and-pop
  /// invariant lives here and only here: the timeout path (whose event is
  /// already firing and must not be cancelled) and erase_pending share it.
  void pop_pending(std::vector<Pending>::iterator it);
  /// Erases a pending entry, always cancelling its timeout event first so
  /// no stale timeout can fire for a completed/cancelled request.
  void erase_pending(std::vector<Pending>::iterator it);

  net::Network& network_;
  net::Address endpoint_;
  ObjectAdapter adapter_;
  RequestRouter* router_ = nullptr;
  trace::TraceRecorder* trace_recorder_ = nullptr;
  std::uint64_t next_request_id_ = 1;
  // Flat store plus an id -> slot index. The vector keeps entries
  // contiguous (capacity reuse, cheap teardown iteration); the index keeps
  // reply matching O(1) — population runs hold thousands of requests in
  // flight, where the old linear scan went quadratic per reply wave. Both
  // reuse their storage, so a steady request stream registers and retires
  // entries without allocating.
  std::vector<Pending> pending_;
  util::FlatIndex pending_index_;
  sim::Duration default_timeout_ = 2 * sim::kSecond;
  OrbStats stats_;

  // The pipeline: chains first, then the built-in interceptors (which
  // capture `stats_` by reference, so stats_ must precede them). The
  // ORB's constructor registers the built-ins at their documented
  // priorities; they are armed-but-idle until the matching facade
  // (set_retry_advisor, set_breaker_config, set_router,
  // set_trace_recorder, a stub's set_mediator) arms them.
  ClientChain client_chain_;
  ServerChain server_chain_;
  TraceClientInterceptor trace_ci_;
  MediatorClientInterceptor mediator_ci_;
  RouteClientInterceptor route_ci_;
  LocalFaultClientInterceptor fault_ci_;
  RetryClientInterceptor retry_ci_;
  AttemptTraceClientInterceptor attempt_ci_;
  BreakerClientInterceptor breaker_ci_;
  TraceServerInterceptor trace_si_;
  WireReplyServerInterceptor wire_si_;
  QosServerInterceptor qos_si_;
};

}  // namespace maqs::orb
