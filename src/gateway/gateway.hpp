// The edge gateway: an HTTP/1.1 + JSON front-end node that translates
// web requests into DII invocations through the full client interceptor
// chain, so HTTP tenants inherit every QoS concern — tracing, mediation,
// replica selection/failover, retry, circuit breaking, and server-side
// WFQ scheduling/admission — without the gateway re-implementing any of
// them (the paper's separation-of-concerns claim at the protocol
// boundary).
//
// Flow per request:
//
//   net payload -> HttpParser (torn-read tolerant, pipelined)
//     -> route table (POST /api/<Interface>/<operation>)
//     -> body: application/json or multipart/related (MTOM blobs by cid)
//     -> args marshaled per the repository signature (JSON -> Any -> CDR;
//        sequence<octet> blobs bypass Any: one write_bytes straight off
//        the borrowed multipart view)
//     -> orb.invoke_with() through the client chain (a gateway.request
//        span is active, so the invocation's spans nest under it and the
//        trace id round-trips via the X-Trace-Id header)
//     -> reply status mapped to HTTP (see exception table below)
//     -> result as JSON, or multipart/related when a large blob result
//        goes out-of-band (blob copied once, straight into the frame).
//
// The HTTP edge allocates nothing per request in steady state: each
// connection keeps its parsed request and a text buffer for response
// bodies, and response frames are encoded in one pass into pooled
// buffers. (The JSON document, Any values and the qos.class service
// context still allocate; docs/architecture.md has the count.)
//
// Exception -> status mapping:
//
//   maqs/TIMEOUT (local)        504  code maqs/TIMEOUT
//   maqs/CIRCUIT_OPEN (local)   503  + Retry-After
//   maqs/OVERLOAD (scheduler)   503  + Retry-After
//   NO_SUCH_OBJECT / BAD_OP     404
//   unknown route / bad body    404 / 400
//   user exception, others      500
//
// QoS classification: the per-tenant header X-Maqs-Tenant (mapped via
// set_tenant_class) or the direct X-Qos-Class header becomes the
// "qos.class" service-context tag, so the server's scheduler governs
// HTTP traffic exactly like native traffic.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gateway/binding.hpp"
#include "gateway/http.hpp"
#include "gateway/mtom.hpp"
#include "net/network.hpp"
#include "orb/orb.hpp"
#include "qidl/repository.hpp"
#include "sim/event_loop.hpp"

namespace maqs::gateway {

/// Request headers the gateway interprets (lowercase, as parsed).
inline const std::string kTenantHeader = "x-maqs-tenant";
inline const std::string kClassHeader = "x-qos-class";
inline const std::string kTraceHeader = "x-trace-id";

struct GatewayConfig {
  /// Route prefix; must match the json_binding emitter's prefix.
  std::string api_prefix = "/api";
  /// Blob results at or above this size go out-of-band (multipart) when
  /// the client sent "Accept: multipart/related"; below it they inline as
  /// a JSON array.
  std::size_t mtom_threshold = 1024;
  /// Connections idle longer than this are reaped by sweep_idle() (the
  /// mid-body-disconnect defense; sweeps run lazily on later traffic).
  sim::Duration idle_timeout = 30 * sim::kSecond;
  /// Retry-After header value on 503 responses.
  int retry_after_seconds = 1;
  /// Class tag applied when no tenant/class header matches; empty = no
  /// tag (the server's classifier falls through to its own rules).
  std::string default_class;
};

struct GatewayStats {
  std::uint64_t requests = 0;          ///< complete requests parsed
  std::uint64_t ok = 0;                ///< 200 responses
  std::uint64_t bad_request = 0;       ///< 400 (bad body / malformed HTTP)
  std::uint64_t not_found = 0;         ///< 404 (route or object)
  std::uint64_t unavailable = 0;       ///< 503 (overload / circuit open)
  std::uint64_t gateway_timeout = 0;   ///< 504
  std::uint64_t server_fault = 0;      ///< 500
  std::uint64_t malformed = 0;         ///< connections poisoned by framing
  std::uint64_t mtom_parts_in = 0;     ///< blob parts consumed
  std::uint64_t mtom_parts_out = 0;    ///< blob parts produced
  std::uint64_t connections = 0;       ///< connections seen
  std::uint64_t idle_reaped = 0;       ///< connections dropped by sweep
};

class Gateway {
 public:
  /// Binds the HTTP listener to (orb node, `port`) on the ORB's network.
  /// `orb` is the gateway's client-side ORB: every HTTP request becomes a
  /// DII invocation through its interceptor chain. `repo` supplies the
  /// route table and marshaling signatures; both must outlive the
  /// gateway.
  Gateway(orb::Orb& orb, const qidl::InterfaceRepository& repo,
          std::uint16_t port, GatewayConfig config = {});
  ~Gateway();
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Maps a repository interface to a target object. Routes for an
  /// unexposed interface answer 404. The optional mediator delegate is
  /// installed per invocation (the woven client path: its transform
  /// chain borrows the request body as a ChainBuf region, so MTOM blobs
  /// ride the streaming pipeline).
  void expose(const std::string& interface_name, orb::ObjRef target,
              orb::ClientDelegate* mediator = nullptr);

  /// Maps an X-Maqs-Tenant header value to a QoS class name.
  void set_tenant_class(std::string tenant, std::string qos_class);

  const net::Address& endpoint() const noexcept { return listen_; }
  const RouteTable& routes() const noexcept { return routes_; }
  const GatewayStats& stats() const noexcept { return stats_; }
  std::size_t open_connections() const noexcept {
    return connections_.size();
  }

  /// Drops connections idle past config.idle_timeout. Runs lazily on
  /// every arriving payload; exposed for tests and embedders.
  void sweep_idle();

 private:
  struct Connection {
    HttpParser parser;
    HttpRequest request;  ///< refilled by every poll (keeps its capacity)
    std::string text;     ///< response body / multipart head scratch
    sim::TimePoint last_activity = 0;
    bool handling = false;  ///< a nested invoke is pumping the loop
    bool closed = false;
  };
  using ConnectionPtr = std::shared_ptr<Connection>;

  struct Exposure {
    orb::ObjRef target;
    orb::ClientDelegate* mediator = nullptr;
  };

  void on_payload(const net::Address& from, const util::Bytes& payload);
  void drain(const net::Address& from, const ConnectionPtr& conn);
  /// Handles conn.request; sends the response frame(s) itself.
  void handle(const net::Address& from, Connection& conn);

  /// Sends a JSON response frame: content-type, then x-trace-id when
  /// `trace_id` is set, then retry-after on 503.
  void send_json(const net::Address& from, int status, std::string_view body,
                 bool close_connection, std::uint64_t trace_id);
  /// Writes a structured JSON fault body into conn.text and sends it.
  void send_fault(const net::Address& from, Connection& conn, int status,
                  std::string_view code, std::string_view detail,
                  std::uint64_t trace_id);
  /// Writes the HTTP head and the multipart container straight into one
  /// pooled frame (the blob part is copied exactly once, off the reply
  /// buffer) and sends it.
  void send_mtom_response(const net::Address& from, Connection& conn,
                          util::BytesView blob, std::uint64_t trace_id);

  void count_status(int status);
  std::string qos_class_for(const HttpRequest& req) const;

  orb::Orb& orb_;
  const qidl::InterfaceRepository& repo_;
  GatewayConfig config_;
  net::Address listen_;
  RouteTable routes_;
  std::unordered_map<std::string, Exposure> exposures_;  // by interface name
  std::unordered_map<std::string, std::string> tenants_;
  std::unordered_map<net::Address, ConnectionPtr> connections_;
  GatewayStats stats_;
  std::uint64_t next_cid_ = 0;
};

}  // namespace maqs::gateway
