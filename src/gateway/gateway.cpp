#include "gateway/gateway.hpp"

#include <array>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <iterator>

#include "cdr/decoder.hpp"
#include "cdr/encoder.hpp"
#include "gateway/json.hpp"
#include "orb/exceptions.hpp"
#include "sched/classifier.hpp"
#include "sched/scheduler.hpp"
#include "trace/trace.hpp"
#include "util/buffer_pool.hpp"

namespace maqs::gateway {

namespace {

/// True for sequence<octet> — the blob kind that bypasses Any marshaling.
bool is_blob(const cdr::TypeCodePtr& type) {
  return type->kind() == cdr::TCKind::kSequence &&
         type->element()->kind() == cdr::TCKind::kOctet;
}

/// 1..16 hex chars -> u64; nullopt on garbage.
std::optional<std::uint64_t> parse_hex_id(std::string_view s) {
  if (s.empty() || s.size() > 16) return std::nullopt;
  std::uint64_t value = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return std::nullopt;
    }
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  if (value == 0) return std::nullopt;
  return value;
}

/// The 16 lowercase hex digits of `id`, written into `buf`.
std::string_view hex_id(std::uint64_t id, char (&buf)[20]) {
  std::snprintf(buf, sizeof buf, "%016" PRIx64, id);
  return {buf, 16};
}

/// Decimal text of `value`, written into `buf`.
template <typename Int>
std::string_view decimal(Int value, char (&buf)[24]) {
  return {buf, std::to_chars(std::begin(buf), std::end(buf), value).ptr};
}

/// Structured fault body: {"error":{"status":N,"code":...,"detail":...}}.
void write_fault_body(std::string& out, int status, std::string_view code,
                      std::string_view detail) {
  out.assign("{\"error\":{\"status\":");
  out += std::to_string(status);
  out += ",\"code\":";
  write_json_string(code, out);
  out += ",\"detail\":";
  write_json_string(detail, out);
  out += "}}";
}

bool wants_multipart(const HttpRequest& req) {
  const auto accept = req.header("accept");
  return accept.has_value() &&
         accept->find("multipart/related") != std::string_view::npos;
}

}  // namespace

Gateway::Gateway(orb::Orb& orb, const qidl::InterfaceRepository& repo,
                 std::uint16_t port, GatewayConfig config)
    : orb_(orb),
      repo_(repo),
      config_(std::move(config)),
      listen_{orb.endpoint().node, port},
      routes_(RouteTable::build(repo, config_.api_prefix)) {
  orb_.network().bind(listen_,
                      [this](const net::Address& from,
                             const util::Bytes& payload) {
                        on_payload(from, payload);
                      });
}

Gateway::~Gateway() { orb_.network().unbind(listen_); }

void Gateway::expose(const std::string& interface_name, orb::ObjRef target,
                     orb::ClientDelegate* mediator) {
  if (repo_.find_interface(interface_name) == nullptr) {
    throw Error("gateway: unknown interface " + interface_name);
  }
  exposures_[interface_name] = Exposure{std::move(target), mediator};
}

void Gateway::set_tenant_class(std::string tenant, std::string qos_class) {
  tenants_[std::move(tenant)] = std::move(qos_class);
}

void Gateway::sweep_idle() {
  const sim::TimePoint now = orb_.loop().now();
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (!it->second->handling &&
        now - it->second->last_activity > config_.idle_timeout) {
      it->second->closed = true;
      ++stats_.idle_reaped;
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Gateway::on_payload(const net::Address& from,
                         const util::Bytes& payload) {
  sweep_idle();
  ConnectionPtr& slot = connections_[from];
  if (slot == nullptr) {
    slot = std::make_shared<Connection>();
    ++stats_.connections;
  }
  const ConnectionPtr conn = slot;  // pin across nested pumping
  conn->last_activity = orb_.loop().now();
  conn->parser.feed(payload);
  // A nested invoke below is already pumping the loop for this
  // connection: just buffer; the outer drain picks the bytes up in order
  // (pipelined responses must not interleave).
  if (conn->handling) return;
  drain(from, conn);
}

void Gateway::drain(const net::Address& from, const ConnectionPtr& conn) {
  conn->handling = true;
  for (;;) {
    const HttpParser::Result result = conn->parser.poll(conn->request);
    if (result == HttpParser::Result::kNeedMore) break;
    if (result == HttpParser::Result::kError) {
      // Framing violation: answer 400 once, then drop the connection —
      // never crash, never hang, never ignore.
      ++stats_.malformed;
      ++stats_.bad_request;
      write_fault_body(conn->text, 400, "maqs/BAD_REQUEST",
                       conn->parser.error());
      send_json(from, 400, conn->text, /*close_connection=*/true, 0);
      conn->closed = true;
      break;
    }
    ++stats_.requests;
    handle(from, *conn);
    if (conn->closed || !conn->request.keep_alive) {
      conn->closed = true;
      break;
    }
  }
  conn->handling = false;
  if (conn->closed) connections_.erase(from);
}

std::string Gateway::qos_class_for(const HttpRequest& req) const {
  if (const auto cls = req.header(kClassHeader)) return std::string(*cls);
  if (const auto tenant = req.header(kTenantHeader)) {
    const auto it = tenants_.find(std::string(*tenant));
    if (it != tenants_.end()) return it->second;
  }
  return config_.default_class;
}

void Gateway::count_status(int status) {
  switch (status) {
    case 200: ++stats_.ok; break;
    case 400: ++stats_.bad_request; break;
    case 404: ++stats_.not_found; break;
    case 503: ++stats_.unavailable; break;
    case 504: ++stats_.gateway_timeout; break;
    default: ++stats_.server_fault; break;
  }
}

void Gateway::send_json(const net::Address& from, int status,
                        std::string_view body, bool close_connection,
                        std::uint64_t trace_id) {
  std::array<HeaderView, 3> headers;
  std::size_t n = 0;
  headers[n++] = {"content-type", "application/json"};
  char trace_text[20];
  if (trace_id != 0) {
    headers[n++] = {kTraceHeader, hex_id(trace_id, trace_text)};
  }
  char retry_text[24];
  if (status == 503) {
    headers[n++] = {"retry-after",
                    decimal(config_.retry_after_seconds, retry_text)};
  }
  const util::BytesView bytes(
      reinterpret_cast<const std::uint8_t*>(body.data()), body.size());
  orb_.network().send(listen_, from,
                      encode_response(status, {headers.data(), n}, bytes,
                                      close_connection));
}

void Gateway::send_fault(const net::Address& from, Connection& conn,
                         int status, std::string_view code,
                         std::string_view detail, std::uint64_t trace_id) {
  count_status(status);
  write_fault_body(conn.text, status, code, detail);
  send_json(from, status, conn.text, !conn.request.keep_alive, trace_id);
}

void Gateway::send_mtom_response(const net::Address& from, Connection& conn,
                                 util::BytesView blob,
                                 std::uint64_t trace_id) {
  ++stats_.mtom_parts_out;
  count_status(200);
  char cid_digits[24];
  const std::string_view cid_number = decimal(next_cid_++, cid_digits);

  // Container layout, sized exactly so the head and the container are
  // written straight into one pooled frame: the blob part is copied once,
  // off the reply buffer.
  //   --maqs-rN CRLF content-type: application/json CRLF CRLF
  //   {"result":{"$blob":"cid:rN"}} CRLF
  //   --maqs-rN CRLF content-id: <rN> CRLF content-type: ... CRLF CRLF
  //   <blob> CRLF
  //   --maqs-rN-- CRLF
  constexpr std::string_view kRootType =
      "\r\ncontent-type: application/json\r\n\r\n";
  constexpr std::string_view kRootOpen = "{\"result\":{\"$blob\":\"cid:r";
  constexpr std::string_view kRootClose = "\"}}\r\n";
  constexpr std::string_view kCidOpen = "\r\ncontent-id: <r";
  constexpr std::string_view kBlobType =
      ">\r\ncontent-type: application/octet-stream\r\n\r\n";
  const std::size_t delimiter = 2 + 6 + cid_number.size();  // --maqs-rN
  const std::size_t container_size =
      delimiter + kRootType.size() + kRootOpen.size() + cid_number.size() +
      kRootClose.size() + delimiter + kCidOpen.size() + cid_number.size() +
      kBlobType.size() + blob.size() + 2 + delimiter + 4;

  std::string& head = conn.text;
  head.assign(
      "HTTP/1.1 200 OK\r\ncontent-type: multipart/related; "
      "boundary=maqs-r");
  head += cid_number;
  head += "; type=\"application/json\"\r\n";
  if (trace_id != 0) {
    char trace_text[20];
    head += "x-trace-id: ";
    head += hex_id(trace_id, trace_text);
    head += "\r\n";
  }
  char length_digits[24];
  head += "content-length: ";
  head += decimal(container_size, length_digits);
  head += "\r\n";
  if (!conn.request.keep_alive) head += "connection: close\r\n";
  head += "\r\n";

  util::Bytes frame =
      util::BufferPool::instance().acquire(head.size() + container_size);
  auto put = [&frame](std::string_view text) {
    frame.insert(frame.end(), text.begin(), text.end());
  };
  auto put_delimiter = [&] {
    put("--maqs-r");
    put(cid_number);
  };
  put(head);
  put_delimiter();
  put(kRootType);
  put(kRootOpen);
  put(cid_number);
  put(kRootClose);
  put_delimiter();
  put(kCidOpen);
  put(cid_number);
  put(kBlobType);
  frame.insert(frame.end(), blob.begin(), blob.end());
  put("\r\n");
  put_delimiter();
  put("--\r\n");
  orb_.network().send(listen_, from, std::move(frame));
}

void Gateway::handle(const net::Address& from, Connection& conn) {
  const HttpRequest& req = conn.request;
  // ---- trace: adopt the caller's id or mint one; the gateway.request
  // span stays active across the whole translation, so the DII
  // invocation's client.request span nests under it.
  trace::TraceRecorder* recorder = orb_.trace_recorder();
  trace::TraceContext parent;
  if (const auto header = req.header(kTraceHeader)) {
    if (const auto id = parse_hex_id(*header)) {
      parent.trace_id = *id;
      parent.flags = trace::kSampledFlag;
    }
  }
  std::optional<trace::SpanScope> span;
  if (recorder != nullptr && recorder->enabled()) {
    if (!parent.valid()) parent = recorder->make_trace();
    if (parent.sampled()) {
      span.emplace(*recorder, parent, "gateway.request",
                   req.method + " " + req.target);
    }
  }
  const std::uint64_t trace_id = parent.valid() ? parent.trace_id : 0;

  // ---- route ----
  const Route* route = routes_.find(req.target);
  if (route == nullptr) {
    send_fault(from, conn, 404, "maqs/NO_ROUTE",
               "no route for " + req.target, trace_id);
    return;
  }
  if (req.method != "POST") {
    send_fault(from, conn, 400, "maqs/BAD_METHOD",
               "route " + req.target + " requires POST", trace_id);
    return;
  }
  const auto exposure = exposures_.find(route->interface->name);
  if (exposure == exposures_.end()) {
    send_fault(from, conn, 404, "maqs/NOT_EXPOSED",
               "interface " + route->interface->name + " is not exposed",
               trace_id);
    return;
  }

  // ---- body: JSON document, possibly inside a multipart container ----
  MtomContainer container;
  std::string_view json_text;
  const std::optional<std::string_view> content_type =
      req.header("content-type");
  if (content_type.has_value() &&
      has_media_type(*content_type, "multipart/related")) {
    auto parsed = parse_multipart_related(
        req.body, parse_content_type(*content_type).boundary);
    if (!parsed.has_value()) {
      send_fault(from, conn, 400, "maqs/BAD_MULTIPART",
                 "malformed multipart/related container", trace_id);
      return;
    }
    container = *std::move(parsed);
    json_text = {reinterpret_cast<const char*>(container.root.data()),
                 container.root.size()};
  } else if (!content_type.has_value() ||
             has_media_type(*content_type, "application/json") ||
             has_media_type(*content_type, "")) {
    json_text = {reinterpret_cast<const char*>(req.body.data()),
                 req.body.size()};
    if (json_text.empty()) json_text = "{}";
  } else {
    send_fault(from, conn, 400, "maqs/BAD_CONTENT_TYPE",
               "unsupported content type " +
                   parse_content_type(*content_type).media_type,
               trace_id);
    return;
  }

  // ---- marshal arguments per the repository signature ----
  const qidl::OperationSignature& op = *route->operation;
  cdr::Encoder args = cdr::Encoder::pooled();
  try {
    const JsonValue body = parse_json(json_text);
    if (!body.is_object()) throw JsonError("request body must be an object");
    std::size_t matched = 0;
    for (const auto& [name, type] : op.params) {
      const JsonValue* value = body.find(name);
      if (value == nullptr) {
        throw JsonError("missing parameter \"" + name + "\"");
      }
      ++matched;
      const JsonValue* blob_ref =
          value->is_object() ? value->find("$blob") : nullptr;
      if (blob_ref != nullptr) {
        // MTOM reference: the part's bytes go straight onto the CDR
        // stream (borrowed view, one copy, no per-octet Anys).
        if (!is_blob(type) || !blob_ref->is_string()) {
          throw JsonError("parameter \"" + name +
                          "\" cannot take a $blob reference");
        }
        const MtomPart* part = container.find(blob_ref->as_string());
        if (part == nullptr) {
          throw JsonError("unresolved blob reference " +
                          blob_ref->as_string());
        }
        ++stats_.mtom_parts_in;
        args.write_bytes(part->data);
      } else {
        json_to_any(*value, type).encode_value(args);
      }
    }
    if (matched != body.as_object().size()) {
      for (const auto& [name, value] : body.as_object()) {
        bool known = false;
        for (const auto& [param, type] : op.params) {
          known = known || param == name;
        }
        if (!known) throw JsonError("unknown parameter \"" + name + "\"");
      }
    }
  } catch (const Error& e) {
    send_fault(from, conn, 400, "maqs/BAD_BODY", e.what(), trace_id);
    return;
  }

  // ---- the DII bridge: full client interceptor chain ----
  orb::ClientRequestInfo info{orb_};
  info.target = &exposure->second.target;
  info.mediator = exposure->second.mediator;
  info.request.request_id = orb_.next_request_id();
  info.request.kind = orb::RequestKind::kServiceRequest;
  info.request.object_key = exposure->second.target.object_key;
  info.request.operation = op.name;
  info.request.body = args.take();
  const std::string qos_class = qos_class_for(req);
  if (!qos_class.empty()) {
    info.request.context.set(sched::kClassContextKey,
                             util::Bytes(qos_class.begin(), qos_class.end()));
  }

  try {
    orb_.invoke_with(info);
  } catch (const orb::TransportError&) {
    // Locally synthesized faults: the local_fault stage converted the
    // reply on the unwind; info.reply still names the cause.
    if (info.reply.exception == "maqs/CIRCUIT_OPEN") {
      send_fault(from, conn, 503, "maqs/CIRCUIT_OPEN",
                 "circuit breaker open for " + op.name, trace_id);
    } else {
      send_fault(from, conn, 504, "maqs/TIMEOUT",
                 "upstream timed out on " + op.name, trace_id);
    }
    return;
  } catch (const Error& e) {
    send_fault(from, conn, 500, "maqs/GATEWAY_FAULT", e.what(), trace_id);
    return;
  }
  util::BufferPool::instance().release(std::move(info.request.body));

  // ---- reply status -> HTTP ----
  const orb::ReplyMessage& reply = info.reply;
  switch (reply.status) {
    case orb::ReplyStatus::kOk:
      break;
    case orb::ReplyStatus::kUserException: {
      std::string detail;
      try {
        cdr::Decoder dec(reply.body);
        detail = dec.read_string();
      } catch (const cdr::CdrError&) {
        detail = "<unreadable exception body>";
      }
      send_fault(from, conn, 500, reply.exception, detail, trace_id);
      return;
    }
    case orb::ReplyStatus::kNoSuchObject:
    case orb::ReplyStatus::kBadOperation:
      send_fault(from, conn, 404, reply.exception, "no such object/operation",
                 trace_id);
      return;
    case orb::ReplyStatus::kSystemException:
      if (reply.exception.rfind(sched::kOverloadException, 0) == 0) {
        send_fault(from, conn, 503, sched::kOverloadException,
                   reply.exception, trace_id);
        return;
      }
      [[fallthrough]];
    default:
      send_fault(from, conn, 500, reply.exception, "upstream fault",
                 trace_id);
      return;
  }

  // ---- result -> JSON (or multipart for large blobs), written straight
  // into the connection's body buffer ----
  try {
    const cdr::TypeCodePtr& result_type = op.result;
    std::string& body = conn.text;
    if (is_blob(result_type)) {
      // Blob results bypass Any entirely: a borrowed view off the reply
      // buffer, handed either to the multipart assembler (copied once,
      // into the frame) or inlined as a JSON array.
      cdr::Decoder dec(reply.body);
      const util::BytesView blob = dec.read_bytes_view();
      dec.expect_end();
      if (wants_multipart(req) && blob.size() >= config_.mtom_threshold) {
        send_mtom_response(from, conn, blob, trace_id);
        return;
      }
      body.assign("{\"result\":[");
      for (std::size_t i = 0; i < blob.size(); ++i) {
        if (i != 0) body.push_back(',');
        char digits[24];
        body += decimal(blob[i], digits);
      }
      body += "]}";
    } else {
      JsonValue result(nullptr);
      if (result_type->kind() != cdr::TCKind::kVoid) {
        cdr::Decoder dec(reply.body);
        result = any_to_json(cdr::Any::decode_value(dec, result_type));
        dec.expect_end();
      }
      body.assign("{\"result\":");
      write_json(result, body);
      body.push_back('}');
    }
    count_status(200);
    send_json(from, 200, body, !req.keep_alive, trace_id);
  } catch (const Error& e) {
    send_fault(from, conn, 500, "maqs/BAD_REPLY", e.what(), trace_id);
  }
}

}  // namespace maqs::gateway
