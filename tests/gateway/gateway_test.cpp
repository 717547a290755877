// End-to-end edge gateway tests: HTTP/JSON client -> route table -> DII
// through the full client interceptor chain -> Echo servant, plus the
// exception -> status mapping, MTOM blob offload, QoS classification and
// trace propagation.
#include <gtest/gtest.h>

#include <string>

#include "gateway/gateway.hpp"
#include "gateway/json.hpp"
#include "gateway/mtom.hpp"
#include "net/network.hpp"
#include "qidl/repository.hpp"
#include "sched/scheduler.hpp"
#include "support/echo.hpp"
#include "support/http_client.hpp"
#include "trace/trace.hpp"

namespace maqs::gateway {
namespace {

using maqs::testing::EchoImpl;
using maqs::testing::HttpTestClient;
using maqs::testing::kGatewayEchoQidl;

class GatewayTest : public ::testing::Test {
 protected:
  GatewayTest()
      : repo_(qidl::InterfaceRepository::build(qidl::analyze(kGatewayEchoQidl))),
        net_(loop_, 7),
        server_(net_, "server", 9000),
        edge_(net_, "edge", 9001),
        gw_(edge_, repo_, 8080),
        web_(net_, {"web", 80}, gw_.endpoint()) {
    impl_ = std::make_shared<EchoImpl>();
    ref_ = server_.adapter().activate("echo-1", impl_);
    gw_.expose("Echo", ref_);
  }

  static std::string text(const HttpResponse& resp) {
    return std::string(reinterpret_cast<const char*>(resp.body.data()),
                       resp.body.size());
  }

  /// The "error.code" member of a structured fault body.
  static std::string fault_code(const HttpResponse& resp) {
    const JsonValue body = parse_json(text(resp));
    const JsonValue* error = body.find("error");
    if (error == nullptr || error->find("code") == nullptr) return {};
    return error->find("code")->as_string();
  }

  qidl::InterfaceRepository repo_;
  sim::EventLoop loop_;
  net::Network net_;
  orb::Orb server_;
  orb::Orb edge_;
  Gateway gw_;
  HttpTestClient web_;
  std::shared_ptr<EchoImpl> impl_;
  orb::ObjRef ref_;
};

TEST_F(GatewayTest, RouteTableCoversEveryOperation) {
  ASSERT_EQ(gw_.routes().routes().size(), 6u);
  EXPECT_NE(gw_.routes().find("/api/Echo/add"), nullptr);
  EXPECT_NE(gw_.routes().find("/api/Echo/blob"), nullptr);
  EXPECT_EQ(gw_.routes().find("/api/Echo/nope"), nullptr);
}

TEST_F(GatewayTest, AddRoundTrip) {
  const auto resp = web_.request("POST", "/api/Echo/add", "{\"a\":2,\"b\":40}");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(text(*resp), "{\"result\":42}");
  EXPECT_EQ(impl_->calls, 1);
  EXPECT_EQ(gw_.stats().ok, 1u);
}

TEST_F(GatewayTest, EchoAndVoidAndNoArgOperations) {
  auto resp = web_.request("POST", "/api/Echo/echo", "{\"s\":\"hello\"}");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(text(*resp), "{\"result\":\"hello\"}");

  resp = web_.request("POST", "/api/Echo/set_value", "{\"v\":7}");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(text(*resp), "{\"result\":null}");

  // Empty body is accepted for zero-parameter operations.
  resp = web_.request("POST", "/api/Echo/value", "");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(text(*resp), "{\"result\":7}");
}

TEST_F(GatewayTest, KeepAliveAndPipelining) {
  // Two requests in a single frame: responses must come back in order on
  // the same connection.
  util::Bytes frame =
      HttpTestClient::encode_request("POST", "/api/Echo/add",
                                     "{\"a\":1,\"b\":1}");
  const util::Bytes second = HttpTestClient::encode_request(
      "POST", "/api/Echo/add", "{\"a\":2,\"b\":2}");
  frame.insert(frame.end(), second.begin(), second.end());
  web_.send_raw(std::move(frame));
  auto first = web_.await_response();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(text(*first), "{\"result\":2}");
  auto next = web_.await_response();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(text(*next), "{\"result\":4}");
  EXPECT_EQ(gw_.open_connections(), 1u);
}

TEST_F(GatewayTest, UnknownRouteIs404) {
  const auto resp = web_.request("POST", "/api/Echo/nope", "{}");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 404);
  EXPECT_EQ(fault_code(*resp), "maqs/NO_ROUTE");
  EXPECT_EQ(gw_.stats().not_found, 1u);
}

TEST_F(GatewayTest, WrongMethodIs400) {
  const auto resp = web_.request("GET", "/api/Echo/add", "");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 400);
  EXPECT_EQ(fault_code(*resp), "maqs/BAD_METHOD");
}

TEST_F(GatewayTest, UnexposedInterfaceIs404) {
  Gateway bare(edge_, repo_, 8081);
  HttpTestClient client(net_, {"web2", 80}, bare.endpoint());
  const auto resp = client.request("POST", "/api/Echo/add",
                                   "{\"a\":1,\"b\":2}");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 404);
  EXPECT_EQ(fault_code(*resp), "maqs/NOT_EXPOSED");
}

TEST_F(GatewayTest, BadBodiesAre400) {
  const char* bodies[] = {
      "not json",                 // unparseable
      "[1,2]",                    // not an object
      "{\"a\":1}",                // missing parameter
      "{\"a\":1,\"b\":2,\"c\":3}",  // unknown parameter
      "{\"a\":\"x\",\"b\":2}",    // wrong type
      "{\"a\":2147483648,\"b\":0}",  // out of range for long
  };
  for (const char* body : bodies) {
    const auto resp = web_.request("POST", "/api/Echo/add", body);
    ASSERT_TRUE(resp.has_value()) << body;
    EXPECT_EQ(resp->status, 400) << body;
    EXPECT_EQ(fault_code(*resp), "maqs/BAD_BODY") << body;
  }
  EXPECT_EQ(impl_->calls, 0);
}

TEST_F(GatewayTest, MalformedHttpIs400AndDropsConnection) {
  web_.send_text("THIS IS NOT HTTP\r\n\r\n");
  const auto resp = web_.await_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 400);
  EXPECT_EQ(fault_code(*resp), "maqs/BAD_REQUEST");
  EXPECT_EQ(gw_.stats().malformed, 1u);
  EXPECT_EQ(gw_.open_connections(), 0u);
}

TEST_F(GatewayTest, UserExceptionIs500WithDetail) {
  const auto resp = web_.request("POST", "/api/Echo/boom", "{}");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 500);
  EXPECT_EQ(fault_code(*resp), maqs::testing::kEchoFaultId);
  EXPECT_NE(text(*resp).find("boom requested"), std::string::npos);
}

TEST_F(GatewayTest, UpstreamTimeoutIs504) {
  edge_.set_default_timeout(200 * sim::kMillisecond);
  net_.crash("server");
  const auto resp = web_.request("POST", "/api/Echo/add", "{\"a\":1,\"b\":2}");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 504);
  EXPECT_EQ(fault_code(*resp), "maqs/TIMEOUT");
  EXPECT_EQ(gw_.stats().gateway_timeout, 1u);
}

TEST_F(GatewayTest, OpenCircuitIs503WithRetryAfter) {
  edge_.set_default_timeout(100 * sim::kMillisecond);
  orb::BreakerConfig breaker;
  breaker.failure_threshold = 2;
  breaker.open_period = 10 * sim::kSecond;
  edge_.set_breaker_config(breaker);
  net_.crash("server");
  // Two timeouts trip the breaker; the third request fast-fails.
  for (int i = 0; i < 2; ++i) {
    const auto resp =
        web_.request("POST", "/api/Echo/add", "{\"a\":1,\"b\":2}");
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, 504);
  }
  const auto resp = web_.request("POST", "/api/Echo/add", "{\"a\":1,\"b\":2}");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 503);
  EXPECT_EQ(fault_code(*resp), "maqs/CIRCUIT_OPEN");
  ASSERT_TRUE(resp->header("retry-after").has_value());
  EXPECT_EQ(*resp->header("retry-after"), "1");
  EXPECT_EQ(gw_.stats().unavailable, 1u);
}

TEST_F(GatewayTest, SchedulerOverloadIs503) {
  // A zero-capacity best-effort queue sheds any arrival while the server
  // is busy; pace the service rate so a warm-up call occupies it.
  sched::SchedulerConfig config;
  sched::ClassConfig best;
  best.name = sched::kBestEffortClassName;
  best.queue_limit = 0;
  config.classes.push_back(best);
  config.service_rate_rps = 10.0;  // 100ms per request
  sched::RequestScheduler scheduler(server_, config);

  // An idle server is work-conserving and serves the first call inline.
  const auto warm = web_.request("POST", "/api/Echo/add", "{\"a\":0,\"b\":0}");
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->status, 200);

  // The next arrival lands inside the busy window and is shed.
  const auto resp = web_.request("POST", "/api/Echo/add", "{\"a\":1,\"b\":2}");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 503);
  EXPECT_EQ(fault_code(*resp), sched::kOverloadException);
  ASSERT_TRUE(resp->header("retry-after").has_value());
}

TEST_F(GatewayTest, TenantHeaderBecomesQosClassTag) {
  // gold tenants ride a gold-class queue that absorbs the busy window;
  // unknown tenants fall into best-effort, whose zero-capacity queue
  // sheds — observable proof the header became the qos.class context tag.
  sched::SchedulerConfig config;
  sched::ClassConfig gold;
  gold.name = "gold";
  gold.weight = 3.0;
  gold.queue_limit = 16;
  gold.deadline_budget = 1 * sim::kSecond;
  config.classes.push_back(gold);
  sched::ClassConfig best;
  best.name = sched::kBestEffortClassName;
  best.queue_limit = 0;
  config.classes.push_back(best);
  config.service_rate_rps = 10.0;  // 100ms per request
  sched::RequestScheduler scheduler(server_, config);

  gw_.set_tenant_class("acme", "gold");

  // First gold call dispatches inline and opens a 100ms busy window.
  const auto gold_resp = web_.request("POST", "/api/Echo/add",
                                      "{\"a\":1,\"b\":2}",
                                      {{"x-maqs-tenant", "acme"}});
  ASSERT_TRUE(gold_resp.has_value());
  EXPECT_EQ(gold_resp->status, 200);

  // Second gold call (explicit class header) queues and still completes.
  const auto direct = web_.request("POST", "/api/Echo/add",
                                   "{\"a\":3,\"b\":4}",
                                   {{"x-qos-class", "gold"}});
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(direct->status, 200);

  // Unknown tenant -> best_effort -> shed while the server is busy.
  const auto best_resp = web_.request("POST", "/api/Echo/add",
                                      "{\"a\":5,\"b\":6}",
                                      {{"x-maqs-tenant", "unknown"}});
  ASSERT_TRUE(best_resp.has_value());
  EXPECT_EQ(best_resp->status, 503);
}

TEST_F(GatewayTest, SmallBlobInlinesAsJsonArray) {
  const auto resp = web_.request("POST", "/api/Echo/blob",
                                 "{\"data\":[1,2,255]}");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(text(*resp), "{\"result\":[1,2,255]}");
}

TEST_F(GatewayTest, LargeBlobGoesOutOfBandWhenAccepted) {
  // Build a multipart request whose blob argument rides a binary part,
  // and ask for a multipart response.
  std::string blob(4096, '\0');
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<char>('a' + (i % 23));
  }
  const util::Bytes blob_bytes(blob.begin(), blob.end());
  MultipartBuilder builder("req-b");
  builder.add_json_root("{\"data\":{\"$blob\":\"cid:d0\"}}");
  builder.add_blob_part("d0", blob_bytes);  // view; must outlive finish()
  const util::Bytes container = builder.finish();

  std::string head =
      "POST /api/Echo/blob HTTP/1.1\r\n"
      "content-type: " + builder.content_type() + "\r\n"
      "accept: multipart/related\r\n"
      "content-length: " + std::to_string(container.size()) + "\r\n\r\n";
  util::Bytes frame(head.begin(), head.end());
  frame.insert(frame.end(), container.begin(), container.end());
  web_.send_raw(std::move(frame));

  const auto resp = web_.await_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  ASSERT_TRUE(resp->header("content-type").has_value());
  const ContentType ct = parse_content_type(*resp->header("content-type"));
  ASSERT_EQ(ct.media_type, "multipart/related");
  const auto parsed = parse_multipart_related(resp->body, ct.boundary);
  ASSERT_TRUE(parsed.has_value());
  // Root references the blob part; the part carries the echoed bytes.
  const JsonValue root = parse_json(std::string(
      reinterpret_cast<const char*>(parsed->root.data()), parsed->root.size()));
  const JsonValue* ref = root.find("result")->find("$blob");
  ASSERT_NE(ref, nullptr);
  const MtomPart* part = parsed->find(ref->as_string());
  ASSERT_NE(part, nullptr);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(part->data.data()),
                        part->data.size()),
            blob);
  EXPECT_EQ(gw_.stats().mtom_parts_in, 1u);
  EXPECT_EQ(gw_.stats().mtom_parts_out, 1u);
}

TEST_F(GatewayTest, LargeBlobInlinesWithoutAcceptHeader) {
  // Same call without Accept: multipart/related stays inline JSON.
  std::string args = "{\"data\":[";
  for (int i = 0; i < 2048; ++i) {
    args += (i ? ",7" : "7");
  }
  args += "]}";
  const auto resp = web_.request("POST", "/api/Echo/blob", args);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  ASSERT_TRUE(resp->header("content-type").has_value());
  EXPECT_EQ(*resp->header("content-type"), "application/json");
}

TEST_F(GatewayTest, TracePropagatesFromHeaderThroughInvocation) {
  trace::TraceRecorder recorder(loop_);
  recorder.set_enabled(true);
  edge_.set_trace_recorder(&recorder);

  const auto resp = web_.request("POST", "/api/Echo/add", "{\"a\":1,\"b\":2}",
                                 {{"x-trace-id", "abc123"}});
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  ASSERT_TRUE(resp->header("x-trace-id").has_value());
  EXPECT_EQ(*resp->header("x-trace-id"), "0000000000abc123");

  // The gateway.request root span owns a client.request child, all under
  // the caller's trace id.
  const auto spans = recorder.spans();
  const trace::Span* root = nullptr;
  const trace::Span* client = nullptr;
  for (const trace::Span& span : spans) {
    if (std::string_view(span.name) == "gateway.request") root = &span;
    if (std::string_view(span.name) == "client.request") client = &span;
  }
  ASSERT_NE(root, nullptr);
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(root->trace_id, 0xabc123u);
  EXPECT_EQ(client->trace_id, 0xabc123u);
  EXPECT_EQ(client->parent_id, root->span_id);
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(root->detail, "POST /api/Echo/add");
}

TEST_F(GatewayTest, KeepAliveRequestsDoNotInheritHeaders) {
  // The connection reuses one parsed request for all of its requests. The
  // first carries a trace id (echoed back as x-trace-id); the second,
  // pipelined behind it, carries none and must not be answered with one.
  util::Bytes wire = HttpTestClient::encode_request(
      "POST", "/api/Echo/add", "{\"a\":1,\"b\":2}", {{"x-trace-id", "abc123"}});
  const util::Bytes second = HttpTestClient::encode_request(
      "POST", "/api/Echo/echo", "{\"s\":\"hi\"}");
  wire.insert(wire.end(), second.begin(), second.end());
  web_.send_raw(wire);
  const auto first_resp = web_.await_response();
  const auto second_resp = web_.await_response();
  ASSERT_TRUE(first_resp.has_value());
  ASSERT_TRUE(second_resp.has_value());
  EXPECT_EQ(text(*first_resp), "{\"result\":3}");
  ASSERT_TRUE(first_resp->header("x-trace-id").has_value());
  EXPECT_EQ(*first_resp->header("x-trace-id"), "0000000000abc123");
  EXPECT_EQ(text(*second_resp), "{\"result\":\"hi\"}");
  EXPECT_FALSE(second_resp->header("x-trace-id").has_value());

  // A third request torn into one-byte reads: same answer, still no
  // inherited header, and the connection stays open throughout.
  const util::Bytes third = HttpTestClient::encode_request(
      "POST", "/api/Echo/add", "{\"a\":5,\"b\":6}");
  for (const std::uint8_t b : third) web_.send_raw(util::Bytes{b});
  const auto third_resp = web_.await_response();
  ASSERT_TRUE(third_resp.has_value());
  EXPECT_EQ(text(*third_resp), "{\"result\":11}");
  EXPECT_FALSE(third_resp->header("x-trace-id").has_value());
  EXPECT_EQ(gw_.open_connections(), 1u);
}

TEST_F(GatewayTest, MintsTraceWhenNoHeader) {
  trace::TraceRecorder recorder(loop_);
  recorder.set_enabled(true);
  edge_.set_trace_recorder(&recorder);
  const auto resp = web_.request("POST", "/api/Echo/add", "{\"a\":1,\"b\":2}");
  ASSERT_TRUE(resp.has_value());
  EXPECT_TRUE(resp->header("x-trace-id").has_value());
}

TEST_F(GatewayTest, IdleConnectionsAreReaped) {
  const auto resp = web_.request("POST", "/api/Echo/add", "{\"a\":1,\"b\":2}");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(gw_.open_connections(), 1u);
  loop_.run_for(31 * sim::kSecond);
  gw_.sweep_idle();
  EXPECT_EQ(gw_.open_connections(), 0u);
  EXPECT_EQ(gw_.stats().idle_reaped, 1u);
}

TEST_F(GatewayTest, ExposeRejectsUnknownInterface) {
  EXPECT_THROW(gw_.expose("Nope", ref_), Error);
}

}  // namespace
}  // namespace maqs::gateway
