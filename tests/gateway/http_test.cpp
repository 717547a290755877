// HttpParser / HttpResponseParser unit tests: framing, torn reads,
// pipelining, chunked bodies, limits, poisoning.
#include <gtest/gtest.h>

#include <string>

#include "gateway/http.hpp"

namespace maqs::gateway {
namespace {

util::Bytes bytes(std::string_view s) {
  return util::Bytes(s.begin(), s.end());
}

std::string body_text(const HttpRequest& req) {
  return std::string(reinterpret_cast<const char*>(req.body.data()),
                     req.body.size());
}

TEST(HttpParser, ParsesSimpleRequest) {
  HttpParser parser;
  parser.feed(bytes("POST /api/Echo/add HTTP/1.1\r\n"
                    "Content-Type: application/json\r\n"
                    "content-length: 13\r\n\r\n"
                    "{\"a\":1,\"b\":2}"));
  HttpRequest req;
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.target, "/api/Echo/add");
  EXPECT_EQ(req.version, "HTTP/1.1");
  EXPECT_TRUE(req.keep_alive);
  ASSERT_TRUE(req.header("content-type").has_value());
  EXPECT_EQ(*req.header("content-type"), "application/json");
  EXPECT_EQ(body_text(req), "{\"a\":1,\"b\":2}");
  EXPECT_EQ(parser.poll(req), HttpParser::Result::kNeedMore);
}

TEST(HttpParser, HeaderNamesFoldToLowercase) {
  HttpParser parser;
  parser.feed(bytes("GET / HTTP/1.1\r\nX-TRACE-ID: abc\r\n\r\n"));
  HttpRequest req;
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  ASSERT_TRUE(req.header("x-trace-id").has_value());
  EXPECT_EQ(*req.header("x-trace-id"), "abc");
}

TEST(HttpParser, TornReadsAtEveryByte) {
  const std::string wire =
      "POST /x HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello";
  for (std::size_t split = 1; split < wire.size(); ++split) {
    HttpParser parser;
    parser.feed(bytes(wire.substr(0, split)));
    HttpRequest req;
    // The request must never complete early and never error mid-feed.
    const auto first = parser.poll(req);
    ASSERT_NE(first, HttpParser::Result::kError) << "split=" << split;
    parser.feed(bytes(wire.substr(split)));
    if (first != HttpParser::Result::kRequest) {
      ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest)
          << "split=" << split;
    }
    EXPECT_EQ(body_text(req), "hello") << "split=" << split;
  }
}

TEST(HttpParser, PipelinedRequestsInOneFeed) {
  HttpParser parser;
  parser.feed(bytes("GET /a HTTP/1.1\r\n\r\n"
                    "POST /b HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi"
                    "GET /c HTTP/1.1\r\n\r\n"));
  HttpRequest req;
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  EXPECT_EQ(req.target, "/a");
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  EXPECT_EQ(req.target, "/b");
  EXPECT_EQ(body_text(req), "hi");
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  EXPECT_EQ(req.target, "/c");
  EXPECT_EQ(parser.poll(req), HttpParser::Result::kNeedMore);
}

TEST(HttpParser, ChunkedBody) {
  HttpParser parser;
  parser.feed(bytes("POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"
                    "5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\n\r\n"));
  HttpRequest req;
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  EXPECT_EQ(body_text(req), "hello world");
}

TEST(HttpParser, ChunkedWithTrailerFields) {
  HttpParser parser;
  parser.feed(bytes("POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"
                    "3\r\nabc\r\n0\r\nx-checksum: 9\r\n\r\n"));
  HttpRequest req;
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  EXPECT_EQ(body_text(req), "abc");
}

TEST(HttpParser, ConnectionCloseAndHttp10Defaults) {
  HttpParser parser;
  parser.feed(bytes("GET /a HTTP/1.1\r\nConnection: close\r\n\r\n"
                    "GET /b HTTP/1.0\r\n\r\n"
                    "GET /c HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
  HttpRequest req;
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  EXPECT_FALSE(req.keep_alive);
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  EXPECT_FALSE(req.keep_alive);  // HTTP/1.0 default
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  EXPECT_TRUE(req.keep_alive);
}

TEST(HttpParser, MalformedRequestLinePoisons) {
  for (const char* wire :
       {"BROKEN\r\n\r\n", "GET  HTTP/1.1\r\n\r\n", "GET /x HTTP/2\r\n\r\n",
        "GET noslash HTTP/1.1\r\n\r\n"}) {
    HttpParser parser;
    parser.feed(bytes(wire));
    HttpRequest req;
    EXPECT_EQ(parser.poll(req), HttpParser::Result::kError) << wire;
    EXPECT_TRUE(parser.poisoned()) << wire;
    EXPECT_FALSE(parser.error().empty()) << wire;
    // Poisoned parsers stay poisoned.
    parser.feed(bytes("GET / HTTP/1.1\r\n\r\n"));
    EXPECT_EQ(parser.poll(req), HttpParser::Result::kError) << wire;
  }
}

TEST(HttpParser, MalformedFramingPoisons) {
  for (const char* wire :
       {"GET / HTTP/1.1\r\nbad header line\r\n\r\n",
        "GET / HTTP/1.1\r\n: novalue\r\n\r\n",
        "POST / HTTP/1.1\r\ncontent-length: 12x\r\n\r\n",
        "POST / HTTP/1.1\r\ncontent-length: -4\r\n\r\n",
        "POST / HTTP/1.1\r\ntransfer-encoding: gzip\r\n\r\n",
        "POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\nzz\r\n",
        "POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n2\r\nabXX"}) {
    HttpParser parser;
    parser.feed(bytes(wire));
    HttpRequest req;
    EXPECT_EQ(parser.poll(req), HttpParser::Result::kError) << wire;
  }
}

TEST(HttpParser, OversizedHeaderBlockPoisons) {
  HttpParser parser;
  std::string wire = "GET / HTTP/1.1\r\n";
  wire.append("x-pad: " + std::string(HttpParser::kMaxHeaderBytes, 'a') +
              "\r\n\r\n");
  parser.feed(bytes(wire));
  HttpRequest req;
  EXPECT_EQ(parser.poll(req), HttpParser::Result::kError);
}

TEST(HttpParser, OversizedBodyPoisons) {
  HttpParser parser;
  parser.feed(bytes("POST / HTTP/1.1\r\ncontent-length: " +
                    std::to_string(HttpParser::kMaxBodyBytes + 1) +
                    "\r\n\r\n"));
  HttpRequest req;
  EXPECT_EQ(parser.poll(req), HttpParser::Result::kError);
}

TEST(HttpParser, BufferCompactionKeepsPipelinedBytes) {
  HttpParser parser;
  HttpRequest req;
  // Many keep-alive requests across one connection; the internal buffer
  // must compact without losing the unparsed tail.
  for (int i = 0; i < 200; ++i) {
    parser.feed(bytes("POST /r HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc"));
    ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest) << i;
    EXPECT_EQ(body_text(req), "abc");
  }
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(HttpResponse, EncodeParseRoundTrip) {
  HttpResponse resp;
  resp.status = 503;
  resp.set_header("content-type", "application/json");
  resp.set_header("retry-after", "1");
  const std::string body = "{\"error\":{}}";
  resp.body = bytes(body);

  HttpResponseParser parser;
  parser.feed(resp.encode());
  HttpResponse parsed;
  ASSERT_EQ(parser.poll(parsed), HttpResponseParser::Result::kResponse);
  EXPECT_EQ(parsed.status, 503);
  ASSERT_TRUE(parsed.header("retry-after").has_value());
  EXPECT_EQ(*parsed.header("retry-after"), "1");
  EXPECT_EQ(parsed.body, resp.body);
}

TEST(HttpResponseParser, TornResponse) {
  const std::string wire =
      "HTTP/1.1 200 OK\r\ncontent-length: 4\r\n\r\nbody";
  for (std::size_t split = 1; split < wire.size(); ++split) {
    HttpResponseParser parser;
    parser.feed(bytes(wire.substr(0, split)));
    HttpResponse resp;
    const auto first = parser.poll(resp);
    ASSERT_NE(first, HttpResponseParser::Result::kError);
    parser.feed(bytes(wire.substr(split)));
    if (first != HttpResponseParser::Result::kResponse) {
      ASSERT_EQ(parser.poll(resp), HttpResponseParser::Result::kResponse);
    }
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.body, bytes("body"));
  }
}

TEST(HttpResponse, EncodeIsByteExact) {
  HttpResponse resp;
  resp.status = 404;
  resp.set_header("content-type", "application/json");
  resp.set_header("x-trace-id", "00000000000000ab");
  resp.body = bytes("{}");
  resp.close_connection = true;
  const std::string expected =
      "HTTP/1.1 404 Not Found\r\n"
      "content-type: application/json\r\n"
      "x-trace-id: 00000000000000ab\r\n"
      "content-length: 2\r\n"
      "connection: close\r\n"
      "\r\n{}";
  EXPECT_EQ(resp.encode(), bytes(expected));

  const HeaderView headers[] = {{"content-type", "application/json"},
                                {"x-trace-id", "00000000000000ab"}};
  EXPECT_EQ(encode_response(404, headers, resp.body, true), bytes(expected));
}

// One HttpRequest is reused for every request of a keep-alive connection
// (the parser swaps completed requests into it); nothing of an earlier
// request may leak into a later one.

/// The first request: two extra headers, a body, "connection: close".
constexpr std::string_view kFirstRequest =
    "POST /first HTTP/1.1\r\n"
    "X-Trace-Id: 00000000000000ab\r\n"
    "Connection: close\r\n"
    "content-length: 6\r\n\r\n"
    "abcdef";
/// The second: fewer headers, a shorter body, keep-alive by default.
constexpr std::string_view kSecondRequest =
    "POST /second HTTP/1.1\r\n"
    "content-length: 2\r\n\r\n"
    "xy";

void expect_first(const HttpRequest& req) {
  EXPECT_EQ(req.target, "/first");
  EXPECT_FALSE(req.keep_alive);
  EXPECT_EQ(req.headers.size(), 3u);
  EXPECT_TRUE(req.header("x-trace-id").has_value());
  EXPECT_EQ(body_text(req), "abcdef");
}

void expect_second(const HttpRequest& req) {
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.target, "/second");
  EXPECT_TRUE(req.keep_alive);
  ASSERT_EQ(req.headers.size(), 1u);
  EXPECT_EQ(req.headers[0].first, "content-length");
  EXPECT_FALSE(req.header("x-trace-id").has_value());
  EXPECT_FALSE(req.header("connection").has_value());
  EXPECT_EQ(body_text(req), "xy");
}

TEST(HttpParser, ReusedRequestInheritsNothingWhenPipelined) {
  HttpParser parser;
  parser.feed(bytes(std::string(kFirstRequest) + std::string(kSecondRequest) +
                    std::string(kFirstRequest)));
  HttpRequest req;
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  expect_first(req);
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  expect_second(req);
  // And back: the storage the second request left behind is refilled.
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  expect_first(req);
  EXPECT_EQ(parser.poll(req), HttpParser::Result::kNeedMore);
}

TEST(HttpParser, ReusedRequestInheritsNothingAcrossTornReads) {
  HttpParser parser;
  HttpRequest req;
  parser.feed(bytes(kFirstRequest));
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  expect_first(req);
  // The second request trickles in one byte per read; until it completes
  // the caller's request still holds the first one, untouched.
  for (std::size_t i = 0; i + 1 < kSecondRequest.size(); ++i) {
    parser.feed(bytes(kSecondRequest.substr(i, 1)));
    ASSERT_EQ(parser.poll(req), HttpParser::Result::kNeedMore) << "i=" << i;
    expect_first(req);
  }
  parser.feed(bytes(kSecondRequest.substr(kSecondRequest.size() - 1)));
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  expect_second(req);
}

TEST(HttpParser, ReusedRequestChunkedBodyStartsEmpty) {
  HttpParser parser;
  parser.feed(bytes(std::string(kFirstRequest) +
                    "POST /chunked HTTP/1.1\r\n"
                    "transfer-encoding: chunked\r\n\r\n"
                    "2\r\nxy\r\n0\r\n\r\n"));
  HttpRequest req;
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  expect_first(req);
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  EXPECT_EQ(req.target, "/chunked");
  EXPECT_TRUE(req.keep_alive);
  EXPECT_EQ(body_text(req), "xy");
}

TEST(HttpParser, PoisonAfterReuseLeavesLastRequestIntact) {
  HttpParser parser;
  HttpRequest req;
  parser.feed(bytes(kSecondRequest));
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  // Reuse once, then garbage framing on the next request.
  parser.feed(bytes(kFirstRequest));
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  expect_first(req);
  parser.feed(bytes("BROKEN\r\n\r\n"));
  EXPECT_EQ(parser.poll(req), HttpParser::Result::kError);
  EXPECT_TRUE(parser.poisoned());
  expect_first(req);
  // Poisoned for good: further bytes, even a well-formed request, are
  // ignored and the request object is never touched again.
  parser.feed(bytes(kSecondRequest));
  EXPECT_EQ(parser.poll(req), HttpParser::Result::kError);
  expect_first(req);
}

TEST(HttpResponseParser, ReusedResponseInheritsNothing) {
  HttpResponseParser parser;
  parser.feed(bytes("HTTP/1.1 503 Service Unavailable\r\n"
                    "retry-after: 1\r\ncontent-length: 5\r\n\r\nbusy!"
                    "HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok"));
  HttpResponse resp;
  ASSERT_EQ(parser.poll(resp), HttpResponseParser::Result::kResponse);
  EXPECT_EQ(resp.status, 503);
  EXPECT_EQ(resp.body, bytes("busy!"));
  ASSERT_EQ(parser.poll(resp), HttpResponseParser::Result::kResponse);
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.headers.size(), 1u);
  EXPECT_FALSE(resp.header("retry-after").has_value());
  EXPECT_EQ(resp.body, bytes("ok"));
}

}  // namespace
}  // namespace maqs::gateway
