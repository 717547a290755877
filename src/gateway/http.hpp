// HTTP/1.1 subset for the edge gateway.
//
// The gateway terminates HTTP at the boundary of the simulated network:
// each net::Network payload is one TCP-segment-like chunk, so the parser
// is incremental and tolerant of torn reads — a request may arrive split
// at any byte position across any number of payloads, or several
// pipelined requests may arrive in one. Supported subset:
//
//   - request line + headers (case-insensitive names, stored folded to
//     lowercase), terminated by CRLF CRLF
//   - bodies via Content-Length or Transfer-Encoding: chunked
//   - keep-alive (HTTP/1.1 default) and "Connection: close"
//   - pipelining: feed() accumulates, poll() yields requests in order
//
// Anything outside the subset (bad request line, oversized headers or
// body, malformed chunk framing) poisons the parser: poll() reports
// kError once and the connection must be answered 400 and dropped. The
// parser never throws on wire input — malformed bytes are a state, not an
// exception.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/bytes.hpp"

namespace maqs::gateway {

/// One parsed request. Header names are folded to lowercase; values keep
/// their bytes with surrounding whitespace trimmed. The parser overwrites
/// every field of a request it fills, so a caller may hand the same
/// object to each poll() and the strings and vectors keep their capacity.
struct HttpRequest {
  std::string method;
  std::string target;   // origin-form path, e.g. "/api/Echo/add"
  std::string version;  // "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;
  util::Bytes body;
  bool keep_alive = true;

  /// First header named `name` (lowercase); nullopt when absent.
  std::optional<std::string_view> header(std::string_view name) const;
};

struct HttpResponse {
  int status = 200;
  std::vector<std::pair<std::string, std::string>> headers;
  util::Bytes body;
  bool close_connection = false;

  void set_header(std::string name, std::string value);
  std::optional<std::string_view> header(std::string_view name) const;

  /// Serializes status line + headers + Content-Length + body.
  util::Bytes encode() const;
};

/// A response header given by reference (see encode_response).
using HeaderView = std::pair<std::string_view, std::string_view>;

/// Serializes status line + `headers` + Content-Length (+ "connection:
/// close") + body in one pass into a frame sized exactly up front and
/// taken from the buffer pool. HttpResponse::encode() is this over the
/// response's own fields.
util::Bytes encode_response(int status, std::span<const HeaderView> headers,
                            util::BytesView body, bool close_connection);

/// Canonical reason phrase for the subset of status codes the gateway
/// emits; "Unknown" otherwise.
std::string_view status_reason(int status) noexcept;

class HttpParser {
 public:
  enum class Result {
    kNeedMore,  // no complete request buffered yet
    kRequest,   // one request extracted into the out-parameter
    kError,     // framing violation; parser is poisoned
  };

  /// Hard limits; exceeding either poisons the parser (the gateway
  /// answers 400/413-as-400 and drops the connection).
  static constexpr std::size_t kMaxHeaderBytes = 8 * 1024;
  static constexpr std::size_t kMaxBodyBytes = 4 * 1024 * 1024;

  /// Appends one torn read. No parsing happens here; feed() never fails.
  void feed(util::BytesView data);

  /// Extracts the next complete request, if any. Call repeatedly until
  /// kNeedMore (pipelining). After kError the parser stays poisoned and
  /// `out` is left as it was. A completed request is swapped into `out`:
  /// the parser keeps `out`'s old storage for the next one.
  Result poll(HttpRequest& out);

  bool poisoned() const noexcept { return poisoned_; }
  /// Diagnostic for the 400 fault body after kError.
  const std::string& error() const noexcept { return error_; }
  /// Bytes buffered but not yet consumed (mid-request).
  std::size_t buffered() const noexcept { return buffer_.size() - consumed_; }

 private:
  enum class State { kHeaders, kBody, kChunkHeader, kChunkData, kChunkTrailer };

  Result fail(std::string what);
  bool parse_head(HttpRequest& out);

  util::Bytes buffer_;
  std::size_t consumed_ = 0;  // prefix of buffer_ already parsed away
  State state_ = State::kHeaders;
  HttpRequest pending_;        // request whose body is being accumulated
  std::size_t body_remaining_ = 0;
  std::size_t chunk_remaining_ = 0;
  bool poisoned_ = false;
  std::string error_;
};

/// Client-side twin of HttpParser: parses responses (status line instead
/// of request line; same torn-read tolerance). Used by tests and the
/// bench HTTP client.
class HttpResponseParser {
 public:
  enum class Result { kNeedMore, kResponse, kError };

  void feed(util::BytesView data);
  /// Like HttpParser::poll: a completed response is swapped into `out`.
  Result poll(HttpResponse& out);
  const std::string& error() const noexcept { return error_; }

 private:
  Result fail(std::string what);

  util::Bytes buffer_;
  std::size_t consumed_ = 0;
  bool in_body_ = false;
  HttpResponse pending_;
  std::size_t body_remaining_ = 0;
  bool poisoned_ = false;
  std::string error_;
};

}  // namespace maqs::gateway
