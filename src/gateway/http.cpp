#include "gateway/http.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>

#include "util/buffer_pool.hpp"

namespace maqs::gateway {

namespace {

using Headers = std::vector<std::pair<std::string, std::string>>;

/// Folds ASCII letters to lowercase in place (header names are
/// case-insensitive; other bytes pass through).
void fold_lower(std::string& s) noexcept {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
}

/// True when `s` equals the lowercase `folded` ignoring ASCII case.
bool equals_folded(std::string_view s, std::string_view folded) noexcept {
  if (s.size() != folded.size()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if (c != folded[i]) return false;
  }
  return true;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

std::optional<std::string_view> find_header(const Headers& headers,
                                            std::string_view name) {
  for (const auto& [key, value] : headers) {
    if (key == name) return std::string_view(value);
  }
  return std::nullopt;
}

/// Parses a decimal size; nullopt on garbage or overflow.
std::optional<std::size_t> parse_size(std::string_view s) {
  if (s.empty() || s.size() > 12) return std::nullopt;
  std::size_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  return value;
}

/// Parses a hex chunk size (chunk extensions after ';' are ignored).
std::optional<std::size_t> parse_chunk_size(std::string_view s) {
  if (const auto semi = s.find(';'); semi != std::string_view::npos) {
    s = s.substr(0, semi);
  }
  s = trim(s);
  if (s.empty() || s.size() > 8) return std::nullopt;
  std::size_t value = 0;
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
    value = value * 16 + static_cast<std::size_t>(digit);
  }
  return value;
}

/// Splits header lines out of `head` (which excludes the final empty
/// line) into `out`, overwriting its elements in place so that their
/// strings keep their capacity from one message to the next. Returns false
/// on a malformed line.
bool parse_header_lines(std::string_view head, Headers& out) {
  std::size_t lines = head.empty() ? 0 : 1;
  for (auto eol = head.find("\r\n"); eol != std::string_view::npos;
       eol = head.find("\r\n", eol + 2)) {
    ++lines;
  }
  if (out.capacity() < lines) out.reserve(lines);
  std::size_t n = 0;
  while (!head.empty()) {
    const auto eol = head.find("\r\n");
    const std::string_view line =
        eol == std::string_view::npos ? head : head.substr(0, eol);
    head = eol == std::string_view::npos ? std::string_view{}
                                         : head.substr(eol + 2);
    if (line.empty()) continue;
    const auto colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) return false;
    const std::string_view name = line.substr(0, colon);
    // Obsolete line folding and spaces inside field names are rejected.
    if (name.find(' ') != std::string_view::npos ||
        name.find('\t') != std::string_view::npos) {
      return false;
    }
    if (n == out.size()) out.emplace_back();
    auto& [key, value] = out[n++];
    key.assign(name);
    fold_lower(key);
    value.assign(trim(line.substr(colon + 1)));
  }
  out.resize(n);
  return true;
}

void append(util::Bytes& out, std::string_view s) {
  out.insert(out.end(), s.begin(), s.end());
}

/// One pass over any header list whose names and values view as strings.
template <typename HeaderList>
util::Bytes encode_frame(int status, const HeaderList& headers,
                         util::BytesView body, bool close_connection) {
  constexpr std::string_view kClose = "connection: close\r\n";
  char status_text[16];
  const std::string_view status_digits(
      status_text,
      std::to_chars(std::begin(status_text), std::end(status_text), status)
          .ptr);
  char length_text[24];
  const std::string_view length_digits(
      length_text, std::to_chars(std::begin(length_text),
                                 std::end(length_text), body.size())
                       .ptr);
  const std::string_view reason = status_reason(status);

  std::size_t size = 9 + status_digits.size() + 1 + reason.size() + 2;
  for (const auto& [name, value] : headers) {
    size += std::string_view(name).size() + 2 +
            std::string_view(value).size() + 2;
  }
  size += 16 + length_digits.size() + 2 +
          (close_connection ? kClose.size() : 0) + 2 + body.size();

  util::Bytes out = util::BufferPool::instance().acquire(size);
  append(out, "HTTP/1.1 ");
  append(out, status_digits);
  out.push_back(' ');
  append(out, reason);
  append(out, "\r\n");
  for (const auto& [name, value] : headers) {
    append(out, name);
    append(out, ": ");
    append(out, value);
    append(out, "\r\n");
  }
  append(out, "content-length: ");
  append(out, length_digits);
  append(out, "\r\n");
  if (close_connection) append(out, kClose);
  append(out, "\r\n");
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

}  // namespace

std::optional<std::string_view> HttpRequest::header(
    std::string_view name) const {
  return find_header(headers, name);
}

void HttpResponse::set_header(std::string name, std::string value) {
  headers.emplace_back(std::move(name), std::move(value));
}

std::optional<std::string_view> HttpResponse::header(
    std::string_view name) const {
  return find_header(headers, name);
}

std::string_view status_reason(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    case 502: return "Bad Gateway";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

util::Bytes HttpResponse::encode() const {
  return encode_frame(status, headers, body, close_connection);
}

util::Bytes encode_response(int status, std::span<const HeaderView> headers,
                            util::BytesView body, bool close_connection) {
  return encode_frame(status, headers, body, close_connection);
}

// ---- HttpParser ----

void HttpParser::feed(util::BytesView data) {
  if (poisoned_) return;
  // Compact once the parsed prefix dominates the buffer, so a long-lived
  // keep-alive connection does not grow its buffer without bound.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

HttpParser::Result HttpParser::fail(std::string what) {
  poisoned_ = true;
  error_ = std::move(what);
  return Result::kError;
}

/// Parses the request line + header block at the consumed_ offset, if the
/// CRLF CRLF terminator has arrived. Leaves consumed_ past the blank line
/// and fills pending_. Returns false when more bytes are needed (or the
/// parser was poisoned).
bool HttpParser::parse_head(HttpRequest& out) {
  const std::string_view view(
      reinterpret_cast<const char*>(buffer_.data()) + consumed_,
      buffer_.size() - consumed_);
  const auto head_end = view.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    if (view.size() > kMaxHeaderBytes) {
      fail("header block exceeds " + std::to_string(kMaxHeaderBytes) +
           " bytes");
    }
    return false;
  }
  if (head_end > kMaxHeaderBytes) {
    fail("header block exceeds " + std::to_string(kMaxHeaderBytes) + " bytes");
    return false;
  }
  const std::string_view head = view.substr(0, head_end);
  const auto line_end = head.find("\r\n");
  const std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);

  const auto sp1 = request_line.find(' ');
  const auto sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      sp2 == sp1 + 1) {
    fail("malformed request line");
    return false;
  }
  // Every field is overwritten (the object is recycled across requests;
  // nothing of the previous request may survive).
  out.method.assign(request_line.substr(0, sp1));
  out.target.assign(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  out.version.assign(trim(request_line.substr(sp2 + 1)));
  out.body.clear();
  if (out.method.empty() || out.target.empty() || out.target[0] != '/' ||
      (out.version != "HTTP/1.1" && out.version != "HTTP/1.0")) {
    fail("malformed request line");
    return false;
  }
  const std::string_view header_block =
      line_end == std::string_view::npos ? std::string_view{}
                                         : head.substr(line_end + 2);
  if (!parse_header_lines(header_block, out.headers)) {
    fail("malformed header line");
    return false;
  }
  out.keep_alive = out.version == "HTTP/1.1";
  if (const auto conn = out.header("connection")) {
    if (equals_folded(*conn, "close")) out.keep_alive = false;
    if (equals_folded(*conn, "keep-alive")) out.keep_alive = true;
  }
  consumed_ += head_end + 4;
  return true;
}

HttpParser::Result HttpParser::poll(HttpRequest& out) {
  if (poisoned_) return Result::kError;
  for (;;) {
    switch (state_) {
      case State::kHeaders: {
        if (!parse_head(pending_)) {
          return poisoned_ ? Result::kError : Result::kNeedMore;
        }
        const auto te = pending_.header("transfer-encoding");
        const auto cl = pending_.header("content-length");
        if (te.has_value()) {
          if (!equals_folded(*te, "chunked") || cl.has_value()) {
            return fail("unsupported transfer-encoding");
          }
          state_ = State::kChunkHeader;
          break;
        }
        std::size_t length = 0;
        if (cl.has_value()) {
          const auto parsed = parse_size(trim(*cl));
          if (!parsed.has_value()) return fail("malformed content-length");
          length = *parsed;
        }
        if (length > kMaxBodyBytes) return fail("body exceeds limit");
        if (length == 0) {
          std::swap(out, pending_);
          return Result::kRequest;
        }
        body_remaining_ = length;
        pending_.body.reserve(length);
        state_ = State::kBody;
        break;
      }
      case State::kBody: {
        const std::size_t available = buffer_.size() - consumed_;
        const std::size_t take = std::min(available, body_remaining_);
        pending_.body.insert(pending_.body.end(),
                             buffer_.begin() + static_cast<std::ptrdiff_t>(
                                                   consumed_),
                             buffer_.begin() + static_cast<std::ptrdiff_t>(
                                                   consumed_ + take));
        consumed_ += take;
        body_remaining_ -= take;
        if (body_remaining_ > 0) return Result::kNeedMore;
        state_ = State::kHeaders;
        std::swap(out, pending_);
        return Result::kRequest;
      }
      case State::kChunkHeader: {
        const std::string_view view(
            reinterpret_cast<const char*>(buffer_.data()) + consumed_,
            buffer_.size() - consumed_);
        const auto eol = view.find("\r\n");
        if (eol == std::string_view::npos) {
          if (view.size() > 64) return fail("malformed chunk size line");
          return Result::kNeedMore;
        }
        const auto size = parse_chunk_size(view.substr(0, eol));
        if (!size.has_value()) return fail("malformed chunk size line");
        consumed_ += eol + 2;
        if (pending_.body.size() + *size > kMaxBodyBytes) {
          return fail("body exceeds limit");
        }
        if (*size == 0) {
          state_ = State::kChunkTrailer;
        } else {
          chunk_remaining_ = *size;
          state_ = State::kChunkData;
        }
        break;
      }
      case State::kChunkData: {
        // The chunk's data plus its trailing CRLF must be consumed; the
        // CRLF is validated once fully buffered.
        const std::size_t available = buffer_.size() - consumed_;
        const std::size_t take = std::min(available, chunk_remaining_);
        pending_.body.insert(pending_.body.end(),
                             buffer_.begin() + static_cast<std::ptrdiff_t>(
                                                   consumed_),
                             buffer_.begin() + static_cast<std::ptrdiff_t>(
                                                   consumed_ + take));
        consumed_ += take;
        chunk_remaining_ -= take;
        if (chunk_remaining_ > 0) return Result::kNeedMore;
        if (buffer_.size() - consumed_ < 2) return Result::kNeedMore;
        if (buffer_[consumed_] != '\r' || buffer_[consumed_ + 1] != '\n') {
          return fail("chunk data not CRLF-terminated");
        }
        consumed_ += 2;
        state_ = State::kChunkHeader;
        break;
      }
      case State::kChunkTrailer: {
        // Trailer section: zero or more header lines, then a blank line.
        // The gateway ignores trailer fields.
        const std::string_view view(
            reinterpret_cast<const char*>(buffer_.data()) + consumed_,
            buffer_.size() - consumed_);
        const auto end = view.find("\r\n");
        if (end == std::string_view::npos) {
          if (view.size() > kMaxHeaderBytes) return fail("trailer too large");
          return Result::kNeedMore;
        }
        consumed_ += end + 2;
        if (end != 0) break;  // a trailer field; keep scanning for blank
        state_ = State::kHeaders;
        std::swap(out, pending_);
        return Result::kRequest;
      }
    }
  }
}

// ---- HttpResponseParser ----

void HttpResponseParser::feed(util::BytesView data) {
  if (poisoned_) return;
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

HttpResponseParser::Result HttpResponseParser::fail(std::string what) {
  poisoned_ = true;
  error_ = std::move(what);
  return Result::kError;
}

HttpResponseParser::Result HttpResponseParser::poll(HttpResponse& out) {
  if (poisoned_) return Result::kError;
  for (;;) {
    if (!in_body_) {
      const std::string_view view(
          reinterpret_cast<const char*>(buffer_.data()) + consumed_,
          buffer_.size() - consumed_);
      const auto head_end = view.find("\r\n\r\n");
      if (head_end == std::string_view::npos) return Result::kNeedMore;
      const std::string_view head = view.substr(0, head_end);
      const auto line_end = head.find("\r\n");
      const std::string_view status_line =
          line_end == std::string_view::npos ? head : head.substr(0, line_end);
      // "HTTP/1.1 NNN Reason"
      const auto sp1 = status_line.find(' ');
      if (sp1 == std::string_view::npos ||
          status_line.substr(0, 5) != "HTTP/") {
        return fail("malformed status line");
      }
      const std::string_view code = status_line.substr(sp1 + 1);
      if (code.size() < 3) return fail("malformed status line");
      int status = 0;
      for (int i = 0; i < 3; ++i) {
        if (code[static_cast<std::size_t>(i)] < '0' ||
            code[static_cast<std::size_t>(i)] > '9') {
          return fail("malformed status line");
        }
        status = status * 10 + (code[static_cast<std::size_t>(i)] - '0');
      }
      pending_.status = status;
      pending_.body.clear();
      pending_.close_connection = false;
      const std::string_view header_block =
          line_end == std::string_view::npos ? std::string_view{}
                                             : head.substr(line_end + 2);
      if (!parse_header_lines(header_block, pending_.headers)) {
        return fail("malformed header line");
      }
      consumed_ += head_end + 4;
      std::size_t length = 0;
      if (const auto cl = pending_.header("content-length")) {
        const auto parsed = parse_size(trim(*cl));
        if (!parsed.has_value()) return fail("malformed content-length");
        length = *parsed;
      }
      if (length == 0) {
        std::swap(out, pending_);
        return Result::kResponse;
      }
      body_remaining_ = length;
      pending_.body.reserve(length);
      in_body_ = true;
    }
    const std::size_t available = buffer_.size() - consumed_;
    const std::size_t take = std::min(available, body_remaining_);
    pending_.body.insert(
        pending_.body.end(),
        buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_),
        buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_ + take));
    consumed_ += take;
    body_remaining_ -= take;
    if (body_remaining_ > 0) return Result::kNeedMore;
    in_body_ = false;
    std::swap(out, pending_);
    return Result::kResponse;
  }
}

}  // namespace maqs::gateway
