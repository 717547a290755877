#include "orb/message.hpp"

#include <algorithm>
#include <stdexcept>

#include "cdr/decoder.hpp"
#include "cdr/encoder.hpp"
#include "orb/exceptions.hpp"
#include "util/buffer_pool.hpp"

namespace maqs::orb {

namespace {
constexpr std::uint8_t kRequestMagic = 0xA1;
constexpr std::uint8_t kReplyMagic = 0xA2;

bool key_less(const ServiceContext::value_type& entry,
              std::string_view key) noexcept {
  return entry.first < key;
}

std::size_t context_wire_size(const ServiceContext& context) noexcept {
  std::size_t n = 4;  // entry count
  for (const auto& [key, value] : context) {
    n += 8 + key.size() + value.size();  // two length prefixes + payloads
  }
  return n;
}

void encode_context(cdr::Encoder& enc, const ServiceContext& context) {
  enc.write_u32(static_cast<std::uint32_t>(context.size()));
  for (const auto& [key, value] : context) {
    enc.write_string(key);
    enc.write_bytes(value);
  }
}

ServiceContext decode_context(cdr::Decoder& dec) {
  ServiceContext context;
  const std::uint32_t n = dec.read_u32();
  // The count is peer input: every entry carries two length prefixes, so a
  // count the frame cannot hold is rejected before anything is reserved.
  if (n > dec.remaining() / 8) {
    throw cdr::CdrError("message: service-context count exceeds the frame");
  }
  context.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    // Well-formed peers send sorted keys, so each insert lands at the back;
    // operator[] still handles (and dedupes) adversarial orderings.
    const std::string_view key = dec.read_string_view();
    context[key] = dec.read_bytes();
  }
  return context;
}
}  // namespace

// ---- ServiceContext ----

ServiceContext::iterator ServiceContext::find(std::string_view key) noexcept {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), key, key_less);
  if (it != entries_.end() && it->first == key) return it;
  return entries_.end();
}

ServiceContext::const_iterator ServiceContext::find(
    std::string_view key) const noexcept {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), key, key_less);
  if (it != entries_.end() && it->first == key) return it;
  return entries_.end();
}

util::Bytes& ServiceContext::operator[](std::string_view key) {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), key, key_less);
  if (it == entries_.end() || it->first != key) {
    it = entries_.emplace(it, std::string(key), util::Bytes{});
  }
  return it->second;
}

const util::Bytes& ServiceContext::at(std::string_view key) const {
  auto it = find(key);
  if (it == end()) {
    throw std::out_of_range("ServiceContext: no entry '" + std::string(key) +
                            "'");
  }
  return it->second;
}

void ServiceContext::set(std::string_view key, util::Bytes value) {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), key, key_less);
  if (it != entries_.end() && it->first == key) {
    it->second = std::move(value);
  } else {
    entries_.emplace(it, std::string(key), std::move(value));
  }
}

bool ServiceContext::erase(std::string_view key) {
  auto it = find(key);
  if (it == end()) return false;
  entries_.erase(it);
  return true;
}

// ---- messages ----

const char* reply_status_name(ReplyStatus status) noexcept {
  switch (status) {
    case ReplyStatus::kOk: return "OK";
    case ReplyStatus::kUserException: return "USER_EXCEPTION";
    case ReplyStatus::kSystemException: return "SYSTEM_EXCEPTION";
    case ReplyStatus::kNotNegotiated: return "NOT_NEGOTIATED";
    case ReplyStatus::kNoSuchObject: return "NO_SUCH_OBJECT";
    case ReplyStatus::kBadOperation: return "BAD_OPERATION";
  }
  return "?";
}

std::size_t RequestMessage::encoded_size() const noexcept {
  return 1 + 8 + 1 + 1                                        // magic, id,
                                                              // kind, qos
         + 4 + object_key.size() + 4 + target_module.size()   // keys
         + 4 + operation.size() + context_wire_size(context)  //
         + 4 + body.size();
}

util::Bytes RequestMessage::encode() const {
  // Frames come from the pool and go back to it when the network delivers
  // them — steady-state traffic encodes without touching the allocator.
  cdr::Encoder enc(util::BufferPool::instance().acquire(encoded_size()));
  enc.write_u8(kRequestMagic);
  enc.write_u64(request_id);
  enc.write_u8(static_cast<std::uint8_t>(kind));
  enc.write_bool(qos_aware);
  enc.write_string(object_key);
  enc.write_string(target_module);
  enc.write_string(operation);
  encode_context(enc, context);
  enc.write_bytes(body);
  return enc.take();
}

RequestMessage RequestMessage::decode(util::BytesView data) {
  cdr::Decoder dec(data);
  if (dec.read_u8() != kRequestMagic) {
    throw MarshalError("message: not a request frame");
  }
  RequestMessage req;
  req.request_id = dec.read_u64();
  const std::uint8_t kind = dec.read_u8();
  if (kind > static_cast<std::uint8_t>(RequestKind::kCommand)) {
    throw MarshalError("message: bad request kind");
  }
  req.kind = static_cast<RequestKind>(kind);
  req.qos_aware = dec.read_bool();
  req.object_key = dec.read_string();
  req.target_module = dec.read_string();
  req.operation = dec.read_string();
  req.context = decode_context(dec);
  const util::BytesView body = dec.read_bytes_view();
  req.body = util::BufferPool::instance().acquire(body.size());
  req.body.assign(body.begin(), body.end());
  dec.expect_end();
  return req;
}

std::size_t ReplyMessage::encoded_size() const noexcept {
  return 1 + 8 + 1                                            // magic, id,
                                                              // status
         + 4 + exception.size() + context_wire_size(context)  //
         + 4 + body.size();
}

util::Bytes ReplyMessage::encode() const {
  cdr::Encoder enc(util::BufferPool::instance().acquire(encoded_size()));
  enc.write_u8(kReplyMagic);
  enc.write_u64(request_id);
  enc.write_u8(static_cast<std::uint8_t>(status));
  enc.write_string(exception);
  encode_context(enc, context);
  enc.write_bytes(body);
  return enc.take();
}

ReplyMessage ReplyMessage::decode(util::BytesView data) {
  cdr::Decoder dec(data);
  if (dec.read_u8() != kReplyMagic) {
    throw MarshalError("message: not a reply frame");
  }
  ReplyMessage rep;
  rep.request_id = dec.read_u64();
  const std::uint8_t status = dec.read_u8();
  if (status > static_cast<std::uint8_t>(ReplyStatus::kBadOperation)) {
    throw MarshalError("message: bad reply status");
  }
  rep.status = static_cast<ReplyStatus>(status);
  rep.exception = dec.read_string();
  rep.context = decode_context(dec);
  const util::BytesView body = dec.read_bytes_view();
  rep.body = util::BufferPool::instance().acquire(body.size());
  rep.body.assign(body.begin(), body.end());
  dec.expect_end();
  return rep;
}

bool is_request_frame(util::BytesView data) {
  if (data.empty()) throw MarshalError("message: empty frame");
  if (data[0] == kRequestMagic) return true;
  if (data[0] == kReplyMagic) return false;
  throw MarshalError("message: unknown frame magic");
}

}  // namespace maqs::orb
