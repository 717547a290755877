#include "orb/dii.hpp"

#include "cdr/decoder.hpp"
#include "cdr/encoder.hpp"
#include "orb/stub.hpp"

namespace maqs::orb {

DiiRequest::DiiRequest(Orb& orb, ObjRef target, std::string operation)
    : orb_(orb),
      target_(std::move(target)),
      operation_(std::move(operation)),
      return_type_(cdr::TypeCode::void_tc()) {}

DiiRequest& DiiRequest::add_arg(cdr::Any arg) {
  args_.push_back(std::move(arg));
  return *this;
}

DiiRequest& DiiRequest::set_return_type(cdr::TypeCodePtr type) {
  return_type_ = std::move(type);
  return *this;
}

DiiRequest& DiiRequest::set_context(const std::string& key,
                                    util::Bytes value) {
  context_[key] = std::move(value);
  return *this;
}

cdr::Any DiiRequest::invoke() {
  RequestMessage req;
  req.request_id = orb_.next_request_id();
  req.kind = RequestKind::kServiceRequest;
  req.object_key = target_.object_key;
  req.operation = operation_;
  req.context = context_;
  // Values only: byte-compatible with the stream a static stub writes.
  cdr::Encoder enc;
  for (const cdr::Any& arg : args_) arg.encode_value(enc);
  req.body = enc.take();

  ReplyMessage rep = orb_.invoke(target_, std::move(req));
  raise_for_status(rep);
  if (return_type_->kind() == cdr::TCKind::kVoid) {
    return cdr::Any::make_void();
  }
  cdr::Decoder dec(rep.body);
  cdr::Any result = cdr::Any::decode_value(dec, return_type_);
  dec.expect_end();
  return result;
}

util::Bytes encode_command_args(const std::vector<cdr::Any>& args) {
  cdr::Encoder enc;
  enc.write_u32(static_cast<std::uint32_t>(args.size()));
  for (const cdr::Any& arg : args) arg.encode(enc);
  return enc.take();
}

std::vector<cdr::Any> decode_command_args(util::BytesView body) {
  cdr::Decoder dec(body);
  const std::uint32_t n = dec.read_u32();
  // Each argument carries at least its typecode's kind octet.
  if (n > dec.remaining()) {
    throw cdr::CdrError("dii: argument count exceeds the body");
  }
  std::vector<cdr::Any> args;
  args.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    args.push_back(cdr::Any::decode(dec));
  }
  dec.expect_end();
  return args;
}

cdr::Any send_command(Orb& orb, const net::Address& dest,
                      const std::string& module, const std::string& operation,
                      const std::vector<cdr::Any>& args) {
  RequestMessage req;
  req.request_id = orb.next_request_id();
  req.kind = RequestKind::kCommand;
  req.qos_aware = true;
  req.target_module = module;
  req.operation = operation;
  req.body = encode_command_args(args);

  ReplyMessage rep = orb.invoke_plain(dest, std::move(req));
  raise_for_status(rep);
  if (rep.body.empty()) return cdr::Any::make_void();
  cdr::Decoder dec(rep.body);
  cdr::Any result = cdr::Any::decode(dec);
  dec.expect_end();
  return result;
}

}  // namespace maqs::orb
