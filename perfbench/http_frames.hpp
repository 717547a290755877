// HTTP/JSON encodings of a generated call: what the gateway_http client
// sends, and what the gateway must answer. Shared by the workload and the
// gateway replays.
#pragma once

#include <string>

#include "gateway/mtom.hpp"
#include "workloads.hpp"

namespace perfbench {

inline const char* op_name(Op op) {
  switch (op) {
    case Op::kAdd:
      return "add";
    case Op::kEcho:
      return "echo";
    case Op::kSetValue:
      return "set_value";
    case Op::kValue:
      return "value";
    case Op::kBlob:
      return "blob";
  }
  return "";
}

/// JSON argument document of a non-blob call. Strings are generated from
/// [a-z0-9 ], so they need no escaping.
inline std::string json_args(const Call& c) {
  switch (c.op) {
    case Op::kAdd:
      return "{\"a\":" + std::to_string(c.a) + ",\"b\":" + std::to_string(c.b) +
             "}";
    case Op::kEcho:
      return "{\"s\":\"" + c.s + "\"}";
    case Op::kSetValue:
      return "{\"v\":" + std::to_string(c.a) + "}";
    default:
      return "{}";
  }
}

/// The JSON reply body the gateway must produce for a non-blob call
/// (`value` reads back `c.a`, the last value written in the replays).
inline std::string expected_json_body(const Call& c) {
  switch (c.op) {
    case Op::kAdd:
      return "{\"result\":" + std::to_string(wrapping_add(c.a, c.b)) + "}";
    case Op::kEcho:
      return "{\"result\":\"" + c.s + "\"}";
    case Op::kValue:
      return "{\"result\":" + std::to_string(c.a) + "}";
    default:
      return "{\"result\":null}";
  }
}

/// The full request frame: JSON body, or for a blob an MTOM
/// multipart/related body whose part carries the bytes.
inline maqs::util::Bytes http_request_frame(const Call& c) {
  std::string head = std::string("POST /api/Echo/") + op_name(c.op) +
                     " HTTP/1.1\r\n";
  if (c.qos_class >= 0) {
    head += std::string("x-qos-class: ") + class_name(c.qos_class) + "\r\n";
  }
  maqs::util::Bytes body;
  if (c.op == Op::kBlob) {
    maqs::gateway::MultipartBuilder multipart("perfbench-part");
    multipart.add_json_root("{\"data\":{\"$blob\":\"cid:b0\"}}");
    multipart.add_blob_part("b0", *c.blob);
    body = multipart.finish();
    head += "content-type: " + multipart.content_type() + "\r\n";
    head += "accept: multipart/related\r\n";
  } else {
    const std::string json = json_args(c);
    body.assign(json.begin(), json.end());
    head += "content-type: application/json\r\n";
  }
  head += "content-length: " + std::to_string(body.size()) + "\r\n\r\n";
  maqs::util::Bytes frame(head.begin(), head.end());
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

}  // namespace perfbench
