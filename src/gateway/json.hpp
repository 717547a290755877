// Minimal JSON document model plus the Any⇄JSON conversion rules of the
// maqs JSON binding (emitted by qidlc --json-binding, consumed by the
// gateway).
//
// Conversion rules (docs/qidl.md "JSON binding"):
//
//   boolean            <-> true / false
//   octet/short/long/
//   long long          <-> number (integer)
//   float/double       <-> number (an integral-valued float may print
//                          without a fraction; json_to_any re-widens)
//   string             <-> string (control and non-ASCII bytes \u00XX)
//   enum               <-> enumerator name string (ordinal also accepted)
//   sequence<T>        <-> array
//   struct             <-> object keyed by field name (order-insensitive,
//                          all fields required, unknown keys rejected)
//   void               <-> null
//
// sequence<octet> additionally accepts/produces the MTOM reference form
// {"$blob": "cid:<id>"} at the gateway layer (gateway.cpp); json.cpp
// itself maps it as a plain array of integers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "cdr/any.hpp"
#include "util/error.hpp"

namespace maqs::gateway {

/// Malformed JSON text or a value that does not fit the target TypeCode.
class JsonError : public Error {
 public:
  using Error::Error;
};

class JsonValue;
using JsonArray = std::vector<JsonValue>;
/// Object members keep insertion order (deterministic writer output).
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

class JsonValue {
 public:
  using Storage = std::variant<std::nullptr_t, bool, std::int64_t, double,
                               std::string, JsonArray, JsonObject>;

  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool v) : value_(v) {}
  JsonValue(std::int64_t v) : value_(v) {}
  JsonValue(int v) : value_(static_cast<std::int64_t>(v)) {}
  JsonValue(double v) : value_(v) {}
  JsonValue(std::string v) : value_(std::move(v)) {}
  JsonValue(const char* v) : value_(std::string(v)) {}
  JsonValue(JsonArray v) : value_(std::move(v)) {}
  JsonValue(JsonObject v) : value_(std::move(v)) {}

  bool is_null() const noexcept { return holds<std::nullptr_t>(); }
  bool is_bool() const noexcept { return holds<bool>(); }
  bool is_integer() const noexcept { return holds<std::int64_t>(); }
  bool is_double() const noexcept { return holds<double>(); }
  bool is_number() const noexcept { return is_integer() || is_double(); }
  bool is_string() const noexcept { return holds<std::string>(); }
  bool is_array() const noexcept { return holds<JsonArray>(); }
  bool is_object() const noexcept { return holds<JsonObject>(); }

  bool as_bool() const { return get<bool>("boolean"); }
  std::int64_t as_integer() const { return get<std::int64_t>("integer"); }
  /// Any number as double (integers widen).
  double as_number() const;
  const std::string& as_string() const { return get<std::string>("string"); }
  const JsonArray& as_array() const { return get<JsonArray>("array"); }
  const JsonObject& as_object() const { return get<JsonObject>("object"); }

  /// First member named `key`; nullptr when absent (objects are small —
  /// linear scan).
  const JsonValue* find(std::string_view key) const;

  bool operator==(const JsonValue& other) const = default;

 private:
  template <typename T>
  bool holds() const noexcept {
    return std::holds_alternative<T>(value_);
  }
  template <typename T>
  const T& get(const char* what) const {
    if (!holds<T>()) throw JsonError(std::string("json: not a ") + what);
    return std::get<T>(value_);
  }

  Storage value_;
};

/// Strict parser (no comments, no trailing commas); throws JsonError.
JsonValue parse_json(std::string_view text);

/// Deterministic writer: same value, same bytes. No added whitespace.
std::string write_json(const JsonValue& value);
/// Appends to `out`.
void write_json(const JsonValue& value, std::string& out);
/// Appends `s` as a JSON string literal (quoted, escaped as above).
void write_json_string(std::string_view s, std::string& out);

/// Any -> JSON per the binding table; throws JsonError for kinds with no
/// JSON mapping (any, objref).
JsonValue any_to_json(const cdr::Any& value);

/// JSON -> Any of exactly `type`; throws JsonError when the value does
/// not fit (wrong shape, out-of-range integer, unknown enum name,
/// missing/unknown struct field).
cdr::Any json_to_any(const JsonValue& value, const cdr::TypeCodePtr& type);

}  // namespace maqs::gateway
