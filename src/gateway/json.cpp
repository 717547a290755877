#include "gateway/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace maqs::gateway {

double JsonValue::as_number() const {
  if (is_integer()) return static_cast<double>(std::get<std::int64_t>(value_));
  if (is_double()) return std::get<double>(value_);
  throw JsonError("json: not a number");
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : std::get<JsonObject>(value_)) {
    if (name == key) return &value;
  }
  return nullptr;
}

// ---- parser ----

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) throw JsonError("json: trailing bytes");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    if (depth_ > 64) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    ++depth_;
    JsonObject members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return JsonValue(std::move(members));
    }
    // Room for the small argument objects the gateway parses in one
    // allocation instead of a growth sequence.
    members.reserve(4);
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected member name");
      std::string name = parse_string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(name), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        --depth_;
        return JsonValue(std::move(members));
      }
      fail("expected ',' or '}'");
    }
  }

  JsonValue parse_array() {
    expect('[');
    ++depth_;
    JsonArray items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return JsonValue(std::move(items));
    }
    for (;;) {
      items.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        --depth_;
        return JsonValue(std::move(items));
      }
      fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    // Sized to the next quote: exact for strings without escapes.
    if (const auto end = text_.find('"', pos_); end != std::string_view::npos) {
      out.reserve(end - pos_);
    }
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) {
          fail("raw control character in string");
        }
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // Strings are byte sequences in this stack: code points up to
          // 0xFF map to one byte, larger ones to their UTF-8 encoding.
          if (code < 0x100) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = is_double || c == '.' || c == 'e' || c == 'E';
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("bad number");
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (!is_double) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return JsonValue(static_cast<std::int64_t>(v));
      }
      // Out of int64 range: fall through to double.
    }
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(v)) {
      fail("bad number");
    }
    return JsonValue(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

void write_json_string(std::string_view s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    const auto b = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (b < 0x20 || b >= 0x80) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", b);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

namespace {

void write_number(double v, std::string& out) {
  if (!std::isfinite(v)) throw JsonError("json: non-finite number");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

JsonValue parse_json(std::string_view text) { return Parser(text).parse(); }

void write_json(const JsonValue& value, std::string& out) {
  if (value.is_null()) {
    out += "null";
  } else if (value.is_bool()) {
    out += value.as_bool() ? "true" : "false";
  } else if (value.is_integer()) {
    out += std::to_string(value.as_integer());
  } else if (value.is_double()) {
    write_number(value.as_number(), out);
  } else if (value.is_string()) {
    write_json_string(value.as_string(), out);
  } else if (value.is_array()) {
    out.push_back('[');
    bool first = true;
    for (const JsonValue& item : value.as_array()) {
      if (!first) out.push_back(',');
      first = false;
      write_json(item, out);
    }
    out.push_back(']');
  } else {
    out.push_back('{');
    bool first = true;
    for (const auto& [name, member] : value.as_object()) {
      if (!first) out.push_back(',');
      first = false;
      write_json_string(name, out);
      out.push_back(':');
      write_json(member, out);
    }
    out.push_back('}');
  }
}

std::string write_json(const JsonValue& value) {
  std::string out;
  write_json(value, out);
  return out;
}

// ---- Any <-> JSON ----

JsonValue any_to_json(const cdr::Any& value) {
  switch (value.kind()) {
    case cdr::TCKind::kVoid: return JsonValue(nullptr);
    case cdr::TCKind::kBoolean: return JsonValue(value.as_bool());
    case cdr::TCKind::kOctet:
    case cdr::TCKind::kShort:
    case cdr::TCKind::kLong:
    case cdr::TCKind::kLongLong:
      return JsonValue(value.as_integer());
    case cdr::TCKind::kFloat:
      return JsonValue(static_cast<double>(value.as_float()));
    case cdr::TCKind::kDouble: return JsonValue(value.as_double());
    case cdr::TCKind::kString: return JsonValue(value.as_string());
    case cdr::TCKind::kEnum: return JsonValue(value.as_enum_name());
    case cdr::TCKind::kSequence: {
      JsonArray items;
      items.reserve(value.as_elements().size());
      for (const cdr::Any& element : value.as_elements()) {
        items.push_back(any_to_json(element));
      }
      return JsonValue(std::move(items));
    }
    case cdr::TCKind::kStruct: {
      const auto& members = value.type()->members();
      const auto& fields = value.as_elements();
      JsonObject object;
      object.reserve(fields.size());
      for (std::size_t i = 0; i < fields.size(); ++i) {
        object.emplace_back(members[i].first, any_to_json(fields[i]));
      }
      return JsonValue(std::move(object));
    }
    case cdr::TCKind::kAny:
    case cdr::TCKind::kObjRef:
      break;
  }
  throw JsonError(std::string("json: no JSON mapping for ") +
                  cdr::tc_kind_name(value.kind()));
}

namespace {

std::int64_t integer_in_range(const JsonValue& value, std::int64_t lo,
                              std::int64_t hi, const char* what) {
  if (!value.is_integer()) {
    throw JsonError(std::string("json: expected integer for ") + what);
  }
  const std::int64_t v = value.as_integer();
  if (v < lo || v > hi) {
    throw JsonError(std::string("json: value out of range for ") + what);
  }
  return v;
}

}  // namespace

cdr::Any json_to_any(const JsonValue& value, const cdr::TypeCodePtr& type) {
  switch (type->kind()) {
    case cdr::TCKind::kVoid:
      if (!value.is_null()) throw JsonError("json: expected null for void");
      return cdr::Any::make_void();
    case cdr::TCKind::kBoolean:
      if (!value.is_bool()) throw JsonError("json: expected boolean");
      return cdr::Any::from_bool(value.as_bool());
    case cdr::TCKind::kOctet:
      return cdr::Any::from_octet(static_cast<std::uint8_t>(
          integer_in_range(value, 0, 255, "octet")));
    case cdr::TCKind::kShort:
      return cdr::Any::from_short(static_cast<std::int16_t>(
          integer_in_range(value, -32768, 32767, "short")));
    case cdr::TCKind::kLong:
      return cdr::Any::from_long(static_cast<std::int32_t>(integer_in_range(
          value, std::numeric_limits<std::int32_t>::min(),
          std::numeric_limits<std::int32_t>::max(), "long")));
    case cdr::TCKind::kLongLong:
      if (!value.is_integer()) {
        throw JsonError("json: expected integer for long long");
      }
      return cdr::Any::from_longlong(value.as_integer());
    case cdr::TCKind::kFloat:
      if (!value.is_number()) throw JsonError("json: expected number");
      return cdr::Any::from_float(static_cast<float>(value.as_number()));
    case cdr::TCKind::kDouble:
      if (!value.is_number()) throw JsonError("json: expected number");
      return cdr::Any::from_double(value.as_number());
    case cdr::TCKind::kString:
      if (!value.is_string()) throw JsonError("json: expected string");
      return cdr::Any::from_string(value.as_string());
    case cdr::TCKind::kEnum: {
      if (value.is_string()) {
        const auto& names = type->enumerators();
        for (std::size_t i = 0; i < names.size(); ++i) {
          if (names[i] == value.as_string()) {
            return cdr::Any::from_enum(type,
                                       static_cast<std::uint32_t>(i));
          }
        }
        throw JsonError("json: unknown enumerator \"" + value.as_string() +
                        "\" for " + type->name());
      }
      const std::int64_t ordinal = integer_in_range(
          value, 0,
          static_cast<std::int64_t>(type->enumerators().size()) - 1,
          "enum ordinal");
      return cdr::Any::from_enum(type, static_cast<std::uint32_t>(ordinal));
    }
    case cdr::TCKind::kSequence: {
      if (!value.is_array()) throw JsonError("json: expected array");
      std::vector<cdr::Any> items;
      items.reserve(value.as_array().size());
      for (const JsonValue& item : value.as_array()) {
        items.push_back(json_to_any(item, type->element()));
      }
      return cdr::Any::from_sequence(type->element(), std::move(items));
    }
    case cdr::TCKind::kStruct: {
      if (!value.is_object()) throw JsonError("json: expected object");
      const auto& members = type->members();
      if (value.as_object().size() != members.size()) {
        throw JsonError("json: struct " + type->name() + " wants " +
                        std::to_string(members.size()) + " fields, got " +
                        std::to_string(value.as_object().size()));
      }
      std::vector<cdr::Any> fields;
      fields.reserve(members.size());
      for (const auto& [name, member_type] : members) {
        const JsonValue* field = value.find(name);
        if (field == nullptr) {
          throw JsonError("json: struct " + type->name() +
                          " missing field \"" + name + "\"");
        }
        fields.push_back(json_to_any(*field, member_type));
      }
      return cdr::Any::from_struct(type, std::move(fields));
    }
    case cdr::TCKind::kAny:
    case cdr::TCKind::kObjRef:
      break;
  }
  throw JsonError(std::string("json: no JSON mapping for ") +
                  cdr::tc_kind_name(type->kind()));
}

}  // namespace maqs::gateway
