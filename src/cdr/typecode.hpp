// Runtime type descriptions (CORBA TypeCode equivalent).
//
// TypeCodes describe the shape of marshaled values. They power the DII
// (dynamic requests carry self-describing Any arguments), the QoS-module
// command interface (Fig. 3: module-specific "dynamic interface" driven via
// DII), and the interface repository built by the QIDL front-end.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace maqs::cdr {

class Encoder;
class Decoder;

enum class TCKind : std::uint8_t {
  kVoid = 0,
  kBoolean,
  kOctet,
  kShort,
  kLong,      // 32-bit, CORBA naming
  kLongLong,  // 64-bit
  kFloat,
  kDouble,
  kString,
  kSequence,
  kStruct,
  kEnum,
  kAny,
  kObjRef,
};

const char* tc_kind_name(TCKind kind) noexcept;

class TypeCode;
using TypeCodePtr = std::shared_ptr<const TypeCode>;

/// Immutable, structurally comparable type description. Construct through
/// the static factories; shared via TypeCodePtr.
class TypeCode {
 public:
  // ---- factories ----
  static TypeCodePtr void_tc();
  static TypeCodePtr boolean_tc();
  static TypeCodePtr octet_tc();
  static TypeCodePtr short_tc();
  static TypeCodePtr long_tc();
  static TypeCodePtr longlong_tc();
  static TypeCodePtr float_tc();
  static TypeCodePtr double_tc();
  static TypeCodePtr string_tc();
  static TypeCodePtr any_tc();
  static TypeCodePtr sequence_tc(TypeCodePtr element);
  static TypeCodePtr struct_tc(
      std::string name,
      std::vector<std::pair<std::string, TypeCodePtr>> members);
  static TypeCodePtr enum_tc(std::string name,
                             std::vector<std::string> enumerators);
  /// Object reference typed by its repository id (e.g. "IDL:demo/Hello:1.0").
  static TypeCodePtr objref_tc(std::string repo_id);

  // ---- inspection ----
  TCKind kind() const noexcept { return kind_; }
  /// Struct/enum name or objref repository id; empty otherwise.
  const std::string& name() const noexcept { return name_; }
  /// Sequence element type; null otherwise.
  const TypeCodePtr& element() const noexcept { return element_; }
  const std::vector<std::pair<std::string, TypeCodePtr>>& members() const
      noexcept {
    return members_;
  }
  const std::vector<std::string>& enumerators() const noexcept {
    return enumerators_;
  }

  /// Structural equality.
  bool equal(const TypeCode& other) const;

  /// Human-readable form, e.g. "sequence<long>".
  std::string to_string() const;

  // ---- marshaling (for self-describing Anys) ----
  void encode(Encoder& enc) const;
  /// Throws CdrError on malformed input, including nesting deeper than
  /// kMaxDecodeDepth (the wire form is recursive; the bound keeps a
  /// hostile run of sequence octets from exhausting the stack).
  static TypeCodePtr decode(Decoder& dec);

  static constexpr int kMaxDecodeDepth = 64;

 protected:
  // Construct through the factories; protected so the factory helpers can
  // derive locally.
  explicit TypeCode(TCKind kind) : kind_(kind) {}

 private:
  static TypeCodePtr decode_nested(Decoder& dec, int depth);

  TCKind kind_;
  std::string name_;
  TypeCodePtr element_;
  std::vector<std::pair<std::string, TypeCodePtr>> members_;
  std::vector<std::string> enumerators_;
};

inline bool operator==(const TypeCode& a, const TypeCode& b) {
  return a.equal(b);
}

}  // namespace maqs::cdr
