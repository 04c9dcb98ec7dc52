// Minimal JSON support for the observability layer: string escaping,
// number formatting, and a small DOM with a validating parser.
//
// The exporters (trace.h, metrics.h) *stream* their output — they only
// need escape()/number() — while tests and the bench smoke targets
// re-parse emitted files into Value to validate schema and content.
// Deliberately tiny: no external dependencies, throws core::CheckError on
// malformed input.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace fdet::obs::json {

/// Escapes `text` for use inside a double-quoted JSON string (quotes and
/// backslashes escaped, control characters as \u00XX).
std::string escape(std::string_view text);

/// Formats a finite double compactly: integral values print without a
/// fractional part, others with enough digits to round-trip. NaN and
/// infinities (invalid JSON) are emitted as `null` — deterministic, still
/// parseable, and visibly degenerate (unlike a silent 0). Readers that
/// expect a number treat the null as NaN (see RunRecord::from_json).
std::string number(double value);

/// Parsed JSON value. Objects preserve insertion order of the source text.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Value>;
  using Member = std::pair<std::string, Value>;
  using Object = std::vector<Member>;

  Value() = default;
  static Value make_bool(bool b);
  static Value make_number(double n);
  static Value make_string(std::string s);
  static Value make_array(Array a);
  static Value make_object(Object o);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; FDET_CHECK the kind.
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  const Value* find(std::string_view key) const;
  /// Object member access; FDET_CHECKs presence.
  const Value& at(std::string_view key) const;

  /// Compact serialization (inverse of parse, modulo number formatting).
  std::string dump() const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parses one JSON document (trailing whitespace allowed, nothing else).
/// Throws core::CheckError with an offset on malformed input.
Value parse(std::string_view text);

/// Reads and parses a JSON file; throws core::CheckError when the file is
/// unreadable or malformed.
Value parse_file(const std::string& path);

}  // namespace fdet::obs::json
