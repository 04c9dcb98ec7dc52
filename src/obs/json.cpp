#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/check.h"

namespace fdet::obs::json {

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':  out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string number(double value) {
  if (!std::isfinite(value)) {
    // NaN/Inf are invalid JSON. `null` keeps the document parseable and
    // keeps the degeneracy visible (a silent 0 would read as "0 ms");
    // Value::parse and RunRecord::from_json map it back to NaN.
    return "null";
  }
  if (value == std::floor(value) && std::fabs(value) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", value);
    return buf;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

Value Value::make_bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::make_number(double n) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

Value Value::make_string(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::make_array(Array a) {
  Value v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(a);
  return v;
}

Value Value::make_object(Object o) {
  Value v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(o);
  return v;
}

double Value::as_number() const {
  FDET_CHECK(is_number()) << "JSON value is not a number";
  return number_;
}

const std::string& Value::as_string() const {
  FDET_CHECK(is_string()) << "JSON value is not a string";
  return string_;
}

const Value::Array& Value::as_array() const {
  FDET_CHECK(is_array()) << "JSON value is not an array";
  return array_;
}

const Value::Object& Value::as_object() const {
  FDET_CHECK(is_object()) << "JSON value is not an object";
  return object_;
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) {
    return nullptr;
  }
  for (const auto& [name, value] : object_) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* found = find(key);
  FDET_CHECK(found != nullptr) << "missing JSON key '" << key << "'";
  return *found;
}

std::string Value::dump() const {
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kNumber:
      return number(number_);
    case Kind::kString: {
      std::string out;
      out += '"';
      out += escape(string_);
      out += '"';
      return out;
    }
    case Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        out += array_[i].dump();
      }
      out += ']';
      return out;
    }
    case Kind::kObject: {
      std::string out = "{";
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        out += '"';
        out += escape(object_[i].first);
        out += "\":";
        out += object_[i].second.dump();
      }
      out += '}';
      return out;
    }
  }
  return "null";
}

namespace {

/// Recursive-descent parser over a string_view with an explicit cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value value = parse_value();
    skip_ws();
    FDET_CHECK(pos_ == text_.size())
        << "trailing JSON content at offset " << pos_;
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    FDET_CHECK(pos_ < text_.size()) << "unexpected end of JSON input";
    return text_[pos_];
  }

  void expect(char c) {
    FDET_CHECK(peek() == c) << "expected '" << c << "' at offset " << pos_;
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Value parse_value() {
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value::make_string(parse_string());
      case 't': return parse_literal("true", Value::make_bool(true));
      case 'f': return parse_literal("false", Value::make_bool(false));
      case 'n': return parse_literal("null", Value());
      default:  return parse_number();
    }
  }

  Value parse_literal(std::string_view word, Value value) {
    FDET_CHECK(text_.substr(pos_, word.size()) == word)
        << "malformed JSON literal at offset " << pos_;
    pos_ += word.size();
    return value;
  }

  Value parse_object() {
    expect('{');
    Value::Object members;
    if (!consume('}')) {
      do {
        std::string key = parse_string();
        expect(':');
        members.emplace_back(std::move(key), parse_value());
      } while (consume(','));
      expect('}');
    }
    return Value::make_object(std::move(members));
  }

  Value parse_array() {
    expect('[');
    Value::Array items;
    if (!consume(']')) {
      do {
        items.push_back(parse_value());
      } while (consume(','));
      expect(']');
    }
    return Value::make_array(std::move(items));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      FDET_CHECK(pos_ < text_.size()) << "unterminated JSON string";
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      FDET_CHECK(pos_ < text_.size()) << "unterminated JSON escape";
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':  out += '"'; break;
        case '\\': out += '\\'; break;
        case '/':  out += '/'; break;
        case 'b':  out += '\b'; break;
        case 'f':  out += '\f'; break;
        case 'n':  out += '\n'; break;
        case 'r':  out += '\r'; break;
        case 't':  out += '\t'; break;
        case 'u': {
          FDET_CHECK(pos_ + 4 <= text_.size()) << "truncated \\u escape";
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            unsigned digit = 0;
            if (h >= '0' && h <= '9') digit = static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') digit = static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') digit = static_cast<unsigned>(h - 'A' + 10);
            else FDET_CHECK(false) << "bad hex digit in \\u escape";
            code = code * 16 + digit;
          }
          // UTF-8 encode the code point (surrogate pairs not needed for
          // the subset this library emits).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          FDET_CHECK(false) << "bad JSON escape '\\" << esc << "'";
      }
    }
  }

  Value parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    FDET_CHECK(pos_ > start) << "malformed JSON value at offset " << start;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    FDET_CHECK(end == token.c_str() + token.size())
        << "malformed JSON number '" << token << "'";
    return Value::make_number(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

Value parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FDET_CHECK(in.good()) << "cannot open JSON file '" << path << "'";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

}  // namespace fdet::obs::json
