#include "util/json.hpp"

#include <cmath>
#include <cstdio>

#include "util/argparse.hpp"

namespace emask::util {

std::string JsonWriter::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
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

std::string JsonWriter::format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void JsonWriter::indent() {
  for (std::size_t i = 0; i < stack_.size(); ++i) out_ << "  ";
}

void JsonWriter::before_item() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value follows "key": on the same line
  }
  if (!stack_.empty()) {
    if (stack_.back().has_items) out_ << ',';
    out_ << '\n';
    indent();
    stack_.back().has_items = true;
  }
}

void JsonWriter::begin_object() {
  before_item();
  out_ << '{';
  stack_.push_back({false, false});
}

void JsonWriter::end_object() {
  const bool had_items = stack_.back().has_items;
  stack_.pop_back();
  if (had_items) {
    out_ << '\n';
    indent();
  }
  out_ << '}';
}

void JsonWriter::begin_array() {
  before_item();
  out_ << '[';
  stack_.push_back({true, false});
}

void JsonWriter::end_array() {
  const bool had_items = stack_.back().has_items;
  stack_.pop_back();
  if (had_items) {
    out_ << '\n';
    indent();
  }
  out_ << ']';
}

void JsonWriter::key(const std::string& name) {
  before_item();
  out_ << '"' << escape(name) << "\": ";
  pending_key_ = true;
}

void JsonWriter::value(const std::string& v) {
  before_item();
  out_ << '"' << escape(v) << '"';
}

void JsonWriter::value(double v) {
  before_item();
  // "nan"/"inf" are not JSON; null is the documented non-finite encoding.
  out_ << (std::isfinite(v) ? format_double(v) : "null");
}

void JsonWriter::value(std::uint64_t v) {
  before_item();
  out_ << v;
}

void JsonWriter::value(int v) {
  before_item();
  out_ << v;
}

void JsonWriter::value(bool v) {
  before_item();
  out_ << (v ? "true" : "false");
}

void JsonWriter::finish() { out_ << '\n'; }

// ---------------------------------------------------------------- parser

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("json: " + what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of document");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t n = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.type = JsonValue::Type::kString;
        v.text = parse_string();
        return v;
      }
      case 't':
        if (consume_literal("true")) {
          JsonValue v;
          v.type = JsonValue::Type::kBool;
          v.boolean = true;
          return v;
        }
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) {
          JsonValue v;
          v.type = JsonValue::Type::kBool;
          return v;
        }
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue{};
        fail("invalid literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      expect(':');
      v.members.emplace_back(std::move(key), parse_value());
      const char next = peek();
      ++pos_;
      if (next == '}') return v;
      if (next != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      const char next = peek();
      ++pos_;
      if (next == ']') return v;
      if (next != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad hex digit in \\u escape");
          }
          // UTF-8 encode (BMP only — all JsonWriter ever emits).
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
        default: fail("unknown escape sequence");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    const std::size_t int_start = pos_;
    const std::size_t int_digits = digits();
    if (int_digits == 0) fail("invalid number");
    if (int_digits > 1 && text_[int_start] == '0') {
      fail("invalid number (leading zero)");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("invalid number (no digits after '.')");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) fail("invalid number (empty exponent)");
    }
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.text = text_.substr(start, pos_ - start);
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

[[noreturn]] void type_error(const char* wanted, JsonValue::Type got) {
  static const char* const kNames[] = {"null",   "bool",  "number",
                                       "string", "array", "object"};
  throw JsonError(std::string("json: expected ") + wanted + ", got " +
                  kNames[static_cast<int>(got)]);
}

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  if (type != Type::kObject) type_error("object", type);
  const JsonValue* v = find(key);
  if (v == nullptr) throw JsonError("json: missing key '" + key + "'");
  return *v;
}

const std::string& JsonValue::as_string() const {
  if (type != Type::kString) type_error("string", type);
  return text;
}

bool JsonValue::as_bool() const {
  if (type != Type::kBool) type_error("bool", type);
  return boolean;
}

std::uint64_t JsonValue::as_u64() const {
  if (type != Type::kNumber) type_error("number", type);
  try {
    return ArgParser::parse_u64(text, "json number");
  } catch (const ArgError& e) {
    throw JsonError(e.what());
  }
}

long long JsonValue::as_int() const {
  if (type != Type::kNumber) type_error("number", type);
  try {
    return ArgParser::parse_int(text, "json number");
  } catch (const ArgError& e) {
    throw JsonError(e.what());
  }
}

double JsonValue::as_double() const {
  if (type != Type::kNumber) type_error("number", type);
  try {
    return ArgParser::parse_double(text, "json number");
  } catch (const ArgError& e) {
    throw JsonError(e.what());
  }
}

JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse_document();
}

}  // namespace emask::util
