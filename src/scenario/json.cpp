#include "scenario/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <forward_list>
#include <functional>
#include <type_traits>
#include <utility>

namespace cloudrepro::scenario {

namespace {

[[noreturn]] void type_error(const char* wanted, Json::Type got) {
  static const char* names[] = {"null", "bool",   "int",   "uint",
                                "double", "string", "array", "object"};
  throw JsonError{std::string{"json: expected "} + wanted + ", have " +
                  names[static_cast<int>(got)]};
}

/// Appends `s` as a JSON string literal: '"' and '\' escaped, the
/// two-character escapes for \b \f \n \r \t, lowercase \u00XX for the other
/// control bytes, every other byte (raw UTF-8 included) as is.
void append_escaped(std::string& out, const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out.push_back(kHex[c >> 4]);
        out.push_back(kHex[c & 0xF]);
    }
  }
  out.append(s, run);
  out.push_back('"');
}

template <typename Int>
void append_integer(std::string& out, Int value) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, end);
}

/// Shortest round-trip form, "-0" normalized to "0".
void append_double(std::string& out, double value) {
  if (!std::isfinite(value)) {
    throw JsonError{"json: non-finite double has no canonical form"};
  }
  if (value == 0.0) {  // Normalizes -0.
    out.push_back('0');
    return;
  }
  char buf[40];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  if (ec != std::errc{}) throw JsonError{"json: double formatting failed"};
  out.append(buf, end);
}

/// What a validating parse returns in place of a value.
struct NoValue {};

/// Recursive-descent parser over a string_view with a single cursor. One
/// grammar, two modes: Parser<true> builds the Json tree; Parser<false>
/// (Json::valid) accepts and rejects exactly the same inputs but builds
/// nothing. Its strings are skipped rather than decoded, except object keys
/// that contain escapes, which duplicate-key detection must compare decoded.
template <bool kBuild>
class Parser {
 public:
  using Value = std::conditional_t<kBuild, Json, NoValue>;

  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw JsonError{"json parse error at offset " + std::to_string(pos_) + ": " + why};
  }

  template <typename T>
  static Value make(T&& value) {
    if constexpr (kBuild) {
      return Json{std::forward<T>(value)};
    } else {
      return {};
    }
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string{"expected '"} + c + "'");
  }

  void expect_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) fail("bad literal");
    pos_ += lit.size();
  }

  /// Containers recurse through parse_value; adversarial input like 100k
  /// unclosed '[' must fail with JsonError, not a stack overflow. Our own
  /// documents nest a handful of levels deep.
  static constexpr int kMaxDepth = 64;

  Value parse_value() {
    if (depth_ >= kMaxDepth) fail("nesting too deep");
    ++depth_;
    skip_ws();
    Value value = [&]() -> Value {
      switch (peek()) {
        case '{': return parse_object();
        case '[': return parse_array();
        case '"':
          if constexpr (kBuild) {
            return Json{parse_string()};
          } else {
            scan_string(nullptr);
            return {};
          }
        case 't': expect_literal("true"); return make(true);
        case 'f': expect_literal("false"); return make(false);
        case 'n': expect_literal("null"); return make(nullptr);
        default: return parse_number();
      }
    }();
    --depth_;
    return value;
  }

  Value parse_object() {
    expect('{');
    // Build mode collects members into a map, whose emplace rejects a
    // duplicate key; validate mode pushes this object's keys onto keys_
    // from index `first_key` and checks them when the object closes.
    [[maybe_unused]] JsonObject object;
    [[maybe_unused]] const std::size_t first_key = keys_.size();
    skip_ws();
    if (consume('}')) return make(std::move(object));
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      if constexpr (kBuild) {
        std::string key = parse_string();
        skip_ws();
        expect(':');
        if (!object.emplace(std::move(key), parse_value()).second) {
          fail("duplicate object key");
        }
      } else {
        keys_.push_back(parse_key());
        skip_ws();
        expect(':');
        parse_value();
      }
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      if constexpr (!kBuild) check_unique_keys(first_key);
      return make(std::move(object));
    }
  }

  Value parse_array() {
    expect('[');
    [[maybe_unused]] JsonArray array;
    skip_ws();
    if (consume(']')) return make(std::move(array));
    for (;;) {
      if constexpr (kBuild) {
        array.push_back(parse_value());
      } else {
        parse_value();
      }
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      return make(std::move(array));
    }
  }

  /// Validate mode: a key as a view into the input, or — for a key with
  /// escapes, so that "a" and "\u0061" collide — into its decoded copy.
  std::string_view parse_key() {
    const std::size_t start = pos_;
    if (!scan_string(nullptr)) return text_.substr(start + 1, pos_ - start - 2);
    pos_ = start;
    std::string& decoded = decoded_keys_.emplace_front();
    scan_string(&decoded);
    return decoded;
  }

  /// Validate mode: fails on a repeated key among keys_[first..], then pops
  /// them. Canonical documents arrive key-sorted, so the sort is rare.
  void check_unique_keys(std::size_t first) {
    const auto begin = keys_.begin() + static_cast<std::ptrdiff_t>(first);
    if (std::adjacent_find(begin, keys_.end(), std::greater_equal<>{}) != keys_.end()) {
      std::sort(begin, keys_.end());
      if (std::adjacent_find(begin, keys_.end()) != keys_.end()) {
        fail("duplicate object key");
      }
    }
    keys_.resize(first);
  }

  std::string parse_string() {
    std::string out;
    scan_string(&out);
    return out;
  }

  static void append_utf8(std::string& out, unsigned long cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  unsigned long parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned long value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned long>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned long>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned long>(c - 'A' + 10);
      else fail("bad \\u escape digit");
    }
    return value;
  }

  /// Scans one string literal from its opening quote, appending the decoded
  /// bytes to `out` when there is one. Returns whether it held an escape.
  bool scan_string(std::string* out) {
    expect('"');
    bool escaped = false;
    for (;;) {
      const std::size_t run = pos_;
      while (pos_ < text_.size()) {
        const auto c = static_cast<unsigned char>(text_[pos_]);
        if (c == '"' || c == '\\' || c < 0x20) break;
        ++pos_;
      }
      if (out) out->append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return escaped;
      if (c != '\\') fail("raw control character in string");
      escaped = true;
      if (pos_ >= text_.size()) fail("truncated escape");
      const char e = text_[pos_++];
      char simple = 0;
      switch (e) {
        case '"': simple = '"'; break;
        case '\\': simple = '\\'; break;
        case '/': simple = '/'; break;
        case 'b': simple = '\b'; break;
        case 'f': simple = '\f'; break;
        case 'n': simple = '\n'; break;
        case 'r': simple = '\r'; break;
        case 't': simple = '\t'; break;
        case 'u': {
          unsigned long cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00-\uDFFF.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
              fail("unpaired surrogate");
            }
            pos_ += 2;
            const unsigned long lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("bad low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate");
          }
          if (out) append_utf8(*out, cp);
          continue;
        }
        default: fail("bad escape character");
      }
      if (out) out->push_back(simple);
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    bool integral = pos_ > start + (text_[start] == '-' ? 1 : 0);
    if (!integral) fail("bad number");
    if (pos_ < text_.size() &&
        (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      if (consume('.')) {
        const std::size_t frac = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          ++pos_;
        }
        if (pos_ == frac) fail("bad number: missing fraction digits");
      }
      if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
        ++pos_;
        if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
        const std::size_t exp = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          ++pos_;
        }
        if (pos_ == exp) fail("bad number: missing exponent digits");
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (integral) {
      if (token[0] == '-') {
        std::int64_t v = 0;
        const auto [p, ec] = std::from_chars(token.begin(), token.end(), v);
        if (ec == std::errc{} && p == token.end()) return make(v);
      } else {
        std::uint64_t v = 0;
        const auto [p, ec] = std::from_chars(token.begin(), token.end(), v);
        if (ec == std::errc{} && p == token.end()) {
          // Small non-negative integers stay kInt so 3 == 3 regardless of
          // whether the value came from an int or size_t constructor.
          if (v <= static_cast<std::uint64_t>(INT64_MAX)) {
            return make(static_cast<std::int64_t>(v));
          }
          return make(v);
        }
      }
      // Integer out of 64-bit range: fall through to double.
    }
    double v = 0.0;
    const auto [p, ec] = std::from_chars(token.begin(), token.end(), v);
    if (ec != std::errc{} || p != token.end()) fail("number out of range");
    return make(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  /// Validate mode only: the keys of every open object, innermost last.
  std::vector<std::string_view> keys_;
  /// Validate mode only: decoded copies of escaped keys, at stable addresses.
  std::forward_list<std::string> decoded_keys_;
};

}  // namespace

std::string canonical_double(double value) {
  std::string out;
  append_double(out, value);
  return out;
}

bool Json::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

std::int64_t Json::as_int() const {
  switch (type_) {
    case Type::kInt: return int_;
    case Type::kUInt:
      if (uint_ > static_cast<std::uint64_t>(INT64_MAX)) {
        throw JsonError{"json: uint value out of int64 range"};
      }
      return static_cast<std::int64_t>(uint_);
    default: type_error("integer", type_);
  }
}

std::uint64_t Json::as_uint() const {
  switch (type_) {
    case Type::kUInt: return uint_;
    case Type::kInt:
      if (int_ < 0) throw JsonError{"json: negative value out of uint64 range"};
      return static_cast<std::uint64_t>(int_);
    default: type_error("unsigned integer", type_);
  }
}

double Json::as_double() const {
  switch (type_) {
    case Type::kDouble: return double_;
    case Type::kInt: return static_cast<double>(int_);
    case Type::kUInt: return static_cast<double>(uint_);
    default: type_error("number", type_);
  }
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return string_;
}

const JsonArray& Json::as_array() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

const JsonObject& Json::as_object() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

JsonArray& Json::as_array() {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

JsonObject& Json::as_object() {
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

const Json* Json::find(std::string_view key) const noexcept {
  if (type_ != Type::kObject) return nullptr;
  const auto it = object_.find(std::string{key});
  return it == object_.end() ? nullptr : &it->second;
}

const Json& Json::at(std::string_view key) const {
  const Json* found = find(key);
  if (!found) throw JsonError{"json: missing field \"" + std::string{key} + "\""};
  return *found;
}

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) type_error("object", type_);
  return object_[key];
}

void Json::push_back(Json value) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) type_error("array", type_);
  array_.push_back(std::move(value));
}

bool Json::operator==(const Json& other) const noexcept {
  if (is_number() && other.is_number()) {
    // Numeric equality across storage types; integer/integer compares
    // exactly, anything involving a double compares as double.
    if (type_ != Type::kDouble && other.type_ != Type::kDouble) {
      const bool neg_a = type_ == Type::kInt && int_ < 0;
      const bool neg_b = other.type_ == Type::kInt && other.int_ < 0;
      if (neg_a != neg_b) return false;
      if (neg_a) return int_ == other.int_;
      const std::uint64_t a = type_ == Type::kInt ? static_cast<std::uint64_t>(int_) : uint_;
      const std::uint64_t b =
          other.type_ == Type::kInt ? static_cast<std::uint64_t>(other.int_) : other.uint_;
      return a == b;
    }
    return as_double() == other.as_double();
  }
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kString: return string_ == other.string_;
    case Type::kArray: return array_ == other.array_;
    case Type::kObject: return object_ == other.object_;
    default: return false;  // Numbers handled above.
  }
}

void Json::append_canonical(std::string& out) const {
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kInt: append_integer(out, int_); break;
    case Type::kUInt: append_integer(out, uint_); break;
    case Type::kDouble: append_double(out, double_); break;
    case Type::kString: append_escaped(out, string_); break;
    case Type::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out.push_back(',');
        array_[i].append_canonical(out);
      }
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out.push_back(',');
        first = false;
        append_escaped(out, key);
        out.push_back(':');
        value.append_canonical(out);
      }
      out.push_back('}');
      break;
    }
  }
}

std::string Json::canonical() const {
  std::string out;
  append_canonical(out);
  return out;
}

Json Json::parse(std::string_view text) { return Parser<true>{text}.parse_document(); }

bool Json::valid(std::string_view text) noexcept {
  try {
    Parser<false>{text}.parse_document();
    return true;
  } catch (const JsonError&) {
    return false;
  }
}

}  // namespace cloudrepro::scenario
