#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace cloudrepro::scenario {

/// Minimal JSON document model for the scenario catalog. Three properties
/// matter more than generality:
///
///  1. **Canonical serialization.** Objects are stored in a sorted map and
///     written with no whitespace, so two documents with the same fields in
///     any order and any formatting serialize to the same bytes — the basis
///     of the content hash.
///  2. **Round-trip numbers.** Doubles are written with the shortest
///     representation that parses back to the same binary64
///     (std::to_chars), integers as integers; parse(canonical(x)) == x.
///  3. **No dependencies.** The container image ships no JSON library; this
///     one is a few hundred lines and exactly as strict as the catalog needs.
///  4. **One grammar, two uses.** `parse` builds the tree; `valid` runs the
///     same parser without building anything, for callers that only need
///     to know a document parses (the result store's checked read of a
///     summary it is about to serve).
class Json;

using JsonArray = std::vector<Json>;
/// std::map (not unordered) so iteration — and thus serialization — is
/// always key-sorted.
using JsonObject = std::map<std::string, Json>;

struct JsonError : std::runtime_error {
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

class Json {
 public:
  enum class Type { kNull, kBool, kInt, kUInt, kDouble, kString, kArray, kObject };

  Json() noexcept : type_(Type::kNull) {}
  Json(std::nullptr_t) noexcept : type_(Type::kNull) {}
  Json(bool b) noexcept : type_(Type::kBool), bool_(b) {}
  Json(int v) noexcept : type_(Type::kInt), int_(v) {}
  Json(std::int64_t v) noexcept : type_(Type::kInt), int_(v) {}
  Json(std::uint64_t v) noexcept : type_(Type::kUInt), uint_(v) {}
  Json(double v) : type_(Type::kDouble), double_(v) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(JsonArray a) : type_(Type::kArray), array_(std::move(a)) {}
  Json(JsonObject o) : type_(Type::kObject), object_(std::move(o)) {}

  Type type() const noexcept { return type_; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }
  bool is_number() const noexcept {
    return type_ == Type::kInt || type_ == Type::kUInt || type_ == Type::kDouble;
  }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_object() const noexcept { return type_ == Type::kObject; }

  bool as_bool() const;
  /// Numeric accessors convert between the three numeric storage types;
  /// they throw JsonError on non-numbers and on out-of-range conversions
  /// (e.g. as_uint() of a negative, as_int() of 2^63).
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  double as_double() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;
  JsonArray& as_array();
  JsonObject& as_object();

  /// Object field lookup: nullptr when absent (or not an object).
  const Json* find(std::string_view key) const noexcept;
  /// Object field access; throws JsonError when absent.
  const Json& at(std::string_view key) const;
  /// Object insert-or-access (turns a null value into an empty object).
  Json& operator[](const std::string& key);

  /// Array append (turns a null value into an empty array).
  void push_back(Json value);

  bool operator==(const Json& other) const noexcept;

  /// Canonical bytes: key-sorted objects, no whitespace, shortest
  /// round-trip numbers. Throws JsonError on non-finite doubles (canonical
  /// JSON has no NaN/Infinity).
  std::string canonical() const;

  /// Strict parser: one complete value, trailing whitespace only.
  static Json parse(std::string_view text);
  /// Whether `parse(text)` would succeed, without building the value: the
  /// same grammar run in a mode that keeps no tree (see json.cpp's Parser).
  static bool valid(std::string_view text) noexcept;

 private:
  void append_canonical(std::string& out) const;

  Type type_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  JsonArray array_;
  JsonObject object_;
};

/// Canonical formatting of one double (shortest round-trip, "-0" normalized
/// to "0"); shared with the summary writer so every exported number uses
/// the same bytes. Throws JsonError on non-finite values.
std::string canonical_double(double value);

}  // namespace cloudrepro::scenario
