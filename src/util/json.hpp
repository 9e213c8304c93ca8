// The one JSON reader/writer of the tree.
//
// Every JSON surface goes through this module: the topology format
// (graph/json_topology), the metrics and trace artifacts (obs), the
// serving sweep, BENCH_kernels.json, and the drift_report and
// drift_lint tools, which link it (as the dependency-free `drift_json`
// library) with the rest of util and no simulator library.  It is the
// only code that lays out JSON text: every writer builds JsonValues and
// renders them with write_canonical (or, for an array too long to hold
// as one value, with CanonicalArrayStream), so every JSON file the tree
// writes is its own canonical form.
//
// Grammar of the reader:
//   - objects are std::map, so iteration (and therefore canonical
//     output) is key-sorted, and the last of duplicate keys wins;
//   - strings take the full escape set, \uXXXX (BMP, no surrogates)
//     decoded to UTF-8;
//   - at most kMaxJsonDepth arrays/objects may be open at once, so no
//     input can exhaust the stack;
//   - a number without fraction or exponent is an int64 unless an
//     int64 cannot hold it exactly (out of range, or negative zero);
//     every other number is a double, and one beyond double's range
//     reads as the signed infinity (overflow) or zero (underflow).
//
// The writers render doubles through std::to_chars (shortest form that
// round-trips, the same bytes on every conforming platform), so for any
// accepted document `write_canonical ∘ parse_json` is a fixed point.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace drift {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  explicit JsonValue(bool v) : kind_(Kind::kBool), bool_(v) {}
  explicit JsonValue(std::int64_t v) : kind_(Kind::kInt), int_(v) {}
  explicit JsonValue(double v) : kind_(Kind::kDouble), double_(v) {}
  explicit JsonValue(std::string v)
      : kind_(Kind::kString), string_(std::move(v)) {}
  explicit JsonValue(JsonArray v) : kind_(Kind::kArray), array_(std::move(v)) {}
  explicit JsonValue(JsonObject v)
      : kind_(Kind::kObject), object_(std::move(v)) {}

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  /// A double truncates toward zero, saturating at the int64 range
  /// (NaN reads as 0).
  std::int64_t as_int() const;
  double as_double() const {
    return kind_ == Kind::kInt ? static_cast<double>(int_) : double_;
  }
  const std::string& as_string() const { return string_; }
  const JsonArray& as_array() const { return array_; }
  const JsonObject& as_object() const { return object_; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* get(const std::string& key) const;

  /// `get` chained through nested objects, nullptr on any miss.
  const JsonValue* get_path(std::initializer_list<const char*> keys) const;

 private:
  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  JsonArray array_;
  JsonObject object_;
};

/// Deepest array/object nesting parse_json accepts.
inline constexpr int kMaxJsonDepth = 64;

/// Why parse_json rejected its input: the byte offset of the first bad
/// byte (at most the input size; equal to it when the input ends
/// early) and what is wrong there.
struct JsonError {
  std::size_t offset = 0;
  std::string message;

  /// "JSON error at byte <offset>: <message>", the one error text every
  /// JSON consumer prints.
  std::string what() const;
};

/// Parses `text` as one JSON document; on failure returns nullopt and
/// fills `error`.
std::optional<JsonValue> parse_json(std::string_view text, JsonError& error);

/// Canonical serialization: object keys in sorted (std::map) order,
/// doubles via format_double, 2-space indent, trailing newline.
/// Byte-identical for equal documents — the contract the report
/// goldens and `drift_report diff` rely on.
std::string write_canonical(const JsonValue& value);

/// write_canonical of {"<key>": [e0, e1, ...]}, built one element at a
/// time, so an array too long to hold as one JsonValue (a traced run's
/// events) is laid out byte for byte as write_canonical lays it out.
class CanonicalArrayStream {
 public:
  explicit CanonicalArrayStream(std::string_view key);
  void add(const JsonValue& element);
  /// The finished document; the stream is spent afterwards.
  std::string finish();

 private:
  std::string out_;
  bool empty_ = true;
};

/// Shortest round-trip rendering of a double (std::to_chars).  The
/// infinities print as the out-of-range literals 1e999 / -1e999, which
/// parse_json reads back as the same infinities; NaN prints as 0.
std::string format_double(double v);

}  // namespace drift
