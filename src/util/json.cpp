#include "util/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace drift {

std::int64_t JsonValue::as_int() const {
  if (kind_ != Kind::kDouble) return int_;
  // 2^63 is exact in double; every double below it fits in int64.
  constexpr double kLimit = 9223372036854775808.0;
  if (std::isnan(double_)) return 0;
  if (double_ >= kLimit) return std::numeric_limits<std::int64_t>::max();
  if (double_ < -kLimit) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(double_);
}

const JsonValue* JsonValue::get(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

const JsonValue* JsonValue::get_path(
    std::initializer_list<const char*> keys) const {
  const JsonValue* v = this;
  for (const char* key : keys) {
    v = v->get(key);
    if (v == nullptr) return nullptr;
  }
  return v;
}

std::string JsonError::what() const {
  return "JSON error at byte " + std::to_string(offset) + ": " + message;
}

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Value of a number literal std::from_chars rejected as out of range:
/// the signed infinity when it overflows, the signed zero when it
/// underflows.  The decimal exponent of the leading significant digit
/// tells the two apart — out of range means it is >= 308 or <= -324.
/// (A zero mantissa is never out of range, so that digit exists.)
double beyond_range(std::string_view lit) {
  const std::size_t e = std::min(lit.find_first_of("eE"), lit.size());
  const std::string_view mantissa = lit.substr(0, e);
  const auto lead =
      static_cast<std::int64_t>(mantissa.find_first_of("123456789"));
  const auto point =
      static_cast<std::int64_t>(std::min(mantissa.find('.'), e));
  std::int64_t exponent = point - lead - (lead < point ? 1 : 0);
  if (e < lit.size()) {
    std::string_view digits = lit.substr(e + 1);
    if (digits.front() == '+') digits.remove_prefix(1);
    // Saturate far past double's range, so the sum cannot overflow.
    constexpr std::int64_t kCap = std::int64_t{1} << 40;
    std::int64_t power = 0;
    const auto res =
        std::from_chars(digits.data(), digits.data() + digits.size(), power);
    if (res.ec != std::errc()) power = digits.front() == '-' ? -kCap : kCap;
    exponent += std::clamp(power, -kCap, kCap);
  }
  const double magnitude =
      exponent >= 0 ? std::numeric_limits<double>::infinity() : 0.0;
  return lit.front() == '-' ? -magnitude : magnitude;
}

/// Recursive-descent reader over one document.  Records the first
/// failure only: every caller returns false straight up after it.
class Reader {
 public:
  Reader(std::string_view text, JsonError& error)
      : text_(text), error_(error) {}

  std::optional<JsonValue> run() {
    JsonValue v;
    if (!parse_value(v)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail(pos_, "trailing bytes after the top-level value");
      return std::nullopt;
    }
    return v;
  }

 private:
  bool fail(std::size_t offset, std::string message) {
    error_.offset = offset;
    error_.message = std::move(message);
    return false;
  }

  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char expected, const char* what) {
    if (at(expected)) {
      ++pos_;
      return true;
    }
    return fail(pos_, std::string("expected ") + what);
  }

  bool parse_literal(std::string_view word, JsonValue v, JsonValue& out) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail(pos_, "bad literal (expected '" + std::string(word) + "')");
    }
    pos_ += word.size();
    out = std::move(v);
    return true;
  }

  bool parse_hex4(unsigned& cp) {
    cp = 0;
    for (int i = 0; i < 4; ++i, ++pos_) {
      if (pos_ >= text_.size()) return fail(pos_, "truncated \\u escape");
      const char h = text_[pos_];
      cp <<= 4;
      if (is_digit(h)) {
        cp |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        cp |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        cp |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        return fail(pos_, "bad hex digit in \\u escape");
      }
    }
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"', "'\"'")) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
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
          unsigned cp = 0;
          if (!parse_hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDFFF) {
            return fail(pos_ - 6, "surrogate \\u escape unsupported");
          }
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          return fail(pos_ - 2, "unknown escape");
      }
    }
    return fail(text_.size(), "unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    const auto digits = [this] {
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    };
    if (at('-')) ++pos_;
    digits();
    bool integral = true;
    if (at('.')) {
      integral = false;
      ++pos_;
      digits();
    }
    if (at('e') || at('E')) {
      integral = false;
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      digits();
    }
    if (pos_ == start) return fail(start, "expected a value");
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (integral) {
      std::int64_t i = 0;
      const auto res = std::from_chars(first, last, i);
      if (res.ec == std::errc() && res.ptr == last &&
          (i != 0 || *first != '-')) {
        out = JsonValue(i);
        return true;
      }
      // Beyond int64, or negative zero: read as a double below.
    }
    double d = 0.0;
    const auto res = std::from_chars(first, last, d);
    if (res.ptr != last ||
        (res.ec != std::errc() && res.ec != std::errc::result_out_of_range)) {
      return fail(start, "malformed number");
    }
    if (res.ec == std::errc::result_out_of_range) {
      d = beyond_range(text_.substr(start, pos_ - start));
    }
    out = JsonValue(d);
    return true;
  }

  bool parse_array(JsonValue& out) {
    ++pos_;
    JsonArray arr;
    skip_ws();
    for (bool more = !at(']'); more;) {
      JsonValue elem;
      if (!parse_value(elem)) return false;
      arr.push_back(std::move(elem));
      skip_ws();
      more = at(',');
      if (more) ++pos_;
    }
    if (!consume(']', "',' or ']'")) return false;
    out = JsonValue(std::move(arr));
    return true;
  }

  bool parse_object(JsonValue& out) {
    ++pos_;
    JsonObject obj;
    skip_ws();
    for (bool more = !at('}'); more;) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':', "':'")) return false;
      JsonValue elem;
      if (!parse_value(elem)) return false;
      obj[std::move(key)] = std::move(elem);
      skip_ws();
      more = at(',');
      if (more) ++pos_;
    }
    if (!consume('}', "',' or '}'")) return false;
    out = JsonValue(std::move(obj));
    return true;
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail(pos_, "unexpected end of input");
    switch (text_[pos_]) {
      case 'n': return parse_literal("null", JsonValue(), out);
      case 't': return parse_literal("true", JsonValue(true), out);
      case 'f': return parse_literal("false", JsonValue(false), out);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = JsonValue(std::move(s));
        return true;
      }
      case '[':
      case '{': {
        if (depth_ == kMaxJsonDepth) {
          return fail(pos_, "nesting deeper than " +
                                std::to_string(kMaxJsonDepth) + " levels");
        }
        ++depth_;
        const bool ok =
            text_[pos_] == '[' ? parse_array(out) : parse_object(out);
        --depth_;
        return ok;
      }
      default:
        return parse_number(out);
    }
  }

  std::string_view text_;
  JsonError& error_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

/// Appends `s` as a quoted JSON string: `"` and `\` backslash-escaped,
/// newline, tab and carriage return as \n \t \r, every other byte below
/// 0x20 as \u00XX; all other bytes verbatim.
void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_value(std::string& out, const JsonValue& v, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const std::string pad_in(static_cast<std::size_t>(indent + 1) * 2, ' ');
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      out += "null";
      break;
    case JsonValue::Kind::kBool:
      out += v.as_bool() ? "true" : "false";
      break;
    case JsonValue::Kind::kInt:
      out += std::to_string(v.as_int());
      break;
    case JsonValue::Kind::kDouble:
      out += format_double(v.as_double());
      break;
    case JsonValue::Kind::kString:
      append_quoted(out, v.as_string());
      break;
    case JsonValue::Kind::kArray: {
      const JsonArray& arr = v.as_array();
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out += "[\n";
      for (std::size_t i = 0; i < arr.size(); ++i) {
        out += pad_in;
        append_value(out, arr[i], indent + 1);
        out += i + 1 < arr.size() ? ",\n" : "\n";
      }
      out += pad + "]";
      break;
    }
    case JsonValue::Kind::kObject: {
      const JsonObject& obj = v.as_object();
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out += "{\n";
      std::size_t i = 0;
      for (const auto& [key, value] : obj) {
        out += pad_in;
        append_quoted(out, key);
        out += ": ";
        append_value(out, value, indent + 1);
        out += ++i < obj.size() ? ",\n" : "\n";
      }
      out += pad + "}";
      break;
    }
  }
}

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text, JsonError& error) {
  error = JsonError{};
  return Reader(text, error).run();
}

std::string write_canonical(const JsonValue& value) {
  std::string out;
  append_value(out, value, 0);
  out += '\n';
  return out;
}

std::string format_double(double v) {
  if (!std::isfinite(v)) return v > 0 ? "1e999" : (v < 0 ? "-1e999" : "0");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

CanonicalArrayStream::CanonicalArrayStream(std::string_view key) {
  out_ = "{\n  ";
  append_quoted(out_, key);
  out_ += ": [";
}

void CanonicalArrayStream::add(const JsonValue& element) {
  out_ += empty_ ? "\n    " : ",\n    ";
  empty_ = false;
  append_value(out_, element, 2);
}

std::string CanonicalArrayStream::finish() {
  out_ += empty_ ? "]\n}\n" : "\n  ]\n}\n";
  return std::move(out_);
}

}  // namespace drift
