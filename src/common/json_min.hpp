// Minimal self-contained JSON parser — no external dependency.  Used to
// validate the repo's JSON exporters in tests (Chrome trace,
// adres.counters.v1, adres.buildinfo.v1, bench dumps) and to load
// adres.campaign.v1 checkpoints and adres.postmortem.v1 bundles.  Not a
// general-purpose parser (a \uXXXX escape above U+007F collapses to '?'),
// but it fails closed: nesting is capped at kMaxDepth, numbers follow the
// JSON grammar and must be finite, and every failure is a
// std::runtime_error naming its byte offset.  Loaders read fields through
// at(key, type), get() and as(), which fail closed the same way on a wrong
// type or an integer the target type cannot hold, naming the key.
#pragma once

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/json_escape.hpp"

namespace adres::json {

struct JsonValue {
  enum Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool hasKey(const std::string& k) const { return object.count(k) != 0; }
  const JsonValue& at(const std::string& k) const {
    auto it = object.find(k);
    if (it == object.end()) throw std::runtime_error("missing key " + k);
    return it->second;
  }

  /// Member `key`, which must hold JSON type `t` (for arrays and objects).
  const JsonValue& at(const std::string& key, Type t) const {
    const JsonValue& v = at(key);
    v.expect(t, key);
    return v;
  }

  /// The checked read of a loaded scalar: this value as `T`, where `T` is
  /// bool, std::string, double or an integer type.  An integer must be
  /// integral and fit `T`; 64-bit integers must also be at most 2^53 in
  /// magnitude, so the parsed double held them exactly.  Anything else
  /// throws std::runtime_error naming `what` (the field's key).
  template <class T>
  T as(const std::string& what) const {
    if constexpr (std::is_same_v<T, bool>) {
      expect(kBool, what);
      return boolean;
    } else if constexpr (std::is_same_v<T, std::string>) {
      expect(kString, what);
      return str;
    } else if constexpr (std::is_same_v<T, double>) {
      expect(kNumber, what);
      return number;
    } else {
      static_assert(std::is_integral_v<T>, "as<T>: unsupported type");
      expect(kNumber, what);
      constexpr double kExact = 9007199254740992.0;  // 2^53
      const double lo =
          std::max(static_cast<double>(std::numeric_limits<T>::min()), -kExact);
      const double hi =
          std::min(static_cast<double>(std::numeric_limits<T>::max()), kExact);
      if (number != std::trunc(number) || number < lo || number > hi)
        throw std::runtime_error("key " + what + ": " + fmtDouble(number) +
                                 " is not an integer in [" + fmtDouble(lo) +
                                 ", " + fmtDouble(hi) + "]");
      return static_cast<T>(number);
    }
  }
  /// as<T>() of member `key`.
  template <class T>
  T get(const std::string& key) const {
    return at(key).as<T>(key);
  }

 private:
  void expect(Type t, const std::string& what) const {
    static constexpr const char* kNames[] = {"null",   "bool",  "number",
                                             "string", "array", "object"};
    if (type != t)
      throw std::runtime_error("key " + what + ": expected " + kNames[t] +
                               ", got " + kNames[type]);
  }
};

class JsonParser {
 public:
  /// Deepest array/object nesting accepted (the repo's documents use < 10).
  static constexpr int kMaxDepth = 256;

  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = parseValue();
    skipWs();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    throw std::runtime_error("JSON error at offset " + std::to_string(pos_) +
                             ": " + why);
  }
  void skipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  char get() {
    char c = peek();
    ++pos_;
    return c;
  }
  void expect(char c) {
    if (get() != c) fail(std::string("expected '") + c + "'");
  }

  JsonValue parseValue() {
    skipWs();
    switch (peek()) {
      case '{':
      case '[': {
        if (++depth_ > kMaxDepth)
          fail("nesting deeper than " + std::to_string(kMaxDepth));
        JsonValue v = peek() == '{' ? parseObject() : parseArray();
        --depth_;
        return v;
      }
      case '"': return parseString();
      case 't': case 'f': return parseBool();
      case 'n': return parseNull();
      default: return parseNumber();
    }
  }
  JsonValue parseObject() {
    JsonValue v;
    v.type = JsonValue::kObject;
    expect('{');
    skipWs();
    if (peek() == '}') { ++pos_; return v; }
    while (true) {
      skipWs();
      JsonValue key = parseString();
      skipWs();
      expect(':');
      v.object[key.str] = parseValue();
      skipWs();
      char c = get();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'");
    }
    return v;
  }
  JsonValue parseArray() {
    JsonValue v;
    v.type = JsonValue::kArray;
    expect('[');
    skipWs();
    if (peek() == ']') { ++pos_; return v; }
    while (true) {
      v.array.push_back(parseValue());
      skipWs();
      char c = get();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']'");
    }
    return v;
  }
  JsonValue parseString() {
    JsonValue v;
    v.type = JsonValue::kString;
    expect('"');
    while (true) {
      char c = get();
      if (c == '"') break;
      if (c == '\\') {
        char e = get();
        switch (e) {
          case '"': v.str += '"'; break;
          case '\\': v.str += '\\'; break;
          case '/': v.str += '/'; break;
          case 'b': v.str += '\b'; break;
          case 'f': v.str += '\f'; break;
          case 'n': v.str += '\n'; break;
          case 'r': v.str += '\r'; break;
          case 't': v.str += '\t'; break;
          case 'u': {
            std::string hex;
            for (int i = 0; i < 4; ++i) {
              hex += get();
              if (!std::isxdigit(static_cast<unsigned char>(hex.back())))
                fail("bad \\u escape");
            }
            const unsigned long cp = std::strtoul(hex.c_str(), nullptr, 16);
            v.str += cp < 0x80 ? static_cast<char>(cp) : '?';
            break;
          }
          default: fail("bad escape");
        }
      } else {
        v.str += c;
      }
    }
    return v;
  }
  JsonValue parseBool() {
    JsonValue v;
    v.type = JsonValue::kBool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }
  JsonValue parseNull() {
    if (s_.compare(pos_, 4, "null") != 0) fail("bad literal");
    pos_ += 4;
    return {};
  }
  bool lookingAt(char c) const { return pos_ < s_.size() && s_[pos_] == c; }
  bool lookingAtDigit() const {
    return pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]));
  }
  /// Consumes a run of digits; returns how many.
  std::size_t digits() {
    const std::size_t from = pos_;
    while (lookingAtDigit()) ++pos_;
    return pos_ - from;
  }
  /// The JSON number grammar: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  JsonValue parseNumber() {
    const std::size_t start = pos_;
    if (lookingAt('-')) ++pos_;
    if (lookingAt('0')) {
      ++pos_;
      if (lookingAtDigit()) fail("bad number: leading zero");
    } else if (digits() == 0) {
      fail("bad number");
    }
    if (lookingAt('.')) {
      ++pos_;
      if (digits() == 0) fail("bad number: no digits after '.'");
    }
    if (lookingAt('e') || lookingAt('E')) {
      ++pos_;
      if (lookingAt('+') || lookingAt('-')) ++pos_;
      if (digits() == 0) fail("bad number: no exponent digits");
    }
    JsonValue v;
    v.type = JsonValue::kNumber;
    v.number = std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr);
    if (!std::isfinite(v.number)) {
      pos_ = start;
      fail("number out of range");
    }
    return v;
  }

  std::string s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace adres::json
