// The one JSON string escaper every writer in the repo uses.  Quote and
// backslash are backslash-escaped, line feed and tab take their short
// forms, and every other control character becomes \u00XX, so any byte
// string survives a round trip through a JSON parser (common/json_min.hpp
// included) instead of losing its control characters.  Beside it,
// fmtDouble is the one exact rendering of doubles in the byte-identical
// artefacts (campaign checkpoints, adres.cell.v1 summaries).
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace adres::json {

inline std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
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
  return out;
}

/// `%.17g`: the shortest fixed-width form that round-trips every double.
inline std::string fmtDouble(double d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  return buf;
}

}  // namespace adres::json
