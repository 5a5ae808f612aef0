// The whole-token rule for numbers read from text (command lines, sweep
// axes, the SLO grammar): a typo fails instead of reading as a prefix.
#pragma once

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <string>

namespace adres {

/// The whole-token rule for a double: the entire token parses and the
/// value is finite (no "nan", "inf" or overflowing "1e999").
inline bool parseNumber(const std::string& tok, double& out) {
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0' || !std::isfinite(v)) return false;
  out = v;
  return true;
}

/// The whole-token rule for an int: the entire token is a decimal integer
/// within int's range.
inline bool parseInt(const std::string& tok, int& out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(tok.c_str(), &end, 10);
  if (end == tok.c_str() || *end != '\0' || errno == ERANGE || v < INT_MIN ||
      v > INT_MAX)
    return false;
  out = static_cast<int>(v);
  return true;
}

}  // namespace adres
