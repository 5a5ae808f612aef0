#include "cga/exec_tier.hpp"

#include <cstdlib>
#include <string>

#include "common/check.hpp"

namespace adres {

const char* execTierName(ExecTier t) {
  switch (t) {
    case ExecTier::kReference: return "reference";
    case ExecTier::kNative: return "native";
  }
  return "unknown";
}

ExecTier parseExecTier(std::string_view s) {
  if (s == "reference") return ExecTier::kReference;
  if (s == "native") return ExecTier::kNative;
  throw SimError("unknown exec tier '" + std::string(s) +
                 "' (expected reference or native)");
}

ExecTier defaultExecTier() {
  static const ExecTier tier = [] {
    if (const char* env = std::getenv("ADRES_EXEC_TIER"); env && *env)
      return parseExecTier(env);
    return ExecTier::kNative;
  }();
  return tier;
}

}  // namespace adres
