// Stable 64-bit hashing for configuration keys and packet trace ids.
//
// Campaign cells and checkpoint records are keyed by hashes of config
// structs; these helpers are fixed-width, endian-independent arithmetic
// (SplitMix64 finalizer based), so a hash written into a checkpoint on one
// machine matches the hash recomputed on any other — unlike std::hash,
// which is implementation-defined.  hex64/parseHex64 are the one encoding
// of such 64-bit values in the repo's JSON artefacts (a double would round
// them).
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "common/check.hpp"
#include "common/types.hpp"

namespace adres {

/// SplitMix64 finalizer: the avalanche mix used for seeding and hashing.
constexpr u64 mix64(u64 x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// Folds `v` into hash `h` (order-sensitive).
constexpr u64 hashCombine(u64 h, u64 v) {
  return mix64(h ^ (v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2)));
}

/// The IEEE-754 bit pattern of a double, with -0.0 canonicalized to +0.0 so
/// equal values always hash equally.
inline u64 doubleBits(double d) {
  return std::bit_cast<u64>(d == 0.0 ? 0.0 : d);
}

/// Deterministic, collision-resistant per-packet trace id (SplitMix64 over
/// job id and submitter tag; never 0).
constexpr u64 packetTraceId(u64 jobId, u32 tag) {
  const u64 id = hashCombine(mix64(jobId + 1), tag);
  return id ? id : 1;
}

/// 16 lowercase hex digits: checkpoint keys, spec hashes, trace ids.
inline std::string hex64(u64 v) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4)
    out[static_cast<std::size_t>(i)] = kHex[v & 0xf];
  return out;
}

/// Inverse of hex64: exactly 16 lowercase hex digits, anything else throws
/// SimError naming the text.
inline u64 parseHex64(const std::string& s) {
  ADRES_CHECK(s.size() == 16, "'" << s << "' is not 16 hex digits");
  u64 v = 0;
  for (const char c : s) {
    const bool digit = c >= '0' && c <= '9';
    ADRES_CHECK(digit || (c >= 'a' && c <= 'f'),
                "bad hex digit in '" << s << '\'');
    v = v << 4 | static_cast<u64>(digit ? c - '0' : c - 'a' + 10);
  }
  return v;
}

}  // namespace adres
