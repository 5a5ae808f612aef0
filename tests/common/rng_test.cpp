#include "common/rng.hpp"

#include <cmath>
#include <string>

#include "common/check.hpp"
#include "common/hash.hpp"

#include <gtest/gtest.h>

namespace adres {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, UniformInRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(r.below(17), 17u);
  }
}

TEST(Rng, ForkIsDeterministic) {
  Rng a(42), b(42);
  Rng fa = a.fork(7), fb = b.fork(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(fa.next(), fb.next());
}

TEST(Rng, ForkIsDrawIndependent) {
  // fork() derives from the construction seed, not the current state: the
  // campaign engine relies on forked streams being identical no matter how
  // many draws the parent made first.
  Rng fresh(42);
  Rng drained(42);
  for (int i = 0; i < 1000; ++i) (void)drained.next();
  Rng a = fresh.fork(3), b = drained.fork(3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ForkLabelsSeparateStreams) {
  Rng parent(42);
  Rng f1 = parent.fork(1), f2 = parent.fork(2);
  EXPECT_NE(f1.next(), f2.next());
  // A fork must not replay the parent's own stream either.
  Rng p2(42);
  EXPECT_NE(p2.fork(0).next(), p2.next());
}

TEST(Rng, GaussianMoments) {
  Rng r(5);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = r.gaussian();
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

// Packet trace ids and the hex64 encoding of 64-bit ids (common/hash.hpp).

TEST(TraceId, DeterministicNonZeroAndInputSensitive) {
  EXPECT_EQ(packetTraceId(7, 3), packetTraceId(7, 3));
  EXPECT_NE(packetTraceId(7, 3), packetTraceId(8, 3)) << "job id mixed in";
  EXPECT_NE(packetTraceId(7, 3), packetTraceId(7, 4)) << "tag mixed in";
  // Never 0, even for the all-zero input (0 is "no trace id").
  EXPECT_NE(packetTraceId(0, 0), 0u);
  for (u64 j = 0; j < 64; ++j) EXPECT_NE(packetTraceId(j, 0), 0u) << j;
}

TEST(TraceId, HexIs16LowercaseDigits) {
  EXPECT_EQ(hex64(0), "0000000000000000");
  EXPECT_EQ(hex64(0xabc), "0000000000000abc");
  EXPECT_EQ(hex64(~0ull), "ffffffffffffffff");
  EXPECT_EQ(hex64(0x0123456789abcdefull), "0123456789abcdef");
  const std::string h = hex64(packetTraceId(42, 1));
  ASSERT_EQ(h.size(), 16u);
  for (const char c : h)
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
}

TEST(Hex64, ParseInvertsHex64AndRejectsEverythingElse) {
  for (const u64 v : {u64{0}, u64{0xabc}, ~u64{0}, u64{0x0123456789abcdef},
                      packetTraceId(42, 1)})
    EXPECT_EQ(parseHex64(hex64(v)), v);
  // The checkpoint key a stoull read as a different key ("…zz" stopped the
  // parse early), short and long forms, and non-canonical spellings.
  for (const char* bad : {"0123456789abcdzz", "abc", "", "0123456789abcdef0",
                          "0123456789ABCDEF", " 123456789abcdef",
                          "-123456789abcdef"})
    EXPECT_THROW(parseHex64(bad), SimError) << bad;
}

}  // namespace
}  // namespace adres
