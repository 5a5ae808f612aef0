// The shared bench CLI parser (bench/bench_args.hpp): strict-by-
// construction argument handling — unknown flags (single- or double-dash),
// non-numeric values for numeric bindings and excess positionals all fail
// loudly with parseError() set, while valid spellings (--flag value,
// --flag=value, negative numeric positionals) bind as declared.  A typo'd
// sweep axis must never silently benchmark the defaults.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_args.hpp"

namespace adres::bench {
namespace {

/// argv adapter: parse("a", "b") == `prog a b`.
bool parseTokens(Args& args, std::vector<std::string> tokens) {
  std::vector<std::string> storage;
  storage.push_back("prog");
  for (std::string& t : tokens) storage.push_back(std::move(t));
  std::vector<char*> argv;
  argv.reserve(storage.size());
  for (std::string& s : storage) argv.push_back(s.data());
  return args.parse(static_cast<int>(argv.size()), argv.data());
}

struct Declared {
  int packets = 24;
  double rate = 1.5;
  std::string path = "out.json";
  int port = -1;
  double miss = 0.05;
  std::string tier = "native";
  bool verbose = false;
  Args args{"prog", "test"};

  Declared() {
    args.positional("packets", "h", &packets);
    args.positional("rate", "h", &rate);
    args.positional("path", "h", &path);
    args.flag("port", "PORT", "h", &port);
    args.flag("miss", "RATE", "h", &miss);
    args.flag("tier", "NAME", "h", &tier);
    args.flag("verbose", "h", &verbose);
  }
};

TEST(BenchArgs, BindsPositionalsAndFlagsInBothSpellings) {
  Declared d;
  EXPECT_TRUE(parseTokens(
      d.args, {"48", "2.5", "x.json", "--port", "9090", "--miss=0.01",
               "--tier", "reference", "--verbose"}));
  EXPECT_FALSE(d.args.parseError());
  EXPECT_EQ(d.packets, 48);
  EXPECT_DOUBLE_EQ(d.rate, 2.5);
  EXPECT_EQ(d.path, "x.json");
  EXPECT_EQ(d.port, 9090);
  EXPECT_DOUBLE_EQ(d.miss, 0.01);
  EXPECT_EQ(d.tier, "reference");
  EXPECT_TRUE(d.verbose);
}

TEST(BenchArgs, OmittedArgumentsKeepTheirDefaults) {
  Declared d;
  EXPECT_TRUE(parseTokens(d.args, {}));
  EXPECT_EQ(d.packets, 24);
  EXPECT_DOUBLE_EQ(d.rate, 1.5);
  EXPECT_EQ(d.port, -1);
  EXPECT_FALSE(d.verbose);
}

TEST(BenchArgs, UnknownDoubleDashFlagFailsLoudly) {
  Declared d;
  EXPECT_FALSE(parseTokens(d.args, {"--prot", "9090"}));
  EXPECT_TRUE(d.args.parseError()) << "callers must exit 1, not run anyway";
}

TEST(BenchArgs, SingleDashTokenIsAFlagTypoNotAPositional) {
  Declared d;
  EXPECT_FALSE(parseTokens(d.args, {"-port", "9090"}));
  EXPECT_TRUE(d.args.parseError());
}

TEST(BenchArgs, NegativeNumbersStillBindAsPositionals) {
  Declared d;
  EXPECT_TRUE(parseTokens(d.args, {"-3", "-2.5"}));
  EXPECT_EQ(d.packets, -3);
  EXPECT_DOUBLE_EQ(d.rate, -2.5);
}

TEST(BenchArgs, NonNumericValueForNumericBindingFails) {
  {
    Declared d;
    EXPECT_FALSE(parseTokens(d.args, {"lots"}));  // int positional
    EXPECT_TRUE(d.args.parseError());
  }
  {
    Declared d;
    EXPECT_FALSE(parseTokens(d.args, {"24", "fast"}));  // double positional
    EXPECT_TRUE(d.args.parseError());
  }
  {
    Declared d;
    EXPECT_FALSE(parseTokens(d.args, {"--port", "ephemeral"}));
    EXPECT_TRUE(d.args.parseError());
  }
  {
    Declared d;
    EXPECT_FALSE(parseTokens(d.args, {"--port", "80x"}));  // trailing junk
    EXPECT_TRUE(d.args.parseError());
  }
  // Out of an int's range (4294967298 used to wrap to 2) and non-finite
  // doubles (nan used to switch the sentinel off) fail too.
  for (const char* bad :
       {"4294967298", "-2147483649", "99999999999999999999"}) {
    Declared d;
    EXPECT_FALSE(parseTokens(d.args, {bad})) << bad;
    EXPECT_TRUE(d.args.parseError()) << bad;
    EXPECT_EQ(d.packets, 24) << bad;
  }
  for (const char* bad : {"nan", "inf", "-inf", "1e999", "-1e999"}) {
    Declared d;
    EXPECT_FALSE(parseTokens(d.args, {"--miss", bad})) << bad;
    EXPECT_TRUE(d.args.parseError()) << bad;
    EXPECT_EQ(d.miss, 0.05) << bad;
  }
}

TEST(BenchArgs, SweepAxesFollowTheWholeTokenRule) {
  std::vector<double> d;
  std::vector<int> n;
  std::string bad;
  ASSERT_TRUE(parseAxis("10:4:30", d, bad));
  EXPECT_EQ(d, (std::vector<double>{10, 14, 18, 22, 26, 30}));
  ASSERT_TRUE(parseAxis("1,-2.5,,3e1", d, bad));
  EXPECT_EQ(d, (std::vector<double>{1, -2.5, 30}));
  ASSERT_TRUE(parseAxis("2:2:6", n, bad));
  EXPECT_EQ(n, (std::vector<int>{2, 4, 6}));
  // Each bad axis names its offending token ("abc" used to run a 0 dB
  // cell, "1x" one tap, "1e999" a cfoinf cell).
  const std::pair<const char*, const char*> badDoubles[] = {
      {"abc", "abc"},     {"10,abc", "abc"},   {"1e999", "1e999"},
      {"nan", "nan"},     {"10:4", "10:4"},    {"10:0:30", "10:0:30"},
      {"0:x:1", "0:x:1"}, {"0:1e-9:1", "0:1e-9:1"}};
  for (const auto& [axis, token] : badDoubles) {
    bad.clear();
    EXPECT_FALSE(parseAxis(axis, d, bad)) << axis;
    EXPECT_EQ(bad, token) << axis;
  }
  for (const char* axis : {"1x", "1.5", "4294967298"}) {
    bad.clear();
    EXPECT_FALSE(parseAxis(axis, n, bad)) << axis;
    EXPECT_EQ(bad, axis);
  }
}

TEST(BenchArgs, MissingFlagValueAndExcessPositionalsFail) {
  {
    Declared d;
    EXPECT_FALSE(parseTokens(d.args, {"--port"}));
    EXPECT_TRUE(d.args.parseError());
  }
  {
    Declared d;
    EXPECT_FALSE(parseTokens(d.args, {"1", "2", "a", "extra"}));
    EXPECT_TRUE(d.args.parseError());
  }
}

TEST(BenchArgs, HelpReturnsFalseWithoutError) {
  Declared d;
  EXPECT_FALSE(parseTokens(d.args, {"--help"}));
  EXPECT_FALSE(d.args.parseError()) << "--help exits 0";
}

TEST(BenchArgs, DashAloneRemainsAValidStringPositional) {
  // The benches' "skip the JSON dump" convention: a bare '-' must keep
  // binding as a positional value, not trip the flag-typo check.
  Declared d;
  EXPECT_TRUE(parseTokens(d.args, {"24", "1.5", "-"}));
  EXPECT_EQ(d.path, "-");
}

TEST(BenchArgs, PairedMedianOverheadAlternatesSidesAndTakesTheMedian) {
  // Scripted host costs: every off run costs 100; the on runs cost 103,
  // 180 (a slow spell), 104, 50 and 102.  Per-pair overheads are then
  // +3, +80, +4, -50, +2: the median (+3) ignores both outliers.
  const std::vector<double> onCosts = {103, 180, 104, 50, 102};
  std::string order;
  std::size_t next = 0;
  const double pct = pairedMedianOverheadPct(
      5,
      [&] {
        order += 'f';
        return 100.0;
      },
      [&] {
        order += 'n';
        return onCosts[next++];
      });
  EXPECT_DOUBLE_EQ(pct, 3.0);
  EXPECT_EQ(order, "fnnffnnffn") << "the side that runs first alternates";
}

}  // namespace
}  // namespace adres::bench
