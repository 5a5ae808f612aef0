// common/json_min fails closed: bounded nesting, the JSON number grammar,
// and every malformed input reported as a std::runtime_error that names its
// byte offset (checkpoint resume and postmortem replay parse with it).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/json_escape.hpp"
#include "common/json_min.hpp"

namespace adres::json {
namespace {

/// The runtime_error message parsing `text` throws ("" if it parses).
std::string parseError(const std::string& text) {
  try {
    (void)JsonParser(text).parse();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(JsonMin, DeepNestingFailsWithAnOffsetInsteadOfOverflowingTheStack) {
  const std::string err = parseError(std::string(2'000'000, '['));
  EXPECT_NE(err.find("nesting deeper than"), std::string::npos) << err;
  EXPECT_NE(err.find("offset"), std::string::npos) << err;
  // Nesting up to the limit still parses.
  const int d = JsonParser::kMaxDepth;
  EXPECT_EQ(parseError(std::string(d, '[') + std::string(d, ']')), "");
}

TEST(JsonMin, ANumberEndsWhereItsGrammarEnds) {
  EXPECT_NE(parseError("[1-2]"), "") << "[1-2] must not parse as [1]";
  EXPECT_NE(parseError("[1+2]"), "");
}

TEST(JsonMin, LeadingZerosAndBareDecimalPointsAreRejected) {
  EXPECT_NE(parseError("[01]").find("offset"), std::string::npos);
  EXPECT_NE(parseError("[1.]").find("offset"), std::string::npos);
  EXPECT_NE(parseError("[.5]").find("offset"), std::string::npos);
  EXPECT_NE(parseError("[1e]").find("offset"), std::string::npos);
}

TEST(JsonMin, MalformedAndOverflowingNumbersThrowRuntimeErrorWithOffset) {
  EXPECT_THROW((void)JsonParser("[-]").parse(), std::runtime_error);
  EXPECT_THROW((void)JsonParser("[1e999]").parse(), std::runtime_error);
  EXPECT_EQ(parseError("[1e999]"),
            "JSON error at offset 1: number out of range");
}

TEST(JsonMin, GrammaticalNumbersStillParse) {
  const JsonValue v =
      JsonParser("[0, -0, 12, -3.25, 1e3, 2.5E-2, 7e+1, 1e-400]").parse();
  ASSERT_EQ(v.array.size(), 8u);
  EXPECT_EQ(v.array[2].number, 12.0);
  EXPECT_EQ(v.array[3].number, -3.25);
  EXPECT_EQ(v.array[4].number, 1000.0);
  EXPECT_EQ(v.array[5].number, 0.025);
  EXPECT_EQ(v.array[6].number, 70.0);
  EXPECT_EQ(v.array[7].number, 0.0) << "underflow reads as zero";
}

TEST(JsonMin, EscapedControlCharactersRoundTrip) {
  const std::string raw = std::string("a\nb\tc\rd\x01") + "\"\\";
  const JsonValue v = JsonParser("\"" + escape(raw) + "\"").parse();
  EXPECT_EQ(v.str, raw);
}

}  // namespace
}  // namespace adres::json
