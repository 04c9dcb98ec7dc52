#include <gtest/gtest.h>

#include <sstream>

#include "core/check.h"
#include "core/cli.h"
#include "core/stopwatch.h"
#include "core/table.h"

namespace fdet::core {
namespace {

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(FDET_CHECK(1 + 1 == 2) << "never evaluated");
}

TEST(Check, FailingConditionThrowsWithMessage) {
  try {
    FDET_CHECK(false) << "context " << 42;
    FAIL() << "expected CheckError";
  } catch (const CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("context 42"), std::string::npos);
    EXPECT_NE(what.find("false"), std::string::npos);
  }
}

TEST(Stopwatch, MeasuresNonNegativeMonotonicTime) {
  Stopwatch sw;
  const double t0 = sw.elapsed_seconds();
  const double t1 = sw.elapsed_seconds();
  EXPECT_GE(t0, 0.0);
  EXPECT_GE(t1, t0);
}

TEST(Stopwatch, IsBackedByASteadyClock) {
  // Recorded bench samples feed the regression gate; a wall-clock-backed
  // stopwatch would corrupt them on NTP steps. The static_assert in
  // stopwatch.h enforces this at compile time — here we pin the runtime
  // behavior: reset() restarts from zero and time never runs backwards
  // across many rapid readings.
  Stopwatch sw;
  double last = sw.elapsed_seconds();
  for (int i = 0; i < 1000; ++i) {
    const double now = sw.elapsed_seconds();
    ASSERT_GE(now, last);
    last = now;
  }
  sw.reset();
  EXPECT_LE(sw.elapsed_seconds(), last + 1.0);
}

TEST(Cli, ParsesTypedFlagsInBothForms) {
  Cli cli("test");
  int frames = 8;
  double scale = 1.25;
  bool verbose = false;
  std::string name = "default";
  cli.flag("frames", frames, "");
  cli.flag("scale", scale, "");
  cli.flag("verbose", verbose, "");
  cli.flag("name", name, "");

  const char* argv[] = {"test", "--frames=16", "--scale", "2.5",
                        "--verbose", "--name=abc"};
  ASSERT_TRUE(cli.parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(frames, 16);
  EXPECT_DOUBLE_EQ(scale, 2.5);
  EXPECT_TRUE(verbose);
  EXPECT_EQ(name, "abc");
}

TEST(Cli, RejectsUnknownFlag) {
  Cli cli("test");
  const char* argv[] = {"test", "--nope=1"};
  EXPECT_FALSE(cli.parse(2, const_cast<char**>(argv)));
}

TEST(Cli, RejectsMalformedValue) {
  Cli cli("test");
  int frames = 8;
  cli.flag("frames", frames, "");
  const char* argv[] = {"test", "--frames=abc"};
  EXPECT_FALSE(cli.parse(2, const_cast<char**>(argv)));
}

TEST(Cli, NumberParsersTakeWholeTokensOnly) {
  int i = 7;
  double d = 7.0;
  EXPECT_TRUE(parse_int("-12", i));
  EXPECT_EQ(i, -12);
  EXPECT_TRUE(parse_double("0.05", d));
  EXPECT_DOUBLE_EQ(d, 0.05);
  EXPECT_TRUE(parse_double("1e-3", d));
  EXPECT_DOUBLE_EQ(d, 1e-3);
  for (const char* text : {"", "4junk", "1e3", " 4", "4 ", "+4", "2.9"}) {
    EXPECT_FALSE(parse_int(text, i)) << "'" << text << "'";
  }
  for (const char* text :
       {"", "0.05z", " 0.05", "0.05 ", "+1", "0x1p3", "2+1", "1e400"}) {
    EXPECT_FALSE(parse_double(text, d)) << "'" << text << "'";
  }
  // A rejected token leaves the output as it was.
  EXPECT_EQ(i, -12);
  EXPECT_DOUBLE_EQ(d, 1e-3);
}

TEST(Cli, IgnoresBenchmarkFlags) {
  Cli cli("test");
  const char* argv[] = {"test", "--benchmark_filter=all"};
  EXPECT_TRUE(cli.parse(2, const_cast<char**>(argv)));
}

TEST(Cli, UnknownFlagDiagnosticNamesTokenAndSuggestsClosest) {
  Cli cli("test");
  int frames = 8;
  double scale = 1.25;
  cli.flag("frames", frames, "");
  cli.flag("scale", scale, "");
  const char* argv[] = {"test", "--frmaes=16"};
  ASSERT_FALSE(cli.parse(2, const_cast<char**>(argv)));
  EXPECT_NE(cli.last_error().find("--frmaes"), std::string::npos);
  EXPECT_NE(cli.last_error().find("did you mean '--frames'"),
            std::string::npos);
}

TEST(Cli, UnknownFlagWithoutACloseMatchOffersNoSuggestion) {
  Cli cli("test");
  int frames = 8;
  cli.flag("frames", frames, "");
  const char* argv[] = {"test", "--quux=1"};
  ASSERT_FALSE(cli.parse(2, const_cast<char**>(argv)));
  EXPECT_NE(cli.last_error().find("--quux"), std::string::npos);
  EXPECT_EQ(cli.last_error().find("did you mean"), std::string::npos);
}

TEST(Cli, BadValueDiagnosticNamesTokenAndExpectedType) {
  Cli cli("test");
  int frames = 8;
  cli.flag("frames", frames, "");
  const char* argv[] = {"test", "--frames=abc"};
  ASSERT_FALSE(cli.parse(2, const_cast<char**>(argv)));
  EXPECT_NE(cli.last_error().find("'abc'"), std::string::npos);
  EXPECT_NE(cli.last_error().find("expected int"), std::string::npos);
  EXPECT_EQ(frames, 8);  // value untouched on failure
}

TEST(Cli, MissingValueDiagnosticShowsBothAcceptedForms) {
  Cli cli("test");
  double scale = 1.25;
  cli.flag("scale", scale, "");
  const char* argv[] = {"test", "--scale"};
  ASSERT_FALSE(cli.parse(2, const_cast<char**>(argv)));
  EXPECT_NE(cli.last_error().find("needs a double value"), std::string::npos);
  EXPECT_NE(cli.last_error().find("--scale=<double>"), std::string::npos);
  // A flag followed by another flag is also a missing value, not a value.
  const char* argv2[] = {"test", "--scale", "--other"};
  ASSERT_FALSE(cli.parse(3, const_cast<char**>(argv2)));
  EXPECT_NE(cli.last_error().find("needs a double value"), std::string::npos);
}

TEST(Cli, LastErrorClearsOnASubsequentSuccessfulParse) {
  Cli cli("test");
  int frames = 8;
  cli.flag("frames", frames, "");
  const char* bad[] = {"test", "--frames=abc"};
  ASSERT_FALSE(cli.parse(2, const_cast<char**>(bad)));
  EXPECT_FALSE(cli.last_error().empty());
  const char* good[] = {"test", "--frames=12"};
  ASSERT_TRUE(cli.parse(2, const_cast<char**>(good)));
  EXPECT_TRUE(cli.last_error().empty());
  EXPECT_EQ(frames, 12);
}

TEST(Cli, PositionalArgumentDiagnosticNamesTheToken) {
  Cli cli("test");
  const char* argv[] = {"test", "stray"};
  ASSERT_FALSE(cli.parse(2, const_cast<char**>(argv)));
  EXPECT_NE(cli.last_error().find("'stray'"), std::string::npos);
}

TEST(Table, PrintsAlignedColumns) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1.00"});
  table.add_row({"b", "22.50"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22.50"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), CheckError);
}

TEST(Table, MarkdownRenderingEscapesPipes) {
  Table table({"metric", "value"});
  table.add_row({"a|b", "1.5"});
  std::ostringstream out;
  table.print_markdown(out);
  EXPECT_EQ(out.str(), "| metric | value |\n|---|---|\n| a\\|b | 1.5 |\n");
}

TEST(Table, NumFormatsFixedDigits) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

}  // namespace
}  // namespace fdet::core
