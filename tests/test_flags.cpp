#include <gtest/gtest.h>

#include <iostream>
#include <sstream>

#include "common/assert.hpp"
#include "common/flags.hpp"

namespace tahoe {
namespace {

Flags make_flags() {
  Flags f;
  f.define_int("count", 4, "how many");
  f.define_double("ratio", 0.5, "a ratio");
  f.define_bool("verbose", false, "chatty");
  f.define_string("name", "cg", "workload");
  return f;
}

std::vector<std::string> parse(Flags& f, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return f.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, DefaultsWhenUnset) {
  Flags f = make_flags();
  parse(f, {});
  EXPECT_EQ(f.get_int("count"), 4);
  EXPECT_DOUBLE_EQ(f.get_double("ratio"), 0.5);
  EXPECT_FALSE(f.get_bool("verbose"));
  EXPECT_EQ(f.get_string("name"), "cg");
}

TEST(Flags, EqualsSyntax) {
  Flags f = make_flags();
  parse(f, {"--count=9", "--ratio=1.25", "--name=ft", "--verbose=true"});
  EXPECT_EQ(f.get_int("count"), 9);
  EXPECT_DOUBLE_EQ(f.get_double("ratio"), 1.25);
  EXPECT_TRUE(f.get_bool("verbose"));
  EXPECT_EQ(f.get_string("name"), "ft");
}

TEST(Flags, SpaceSyntaxAndBareBool) {
  Flags f = make_flags();
  parse(f, {"--count", "7", "--verbose"});
  EXPECT_EQ(f.get_int("count"), 7);
  EXPECT_TRUE(f.get_bool("verbose"));
}

TEST(Flags, BoolTwoTokenForm) {
  // --flag false / --flag true consume the token instead of silently
  // treating it as a positional while the flag flips to true.
  Flags f = make_flags();
  const auto pos = parse(f, {"--verbose", "false"});
  EXPECT_FALSE(f.get_bool("verbose"));
  EXPECT_TRUE(pos.empty());

  Flags g = make_flags();
  const auto pos2 = parse(g, {"--verbose", "true", "tail"});
  EXPECT_TRUE(g.get_bool("verbose"));
  ASSERT_EQ(pos2.size(), 1u);
  EXPECT_EQ(pos2[0], "tail");
}

TEST(Flags, BareBoolDoesNotEatNonBoolToken) {
  // Only a literal true/false is consumed; anything else stays positional
  // and the bare flag still means true.
  Flags f = make_flags();
  const auto pos = parse(f, {"--verbose", "maybe"});
  EXPECT_TRUE(f.get_bool("verbose"));
  ASSERT_EQ(pos.size(), 1u);
  EXPECT_EQ(pos[0], "maybe");
}

TEST(Flags, NegativeValuesBothForms) {
  Flags f = make_flags();
  parse(f, {"--count=-7", "--ratio=-0.25"});
  EXPECT_EQ(f.get_int("count"), -7);
  EXPECT_DOUBLE_EQ(f.get_double("ratio"), -0.25);

  Flags g = make_flags();
  parse(g, {"--count", "-9", "--ratio", "-1.5"});
  EXPECT_EQ(g.get_int("count"), -9);
  EXPECT_DOUBLE_EQ(g.get_double("ratio"), -1.5);
}

TEST(Flags, OverflowRejected) {
  // strtoll/strtod clamp on ERANGE; the parser must refuse instead of
  // silently clamping.
  Flags f = make_flags();
  EXPECT_THROW(parse(f, {"--count=99999999999999999999"}), ContractError);
  Flags g = make_flags();
  EXPECT_THROW(parse(g, {"--count=-99999999999999999999"}), ContractError);
  Flags h = make_flags();
  EXPECT_THROW(parse(h, {"--ratio=1e999"}), ContractError);
  Flags k = make_flags();
  EXPECT_THROW(parse(k, {"--ratio=-1e999"}), ContractError);
  try {
    Flags m = make_flags();
    parse(m, {"--count=99999999999999999999"});
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("expects an integer"),
              std::string::npos);
  }
  // Boundary values still parse.
  Flags n = make_flags();
  parse(n, {"--count=9223372036854775807"});
  EXPECT_EQ(n.get_int("count"), INT64_MAX);
}

TEST(Flags, UnsignedGetterRejectsNegativeAndOversizedValues) {
  // Count and size flags are read through get_uint: a negative value must
  // not wrap around to a huge count, and a value past the caller's bound
  // (a thread count above UINT32_MAX, MiB whose bytes overflow) must not
  // be narrowed or scaled into garbage. The error names the flag.
  Flags f = make_flags();
  parse(f, {"--count=-1"});
  EXPECT_EQ(f.get_int("count"), -1);  // seeds may still be negative
  try {
    (void)f.get_uint("count");
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("--count"), std::string::npos);
  }
  Flags g = make_flags();
  parse(g, {"--count=4294967296"});
  EXPECT_THROW((void)g.get_uint("count", UINT32_MAX), ContractError);
  EXPECT_EQ(g.get_uint("count"), 4294967296u);
  Flags h = make_flags();
  parse(h, {"--count", "4294967295"});
  EXPECT_EQ(h.get_uint("count", UINT32_MAX), UINT32_MAX);
  Flags k = make_flags();
  parse(k, {"--count=17592186044416"});  // 2^44 MiB is 2^64 bytes
  EXPECT_THROW((void)k.get_uint("count", UINT64_MAX / (1u << 20)),
               ContractError);
  Flags m = make_flags();
  parse(m, {"--count=0"});
  EXPECT_EQ(m.get_uint("count"), 0u);
  EXPECT_THROW((void)m.get_uint("ratio"), ContractError);  // not an int
}

TEST(Flags, TinyDoubleUnderflowAccepted) {
  // Underflow (ERANGE with a finite result) is benign, unlike overflow.
  Flags f = make_flags();
  parse(f, {"--ratio=1e-400"});
  EXPECT_GE(f.get_double("ratio"), 0.0);
  EXPECT_LT(f.get_double("ratio"), 1e-300);
}

TEST(Flags, BareDoubleDashRejected) {
  Flags f = make_flags();
  EXPECT_THROW(parse(f, {"--"}), ContractError);
  Flags g = make_flags();
  EXPECT_THROW(parse(g, {"--=3"}), ContractError);
  try {
    Flags h = make_flags();
    parse(h, {"--"});
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("bare '--'"), std::string::npos);
  }
}

TEST(Flags, EmptyValueAfterEquals) {
  Flags f = make_flags();
  EXPECT_THROW(parse(f, {"--count="}), ContractError);
  Flags g = make_flags();
  EXPECT_THROW(parse(g, {"--verbose="}), ContractError);
  Flags h = make_flags();
  parse(h, {"--name="});  // empty string is a legitimate string value
  EXPECT_EQ(h.get_string("name"), "");
}

TEST(Flags, PositionalArgsReturned) {
  Flags f = make_flags();
  const auto pos = parse(f, {"alpha", "--count=2", "beta"});
  ASSERT_EQ(pos.size(), 2u);
  EXPECT_EQ(pos[0], "alpha");
  EXPECT_EQ(pos[1], "beta");
}

TEST(Flags, UnknownFlagFailsLoudly) {
  Flags f = make_flags();
  EXPECT_THROW(parse(f, {"--notaflag=1"}), ContractError);
}

TEST(Flags, BadValuesRejected) {
  Flags f = make_flags();
  EXPECT_THROW(parse(f, {"--count=notanint"}), ContractError);
  Flags g = make_flags();
  EXPECT_THROW(parse(g, {"--ratio=NaNope"}), ContractError);
  Flags h = make_flags();
  EXPECT_THROW(parse(h, {"--verbose=maybe"}), ContractError);
}

TEST(Flags, MissingValueRejected) {
  Flags f = make_flags();
  EXPECT_THROW(parse(f, {"--count"}), ContractError);
}

TEST(Flags, TypeMismatchOnGet) {
  Flags f = make_flags();
  parse(f, {});
  EXPECT_THROW(f.get_int("ratio"), ContractError);
  EXPECT_THROW(f.get_double("nope"), ContractError);
}

TEST(Flags, UsageListsEverything) {
  Flags f = make_flags();
  const std::string u = f.usage("bench");
  EXPECT_NE(u.find("--count"), std::string::npos);
  EXPECT_NE(u.find("--ratio"), std::string::npos);
  EXPECT_NE(u.find("bench"), std::string::npos);
}

TEST(FlagError, BadCommandLinesAreFlagErrors) {
  for (const std::vector<const char*>& argv :
       std::vector<std::vector<const char*>>{{"--no-such-flag"},
                                             {"--"},
                                             {"--count"},
                                             {"--count=x"},
                                             {"--ratio=y"},
                                             {"--verbose=maybe"}}) {
    Flags f = make_flags();
    EXPECT_THROW(parse(f, argv), FlagError) << argv[0];
  }
  Flags g = make_flags();
  parse(g, {"--count=-1"});
  try {
    (void)g.get_uint("count");
    FAIL() << "expected FlagError";
  } catch (const FlagError& e) {
    EXPECT_FALSE(e.help());
    EXPECT_NE(e.usage().find("usage: prog"), std::string::npos);
  }
}

TEST(FlagError, MisusedDefinitionsAreNotFlagErrors) {
  // A getter for an undefined or differently typed flag is a bug in the
  // binary, not a bad command line: the guard must let it through.
  Flags f = make_flags();
  parse(f, {});
  bool flag_error = false;
  try {
    (void)f.get_int("ratio");
  } catch (const FlagError&) {
    flag_error = true;
  } catch (const ContractError&) {
  }
  EXPECT_FALSE(flag_error);
}

TEST(FlagError, HelpIsARequestNotAFailure) {
  Flags f = make_flags();
  try {
    parse(f, {"--count=3", "--help"});
    FAIL() << "expected --help to end the parse";
  } catch (const FlagError& e) {
    EXPECT_TRUE(e.help());
    EXPECT_NE(e.usage().find("--count"), std::string::npos);
  }
  // A binary that defines its own --help keeps it.
  Flags g = make_flags();
  g.define_bool("help", false, "own help");
  parse(g, {"--help"});
  EXPECT_TRUE(g.get_bool("help"));
}

TEST(FlagError, GuardExitCodes) {
  std::ostringstream out;
  std::ostringstream err;
  std::streambuf* const old_out = std::cout.rdbuf(out.rdbuf());
  std::streambuf* const old_err = std::cerr.rdbuf(err.rdbuf());
  const int help = flag_error_exit("/bin/tool", FlagError("--help", "U\n", true));
  const int bad = flag_error_exit("/bin/tool", FlagError("unknown flag --x", "U\n"));
  std::cout.rdbuf(old_out);
  std::cerr.rdbuf(old_err);
  EXPECT_EQ(help, 0);
  EXPECT_EQ(bad, 2);
  EXPECT_EQ(out.str(), "U\n");
  EXPECT_EQ(err.str(), "tool: unknown flag --x\nU\n");
}

}  // namespace
}  // namespace tahoe
