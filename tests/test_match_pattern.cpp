// Pattern parsing internals: CharClass, required_literal,
// literal_only, escape_literal.
#include "match/pattern.hpp"

#include <gtest/gtest.h>

#include "match/nfa.hpp"

namespace wss::match {
namespace {

TEST(CharClass, AddAndContains) {
  CharClass c;
  EXPECT_FALSE(c.contains('a'));
  c.add('a');
  EXPECT_TRUE(c.contains('a'));
  c.add_range('0', '9');
  EXPECT_TRUE(c.contains('5'));
  EXPECT_FALSE(c.contains('b'));
}

TEST(CharClass, Negate) {
  CharClass c;
  c.add('x');
  c.negate();
  EXPECT_FALSE(c.contains('x'));
  EXPECT_TRUE(c.contains('y'));
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(255));
}

TEST(CharClass, Singleton) {
  CharClass c;
  c.add('q');
  EXPECT_EQ(c.singleton(), 'q');
  c.add('r');
  EXPECT_EQ(c.singleton(), -1);
  CharClass empty;
  EXPECT_EQ(empty.singleton(), -1);
}

TEST(Pattern, ParseProducesAst) {
  const auto ast = parse("a(b|c)*d");
  ASSERT_NE(ast, nullptr);
  EXPECT_EQ(ast->kind, NodeKind::kConcat);
  ASSERT_EQ(ast->children.size(), 3u);
  EXPECT_EQ(ast->children[0]->kind, NodeKind::kClass);
  EXPECT_EQ(ast->children[1]->kind, NodeKind::kRepeat);
  EXPECT_EQ(ast->children[1]->children[0]->kind, NodeKind::kAlt);
}

TEST(Pattern, RequiredLiteralBasics) {
  EXPECT_EQ(required_literal("data TLB error interrupt"),
            "data TLB error interrupt");
  EXPECT_EQ(required_literal("task_check, cannot tm_reply"),
            "task_check, cannot tm_reply");
  EXPECT_EQ(required_literal("\\(111\\) in open_demux"),
            "(111) in open_demux");
}

TEST(Pattern, RequiredLiteralWithMetachars) {
  // The run is interrupted by the class but the longest side wins.
  EXPECT_EQ(required_literal("ab[0-9]longer_part"), "longer_part");
  // A plus on a single char contributes its first copy.
  EXPECT_EQ(required_literal("erro+r"), "erro");
  // {2} of a char is not a contiguous guarantee beyond one copy
  // (implementation is conservative); result must be a substring of
  // every matching text.
  const std::string lit = required_literal("xy{2}z");
  EXPECT_TRUE(lit == "xy" || lit == "x");
}

TEST(Pattern, RequiredLiteralAnchorsTransparent) {
  EXPECT_EQ(required_literal("^kernel panic$"), "kernel panic");
}

TEST(Pattern, RequiredLiteralCaseInsensitiveEmpty) {
  ParseOptions opts;
  opts.case_insensitive = true;
  EXPECT_EQ(required_literal("Fatal", opts), "");
}

TEST(Pattern, LiteralOnlyTable) {
  // A literal-only pattern is decided by a substring scan alone, so
  // every construct that makes a match more (or less) than "contains
  // the literal" must disqualify it.
  const struct {
    std::string pattern;
    bool literal_only;
  } cases[] = {
      {"data TLB error interrupt", true},
      {"rts panic! - stopping execution", true},
      {"Connection refused \\(111\\) in open_demux", true},
      {escape_literal("z+ input"), true},
      {"^kernel panic$", false},
      {"\\bpanic\\b", false},
      {"erro+r", false},
      {"xy{2}z", false},
      {"a|b", false},
      {"gm_parity\\.c:.*parity_int", false},
      {"[0-9]", false},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(literal_only(c.pattern), c.literal_only) << c.pattern;
    EXPECT_EQ(Regex(c.pattern).literal_only(), c.literal_only) << c.pattern;
  }
  ParseOptions nocase;
  nocase.case_insensitive = true;
  for (const auto& c : cases) {
    EXPECT_FALSE(literal_only(c.pattern, nocase)) << c.pattern;
    EXPECT_FALSE(Regex(c.pattern, nocase).literal_only()) << c.pattern;
  }
}

TEST(Pattern, LiteralOnlyMeansContainsLiteral) {
  const Regex re("rts panic! - stopping execution");
  ASSERT_TRUE(re.literal_only());
  EXPECT_EQ(re.prefilter_literal(), "rts panic! - stopping execution");
  for (const std::string text :
       {"x rts panic! - stopping execution", "rts panic!",
        "rts panic! - stopping execution\n tail", ""}) {
    EXPECT_EQ(re.search(text),
              text.find(re.prefilter_literal()) != std::string::npos)
        << text;
  }
}

TEST(Pattern, EscapeLiteralRoundTrip) {
  const std::string bodies[] = {
      "total of 1 ddr error(s) detected and corrected",
      "torus receiver z+ input pipe error",
      "a.b*c?d{2}e|f[g]h(i)j^k$l\\m",
      "plain text",
  };
  for (const auto& body : bodies) {
    const std::string escaped = escape_literal(body);
    Regex re(escaped);
    EXPECT_TRUE(re.search(body)) << body;
    EXPECT_TRUE(re.full_match(body)) << body;
  }
}

TEST(Pattern, EscapeLiteralDefeatsMetaSemantics) {
  // Unescaped, "z+" would match "z"; escaped it must not.
  Regex re(escape_literal("z+ input"));
  EXPECT_FALSE(re.search("z input"));
  EXPECT_TRUE(re.search("torus z+ input pipe"));
}

TEST(Pattern, RepeatBoundExpansion) {
  // Program size stays sane for nested bounded repeats.
  Regex re("(ab){1,3}c");
  EXPECT_TRUE(re.search("ababc"));
  EXPECT_FALSE(re.full_match("c"));
  EXPECT_LT(re.program_size(), 64u);
}

}  // namespace
}  // namespace wss::match
