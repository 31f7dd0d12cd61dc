#include "tag/engine.hpp"

#include <gtest/gtest.h>

#include "sim/generator.hpp"
#include "tag/evaluate.hpp"
#include "tag/rulesets.hpp"
#include "tag/severity_tagger.hpp"

namespace wss::tag {
namespace {

using parse::SystemId;

TEST(TagEngine, FirstMatchWins) {
  // Build a tiny rule set with overlapping patterns.
  std::vector<Rule> rules(2);
  rules[0].category = "SPECIFIC";
  rules[0].predicate.add_term(0, "disk error on sda");
  rules[1].category = "GENERIC";
  rules[1].predicate.add_term(0, "disk error");
  const RuleSet rs(SystemId::kLiberty, std::move(rules));
  const TagEngine engine(rs);
  const auto hit = engine.tag_line("kernel: disk error on sda5");
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->category, 0);
  const auto generic = engine.tag_line("kernel: disk error on hdb");
  ASSERT_TRUE(generic);
  EXPECT_EQ(generic->category, 1);
}

TEST(TagEngine, NoMatchReturnsNullopt) {
  const TagEngine engine(build_ruleset(SystemId::kLiberty));
  EXPECT_FALSE(engine.tag_line("Jun  3 10:00:00 ln1 sshd[1]: session opened"));
  EXPECT_FALSE(engine.tag_line(""));
}

TEST(TagEngine, TagsParsedRecordViaRaw) {
  const TagEngine engine(build_ruleset(SystemId::kLiberty));
  parse::LogRecord rec;
  rec.raw = "Jun  3 10:00:00 ln1 pbs_mom[9]: task_check, cannot tm_reply to "
            "1.ladmin1 task 1";
  const auto hit = engine.tag(rec);
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->type, filter::AlertType::kSoftware);
}

TEST(TagEngine, CorruptedTailStillTagsWhenPatternIntact) {
  // Truncation after the matched substring (the common real case).
  const TagEngine engine(build_ruleset(SystemId::kThunderbird));
  EXPECT_TRUE(engine.tag_line(
      "kernel: [KERNEL_IB][ib_sm_sweep.c:1455]Fatal error (Local "
      "Catastrophic Error"));
  // Truncation inside the pattern loses the alert -- a documented
  // failure mode of automated tagging (Section 3.2.1).
  EXPECT_FALSE(engine.tag_line("kernel: [KERNEL_IB][ib_sm_sweep.c:1455]Fat"));
}

TEST(TagEngine, ModeFromEnvDefaultsToMulti) {
  EXPECT_EQ(TagEngine::mode_from_env(), TagEngineMode::kMulti);
  const TagEngine engine(build_ruleset(SystemId::kLiberty));
  EXPECT_EQ(engine.mode(), TagEngineMode::kMulti);
}

TEST(TagEngine, NegatedTermsDoNotGateCandidacy) {
  // A negated term is SATISFIED when its pattern is absent -- so its
  // required literal must not be demanded by the prefilter. Rule:
  // /disk error/ && !/recovered/.
  std::vector<Rule> rules(1);
  rules[0].category = "DISK";
  rules[0].predicate.add_term(0, "disk error");
  rules[0].predicate.add_term(0, "recovered", /*negated=*/true);
  const RuleSet rs(SystemId::kLiberty, std::move(rules));
  for (const auto mode : {TagEngineMode::kNaive, TagEngineMode::kPrefilter,
                          TagEngineMode::kMulti}) {
    const TagEngine engine(RuleSet(rs), mode);
    // "recovered" absent: the negated conjunct holds, the rule fires.
    EXPECT_TRUE(engine.tag_line("kernel: disk error on sda"))
        << static_cast<int>(mode);
    // "recovered" present: the negated conjunct fails.
    EXPECT_FALSE(engine.tag_line("kernel: disk error on sda recovered"))
        << static_cast<int>(mode);
    EXPECT_FALSE(engine.tag_line("kernel: all quiet"))
        << static_cast<int>(mode);
  }
}

TEST(TagEngine, NegatedFieldTerms) {
  // Field terms ride the direct evaluation path in every mode.
  std::vector<Rule> rules(1);
  rules[0].category = "FIELDNEG";
  rules[0].predicate.add_term(0, "panic");
  rules[0].predicate.add_term(2, "APP", /*negated=*/true);
  const RuleSet rs(SystemId::kLiberty, std::move(rules));
  for (const auto mode : {TagEngineMode::kNaive, TagEngineMode::kPrefilter,
                          TagEngineMode::kMulti}) {
    const TagEngine engine(RuleSet(rs), mode);
    EXPECT_TRUE(engine.tag_line("x KERNEL panic now")) << static_cast<int>(mode);
    EXPECT_FALSE(engine.tag_line("x APP panic now")) << static_cast<int>(mode);
  }
}

TEST(TagEngine, ModesAreBitIdenticalOnAllSystems) {
  // The load-bearing equivalence: naive / prefilter / multi must agree
  // on every rendered line of every system -- category AND type, not
  // just hit/miss (first-match-wins ordering is part of the contract).
  sim::SimOptions opts;
  opts.category_cap = 300;
  opts.chatter_events = 2000;
  for (const auto id : parse::kAllSystems) {
    const sim::Simulator simulator(id, opts);
    const TagEngine naive(build_ruleset(id), TagEngineMode::kNaive);
    const TagEngine prefilter(build_ruleset(id), TagEngineMode::kPrefilter);
    const TagEngine multi(build_ruleset(id), TagEngineMode::kMulti);
    match::MatchScratch s_naive, s_prefilter, s_multi;
    std::size_t hits = 0;
    for (std::size_t i = 0; i < simulator.events().size(); ++i) {
      const std::string line = simulator.line(i);
      const auto a = naive.tag_line(line, s_naive);
      const auto b = prefilter.tag_line(line, s_prefilter);
      const auto c = multi.tag_line(line, s_multi);
      ASSERT_EQ(a.has_value(), b.has_value()) << line;
      ASSERT_EQ(a.has_value(), c.has_value()) << line;
      if (a) {
        ++hits;
        ASSERT_EQ(a->category, b->category) << line;
        ASSERT_EQ(a->category, c->category) << line;
        ASSERT_EQ(a->type, c->type) << line;
      }
    }
    EXPECT_GT(hits, 0u) << parse::system_name(id);
  }
}

TEST(TagEngine, CorruptedLinesAgreeAcrossModes) {
  // Corruption injection mangles sources, timestamps, and bodies --
  // exactly the text shapes where a prefilter could diverge.
  sim::SimOptions opts;
  opts.category_cap = 300;
  opts.chatter_events = 2000;
  opts.inject_corruption = true;
  const sim::Simulator simulator(SystemId::kSpirit, opts);
  const TagEngine naive(build_ruleset(SystemId::kSpirit),
                        TagEngineMode::kNaive);
  const TagEngine multi(build_ruleset(SystemId::kSpirit),
                        TagEngineMode::kMulti);
  match::MatchScratch s_naive, s_multi;
  for (std::size_t i = 0; i < simulator.events().size(); ++i) {
    const std::string line = simulator.line(i);
    const auto a = naive.tag_line(line, s_naive);
    const auto c = multi.tag_line(line, s_multi);
    ASSERT_EQ(a.has_value(), c.has_value()) << line;
    if (a) {
      ASSERT_EQ(a->category, c->category) << line;
    }
  }
}

TEST(TagEngine, LiteralDecidedTermsAgreeAcrossModes) {
  // Crafted to trip every way the literal-decided path could diverge
  // from the Pike VM: a non-literal rule ahead of a literal-only rule
  // with the same literal, an anchor, a negated literal, a field term.
  std::vector<Rule> rules(6);
  rules[0].category = "ANCHORED";
  rules[0].predicate.add_term(0, "^kernel panic");
  rules[1].category = "PANIC";
  rules[1].predicate.add_term(0, "kernel panic");
  rules[2].category = "DISK";
  rules[2].predicate.add_term(0, "disk error");
  rules[2].predicate.add_term(0, "recovered", /*negated=*/true);
  rules[3].category = "MCE";
  rules[3].predicate.add_term(0, "machine check");
  rules[3].predicate.add_term(2, "KERNEL");
  rules[4].category = "GM_PAR";
  rules[4].predicate.add_term(0, "gm_parity\\.c:.*parity_int");
  rules[5].category = "PARITY";
  rules[5].predicate.add_term(0, "parity_int");
  const RuleSet rs(SystemId::kLiberty, std::move(rules));
  const struct {
    std::string line;
    int category;  // -1: no rule matches
  } cases[] = {
      {"kernel panic: halted", 0},
      {"x kernel panic: halted", 1},
      {"kernel panic after disk error", 0},
      {"disk error on sda", 2},
      {"disk error on sda recovered", -1},
      {"cpu KERNEL machine check", 3},
      {"cpu APP machine check", -1},
      {"cpu machine check", -1},
      {"gm_parity.c:115:parity_int():firmware", 4},
      {"parity_int() then gm_parity.c:115", 5},
      {"oops kernel panicked, disk errors", 1},
      {"all quiet", -1},
      {"", -1},
  };
  for (const auto mode : {TagEngineMode::kNaive, TagEngineMode::kPrefilter,
                          TagEngineMode::kMulti}) {
    const TagEngine engine(RuleSet(rs), mode);
    match::MatchScratch scratch;
    for (const auto& c : cases) {
      const auto hit = engine.tag_line(c.line, scratch);
      ASSERT_EQ(hit.has_value(), c.category >= 0)
          << static_cast<int>(mode) << ": " << c.line;
      if (hit) {
        EXPECT_EQ(hit->category, c.category)
            << static_cast<int>(mode) << ": " << c.line;
      }
    }
  }
}

TEST(TagEngine, LiteralOnlyRulesSkipTheDfa) {
  // BG/L's rules are all literal-only (KPANIC's field term runs on the
  // field path), so no line should reach the lazy DFA.
  sim::SimOptions opts;
  opts.category_cap = 300;
  opts.chatter_events = 2000;
  const sim::Simulator simulator(SystemId::kBlueGeneL, opts);
  const TagEngine engine(build_ruleset(SystemId::kBlueGeneL), TagEngineMode::kMulti);
  match::MatchScratch scratch;
  for (std::size_t i = 0; i < simulator.events().size(); ++i) {
    engine.tag_line(simulator.line(i), scratch);
  }
  EXPECT_GT(scratch.tag_hits, 0u);
  EXPECT_EQ(scratch.dfa_scans, 0u);
  EXPECT_EQ(scratch.pike_fallback_scans, 0u);
}

TEST(TagEngine, NonLiteralRuleCostsOneDfaScan) {
  // Liberty's GM_PAR pattern has ".*" inside: a line that makes it a
  // candidate costs exactly one DFA scan; a literal-only hit costs none.
  const RuleSet rs = build_ruleset(SystemId::kLiberty);
  const TagEngine engine(rs, TagEngineMode::kMulti);
  match::MatchScratch scratch;
  const auto gm_par = engine.tag_line(
      "Jun  3 10:00:00 ln1 kernel: GM: LANAI[0]: PANIC: "
      "/usr/src/gm/firmware/gm_parity.c:115:parity_int():firmware",
      scratch);
  ASSERT_TRUE(gm_par);
  EXPECT_EQ(std::size_t{gm_par->category}, rs.index_of("GM_PAR"));
  EXPECT_EQ(scratch.dfa_scans, 1u);
  const auto pbs = engine.tag_line(
      "Jun  3 10:00:00 ln1 pbs_mom[9]: task_check, cannot tm_reply to "
      "1.ladmin1 task 1",
      scratch);
  ASSERT_TRUE(pbs);
  EXPECT_EQ(std::size_t{pbs->category}, rs.index_of("PBS_CHK"));
  EXPECT_EQ(scratch.dfa_scans, 1u);
}

TEST(SeverityTagger, BglBaseline) {
  const auto tagger = SeverityTagger::bgl_fatal_failure();
  parse::LogRecord rec;
  rec.severity = parse::Severity::kFatal;
  EXPECT_TRUE(tagger.is_alert(rec));
  rec.severity = parse::Severity::kFailure;
  EXPECT_TRUE(tagger.is_alert(rec));
  rec.severity = parse::Severity::kInfo;
  EXPECT_FALSE(tagger.is_alert(rec));
  rec.severity = parse::Severity::kSevere;
  EXPECT_FALSE(tagger.is_alert(rec));
}

TEST(TaggerEvaluation, RatesFromPaperNumbers) {
  // Table 5's arithmetic: tagging FATAL/FAILURE as alerts yields
  // TP = 348,460, FP = 855,501 + 1,714 - 348,460 = 508,755.
  TaggerEvaluation e;
  e.add(true, true, 348460);
  e.add(true, false, 508755);
  e.add(false, false, 3890748);
  EXPECT_NEAR(e.false_positive_rate(), 0.5934, 0.0005);
  EXPECT_DOUBLE_EQ(e.false_negative_rate(), 0.0);
  EXPECT_NEAR(e.precision(), 1.0 - 0.5934, 0.0005);
  EXPECT_DOUBLE_EQ(e.recall(), 1.0);
}

TEST(TaggerEvaluation, EmptyIsZero) {
  TaggerEvaluation e;
  EXPECT_EQ(e.false_positive_rate(), 0.0);
  EXPECT_EQ(e.false_negative_rate(), 0.0);
}

TEST(TaggerEvaluation, DescribeIncludesRates) {
  TaggerEvaluation e;
  e.add(true, true);
  e.add(true, false);
  const std::string d = e.describe();
  EXPECT_NE(d.find("FP rate 50.00%"), std::string::npos);
}

}  // namespace
}  // namespace wss::tag
