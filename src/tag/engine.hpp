// The tagging engine: runs a RuleSet over log records.
//
// This is the automated stand-in for the paper's "combination of
// regular expression matching and manual intervention" -- and the
// throughput wall of the whole study: the expert rules are applied to
// ~0.97 billion messages, so the engine matches *all* rules in one
// pass over the line instead of probing them one by one:
//
//   1. An Aho–Corasick scan over every rule's required literals
//      (match::LiteralScanner) yields the candidate-rule set; a rule
//      whose required literal is absent cannot match, and a chatter
//      line typically empties the whole set right here.
//   2. A whole-line term whose pattern is exactly its literal
//      (Regex::literal_only -- most expert rules are plain strings) is
//      decided by that scan alone. The remaining whole-line terms
//      (anchored, non-literal or negated) form ONE combined automaton
//      (match::MultiRegex); a line with a candidate rule that needs
//      one runs a single lazy-DFA pass, which decides them all at once.
//   3. Rules are resolved lowest-index-first (first match wins), with
//      awk-style field terms evaluated directly on the rare candidate.
//
// Decisions are bit-identical to the naive per-rule loop at every
// step -- the prefilter is a necessary-condition filter, a literal-only
// pattern matches iff its literal occurs, and the DFA is exactly
// equivalent to the Pike VM -- which the golden suite,
// tests/test_tag_engine.cpp and tests/test_match_multiregex_fuzz.cpp
// enforce. The naive and prefilter-only engines are kept behind
// TagEngineMode (env WSS_TAG_ENGINE=naive|prefilter|multi) for the
// ablation bench, bench/perf_tagging.cpp.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "match/literal_scanner.hpp"
#include "match/multiregex.hpp"
#include "match/scratch.hpp"
#include "parse/record.hpp"
#include "tag/rule.hpp"

namespace wss::tag {

/// Result of tagging one record.
struct TagResult {
  std::uint16_t category = 0;  ///< rule index within the RuleSet
  filter::AlertType type = filter::AlertType::kIndeterminate;
};

/// Which matching strategy the engine uses. All three make identical
/// decisions; they exist so the ablation bench can price each layer.
enum class TagEngineMode : std::uint8_t {
  kNaive,      ///< per-rule Pike-VM probes (the pre-set-matching path)
  kPrefilter,  ///< Aho–Corasick candidates, then per-rule Pike probes
  kMulti,      ///< candidates + literal-decided terms + one lazy-DFA
               ///< pass for the rest (default)
};

/// Immutable matcher over one system's RuleSet. Owns its rules (so a
/// temporary RuleSet may be passed safely); thread-compatible: tag()
/// is const and all per-line mutable state lives in the caller's
/// match::MatchScratch (the scratch-less overloads use a thread_local
/// one).
class TagEngine {
 public:
  explicit TagEngine(RuleSet rules)
      : TagEngine(std::move(rules), mode_from_env()) {}
  TagEngine(RuleSet rules, TagEngineMode mode);

  /// Tags a raw line; nullopt when no rule matches (a non-alert).
  /// First matching rule wins, matching the paper's "two alerts are in
  /// the same category if they were tagged by the same expert rule".
  std::optional<TagResult> tag_line(std::string_view raw_line,
                                    match::MatchScratch& scratch) const;
  std::optional<TagResult> tag_line(std::string_view raw_line) const;

  /// Convenience overloads on a parsed record (match on record.raw).
  std::optional<TagResult> tag(const parse::LogRecord& rec,
                               match::MatchScratch& scratch) const;
  std::optional<TagResult> tag(const parse::LogRecord& rec) const;

  const RuleSet& rules() const { return rules_; }
  TagEngineMode mode() const { return mode_; }

  /// Resolves WSS_TAG_ENGINE (naive | prefilter | multi); unset or
  /// unrecognized values mean kMulti. The escape hatch exists for the
  /// ablation bench and for bisecting perf regressions in production.
  static TagEngineMode mode_from_env();

  // ---- Diagnostics (tests and the bench) ----
  const match::LiteralScanner& literal_scanner() const { return *literals_; }
  const match::MultiRegex& multi() const { return *multi_; }

 private:
  /// One rule term, pre-resolved for the hot path.
  struct TermPlan {
    std::uint32_t pid = 0;  ///< pattern id in multi_ (DFA-decided terms)
    /// Literal id when the Aho–Corasick scan decides the term (a
    /// non-negated, whole-line, literal-only pattern); -1 otherwise.
    std::int32_t lit = -1;
    std::int32_t field = 0;
    bool negated = false;
    const match::Regex* re = nullptr;
  };
  struct RulePlan {
    std::vector<std::uint16_t> lits;  ///< literal ids that must all occur
    std::vector<TermPlan> terms;
    filter::AlertType type = filter::AlertType::kIndeterminate;
    bool never = false;  ///< empty predicate: matches nothing
    bool needs_dfa = false;  ///< some term is decided by multi_
  };

  /// Per-rule Pike-VM loop, optionally restricted to a candidate
  /// bitset (the naive and prefilter modes).
  std::optional<TagResult> tag_line_scan(std::string_view line,
                                         match::MatchScratch& scratch,
                                         const std::uint64_t* candidates) const;

  /// Computes (or fetches from the scratch's CandidateCache) the
  /// candidate-rule bitset for the current literal-found bitset.
  /// Returns a pointer valid until the scratch's next tag_line call;
  /// `any_candidate` reports whether the set is non-empty.
  const std::uint64_t* candidate_set(match::MatchScratch& scratch,
                                     bool& any_candidate) const;

  RuleSet rules_;
  TagEngineMode mode_;
  /// Unique per-engine id guarding scratch-resident caches (the
  /// dfa_owner pattern; an address could be reused after destruction).
  std::uint64_t instance_id_ = 0;
  std::vector<RulePlan> plans_;
  /// True if some rule has no provable literal (it is always a
  /// candidate, so a literal-free line cannot be rejected early).
  bool has_ungated_rule_ = false;
  /// Rule i's required-literal bitset, flattened at
  /// lit_masks_[i * lit_words_ ..): candidate iff found ⊇ mask.
  std::vector<std::uint64_t> lit_masks_;
  std::size_t lit_words_ = 0;
  /// Per-rule mask over multi_ pattern ids (the "interesting" set fed
  /// to the DFA for early exit); all-zero unless the rule needs_dfa.
  std::vector<std::vector<std::uint64_t>> rule_pids_;
  std::unique_ptr<match::LiteralScanner> literals_;
  std::unique_ptr<match::MultiRegex> multi_;
};

}  // namespace wss::tag
