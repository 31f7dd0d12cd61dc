// NFA compilation and Pike-VM simulation for the pattern subset in
// pattern.hpp.
//
// The engine is a classic Thompson construction executed by a
// thread-list (Pike) virtual machine: worst-case O(|text| * |program|)
// with zero backtracking, so hostile or degenerate log content cannot
// blow up tagging time. Bounded repetitions are expanded at compile
// time (bounds are capped at kMaxRepeat).
//
// The compiled program (match/prog.hpp) is exposed read-only so that
// match::MultiRegex can relocate many Regex programs into one combined
// automaton and match them all in a single pass (see multiregex.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "match/pattern.hpp"
#include "match/prog.hpp"
#include "match/scratch.hpp"

namespace wss::match {

/// A compiled, immutable regular expression.
///
/// Thread-compatibility: `search`/`match` are const. The overloads
/// without a scratch argument use a thread_local PikeScratch; the
/// scratch-taking overloads are for callers that manage reuse
/// explicitly (the tag engine's hot path). Either way a single Regex
/// may be shared across threads.
class Regex {
 public:
  /// Compiles `pattern`; throws PatternError on invalid syntax.
  explicit Regex(std::string_view pattern, ParseOptions opts = {});

  /// True if the pattern matches anywhere in `text` (unanchored unless
  /// the pattern itself uses ^/$). `use_prefilter` = false skips the
  /// required-literal fast path (exposed for the tagging ablation
  /// bench; results are identical).
  bool search(std::string_view text, bool use_prefilter = true) const;

  /// Same, with caller-owned scratch (no per-call allocation).
  bool search(std::string_view text, PikeScratch& scratch,
              bool use_prefilter = true) const;

  /// True if the pattern matches the whole of `text`.
  bool full_match(std::string_view text) const;

  /// The pattern string this Regex was compiled from.
  const std::string& pattern() const { return pattern_; }

  /// A literal every match must contain ("" if none could be proven).
  /// Callers use this as a fast pre-filter: if the text does not
  /// contain the literal, search() cannot succeed.
  const std::string& prefilter_literal() const { return literal_; }

  /// True if the pattern is exactly prefilter_literal() (see
  /// match::literal_only): search() succeeds iff the text contains it.
  bool literal_only() const { return literal_only_; }

  /// Number of compiled instructions (for tests and diagnostics).
  std::size_t program_size() const { return prog_.size(); }

  /// The compiled program: read-only, for MultiRegex relocation.
  const Prog& prog() const { return prog_; }

 private:
  /// Core simulation. If `anchored_start`, threads start only at
  /// position 0; if `require_end`, kMatch is accepted only once the
  /// whole text is consumed.
  bool run(std::string_view text, bool anchored_start, bool require_end,
           PikeScratch& scratch) const;

  std::uint32_t emit(Inst inst);
  std::uint32_t compile_node(const Node& n);

  std::string pattern_;
  std::string literal_;
  bool literal_only_ = false;
  Prog prog_;
};

}  // namespace wss::match
