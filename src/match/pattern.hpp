// Regular-expression pattern parsing.
//
// The expert alert-identification rules in the paper are logsurfer /
// awk style regexes: literals, character classes, alternation, the
// usual quantifiers, and anchors. We implement exactly that subset,
// from scratch, compiled to a non-backtracking NFA (see nfa.hpp), so
// matching is O(text * pattern) worst case with no pathological
// blowups -- important because the tag engine runs every rule over
// hundreds of millions of messages.
//
// Supported syntax:
//   literal characters         a b c ...
//   any                        .            (matches any byte except '\n')
//   classes                    [abc] [a-z0-9] [^...]
//   escapes                    \d \D \w \W \s \S \. \\ \/ \[ \] \( \) \n \t
//   groups                     ( ... )      (non-capturing)
//   alternation                a|b
//   quantifiers                * + ? {m} {m,} {m,n}   (greedy; semantics
//                              identical for boolean matching)
//   anchors                    ^ $ \b \B
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace wss::match {

/// Thrown when a pattern fails to parse or exceeds implementation
/// limits (e.g. a {m,n} bound above kMaxRepeat).
class PatternError : public std::runtime_error {
 public:
  explicit PatternError(const std::string& what) : std::runtime_error(what) {}
};

/// Maximum allowed bound in a {m,n} repetition.
inline constexpr int kMaxRepeat = 256;

/// A set of byte values, represented as a 256-bit bitmap.
class CharClass {
 public:
  CharClass() : bits_{} {}

  void add(unsigned char c) { bits_[c >> 6] |= 1ull << (c & 63); }
  void add_range(unsigned char lo, unsigned char hi);
  void negate();

  bool contains(unsigned char c) const {
    return (bits_[c >> 6] >> (c & 63)) & 1;
  }

  /// The lone byte in a single-element class, or -1.
  int singleton() const;

  friend bool operator==(const CharClass&, const CharClass&) = default;

 private:
  std::uint64_t bits_[4];
};

/// Pattern AST node kinds.
enum class NodeKind {
  kEmpty,    ///< matches the empty string
  kClass,    ///< one byte in `cls`
  kConcat,   ///< children in sequence
  kAlt,      ///< any one child
  kRepeat,   ///< child repeated min..max times (max = -1 for unbounded)
  kAnchorBegin,
  kAnchorEnd,
  kWordBoundary,  ///< \b (min == 0) or \B (min == 1)
};

/// One node of the parsed pattern AST.
struct Node {
  NodeKind kind = NodeKind::kEmpty;
  CharClass cls;                                // kClass
  std::vector<std::unique_ptr<Node>> children;  // kConcat, kAlt, kRepeat
  int min = 0;                                  // kRepeat
  int max = -1;                                 // kRepeat; -1 = unbounded
};

/// Parse options.
struct ParseOptions {
  bool case_insensitive = false;
};

/// Parses `pattern` into an AST. Throws PatternError on invalid input.
std::unique_ptr<Node> parse(std::string_view pattern,
                            const ParseOptions& opts = {});

/// Returns the longest literal byte string that every match of the
/// pattern must contain, or "" if none can be proven. The tag engine
/// uses this as a cheap memmem pre-filter before running the NFA.
std::string required_literal(std::string_view pattern,
                             const ParseOptions& opts = {});

/// True if the pattern is exactly its required literal: a non-empty
/// concatenation of single-byte classes with no anchors, no \b / \B,
/// no alternation, no repeat other than {1,1}, and not
/// case-insensitive. Such a pattern matches a text iff the text
/// contains required_literal(pattern), so a substring scan decides it
/// without running the automaton.
bool literal_only(std::string_view pattern, const ParseOptions& opts = {});

/// Escapes `text` so that, as a pattern, it matches `text` literally.
std::string escape_literal(std::string_view text);

}  // namespace wss::match
