#include "match/pattern.hpp"

namespace wss::match {

namespace {

bool is_ascii_alpha(unsigned char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

unsigned char ascii_lower(unsigned char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<unsigned char>(c - 'A' + 'a') : c;
}

unsigned char ascii_upper(unsigned char c) {
  return (c >= 'a' && c <= 'z') ? static_cast<unsigned char>(c - 'a' + 'A') : c;
}

/// Recursive-descent parser over the pattern bytes.
class Parser {
 public:
  Parser(std::string_view pattern, const ParseOptions& opts)
      : p_(pattern), opts_(opts) {}

  std::unique_ptr<Node> run() {
    auto node = parse_alt();
    if (pos_ != p_.size()) {
      fail("unexpected ')' or trailing input");
    }
    return node;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw PatternError("pattern error at offset " + std::to_string(pos_) +
                       ": " + msg);
  }

  bool eof() const { return pos_ >= p_.size(); }
  unsigned char peek() const { return static_cast<unsigned char>(p_[pos_]); }
  unsigned char take() { return static_cast<unsigned char>(p_[pos_++]); }

  std::unique_ptr<Node> make(NodeKind k) {
    auto n = std::make_unique<Node>();
    n->kind = k;
    return n;
  }

  std::unique_ptr<Node> make_class(const CharClass& cls) {
    auto n = make(NodeKind::kClass);
    n->cls = cls;
    return n;
  }

  void add_char(CharClass& cls, unsigned char c) const {
    if (opts_.case_insensitive && is_ascii_alpha(c)) {
      cls.add(ascii_lower(c));
      cls.add(ascii_upper(c));
    } else {
      cls.add(c);
    }
  }

  // alt := concat ('|' concat)*
  std::unique_ptr<Node> parse_alt() {
    auto first = parse_concat();
    if (eof() || peek() != '|') return first;
    auto alt = make(NodeKind::kAlt);
    alt->children.push_back(std::move(first));
    while (!eof() && peek() == '|') {
      take();
      alt->children.push_back(parse_concat());
    }
    return alt;
  }

  // concat := repeat*
  std::unique_ptr<Node> parse_concat() {
    auto cat = make(NodeKind::kConcat);
    while (!eof() && peek() != '|' && peek() != ')') {
      cat->children.push_back(parse_repeat());
    }
    if (cat->children.empty()) return make(NodeKind::kEmpty);
    if (cat->children.size() == 1) return std::move(cat->children.front());
    return cat;
  }

  // repeat := atom ('*' | '+' | '?' | '{m}' | '{m,}' | '{m,n}')?
  std::unique_ptr<Node> parse_repeat() {
    auto atom = parse_atom();
    if (eof()) return atom;
    const unsigned char c = peek();
    int min = -1;
    int max = -1;
    if (c == '*') {
      take();
      min = 0;
    } else if (c == '+') {
      take();
      min = 1;
    } else if (c == '?') {
      take();
      min = 0;
      max = 1;
    } else if (c == '{') {
      // Only treat as a bound if it parses; otherwise '{' is literal
      // (common in log rules, e.g. "cmd {0x...}").
      const std::size_t save = pos_;
      take();
      int m = parse_int();
      if (m >= 0 && !eof() && peek() == '}') {
        take();
        min = max = m;
      } else if (m >= 0 && !eof() && peek() == ',') {
        take();
        if (!eof() && peek() == '}') {
          take();
          min = m;
          max = -1;
        } else {
          int n = parse_int();
          if (n >= 0 && !eof() && peek() == '}') {
            take();
            min = m;
            max = n;
            if (max < min) fail("repetition bound {m,n} with n < m");
          } else {
            pos_ = save;
            return atom;
          }
        }
      } else {
        pos_ = save;
        return atom;
      }
    } else {
      return atom;
    }
    if (atom->kind == NodeKind::kAnchorBegin ||
        atom->kind == NodeKind::kAnchorEnd ||
        atom->kind == NodeKind::kWordBoundary) {
      fail("cannot repeat an anchor");
    }
    auto rep = make(NodeKind::kRepeat);
    rep->min = min;
    rep->max = max;
    rep->children.push_back(std::move(atom));
    return rep;
  }

  /// Parses a decimal integer bounded by kMaxRepeat; returns -1 when
  /// the next byte is not a digit.
  int parse_int() {
    if (eof() || peek() < '0' || peek() > '9') return -1;
    long v = 0;
    while (!eof() && peek() >= '0' && peek() <= '9') {
      v = v * 10 + (take() - '0');
      if (v > kMaxRepeat) fail("repetition bound too large");
    }
    return static_cast<int>(v);
  }

  // atom := '(' alt ')' | '[' class ']' | '.' | '^' | '$' | escape | char
  std::unique_ptr<Node> parse_atom() {
    if (eof()) fail("expected atom");
    const unsigned char c = take();
    switch (c) {
      case '(': {
        auto inner = parse_alt();
        if (eof() || take() != ')') fail("unterminated group");
        return inner;
      }
      case '[':
        return make_class(parse_class());
      case '.': {
        CharClass cls;
        cls.add('\n');
        cls.negate();  // any byte except newline
        return make_class(cls);
      }
      case '^':
        return make(NodeKind::kAnchorBegin);
      case '$':
        return make(NodeKind::kAnchorEnd);
      case '\\':
        if (!eof() && (peek() == 'b' || peek() == 'B')) {
          auto node = make(NodeKind::kWordBoundary);
          node->min = take() == 'B' ? 1 : 0;  // 1 = negated (\B)
          return node;
        }
        return make_class(parse_escape(/*in_class=*/false));
      case '*':
      case '+':
      case '?':
        fail("quantifier with nothing to repeat");
      case ')':
        fail("unmatched ')'");
      default: {
        CharClass cls;
        add_char(cls, c);
        return make_class(cls);
      }
    }
  }

  /// Parses the interior of a [...] class; the '[' has been consumed.
  CharClass parse_class() {
    CharClass cls;
    bool negated = false;
    if (!eof() && peek() == '^') {
      take();
      negated = true;
    }
    bool first = true;
    while (true) {
      if (eof()) fail("unterminated character class");
      unsigned char c = take();
      if (c == ']' && !first) break;
      first = false;
      if (c == '\\') {
        const CharClass esc = parse_escape(/*in_class=*/true);
        // Multi-char escape inside a class: union it in. Range syntax
        // with an escape endpoint is not supported (matches logsurfer).
        for (int b = 0; b < 256; ++b) {
          if (esc.contains(static_cast<unsigned char>(b))) {
            cls.add(static_cast<unsigned char>(b));
          }
        }
        continue;
      }
      if (!eof() && peek() == '-' && pos_ + 1 < p_.size() &&
          p_[pos_ + 1] != ']') {
        take();  // '-'
        const unsigned char hi = take();
        if (hi == '\\') fail("escape as range endpoint not supported");
        if (hi < c) fail("inverted range in character class");
        if (opts_.case_insensitive) {
          for (int b = c; b <= hi; ++b) {
            add_char(cls, static_cast<unsigned char>(b));
          }
        } else {
          cls.add_range(c, hi);
        }
      } else {
        add_char(cls, c);
      }
    }
    if (negated) cls.negate();
    return cls;
  }

  /// Parses an escape; the '\\' has been consumed.
  CharClass parse_escape(bool in_class) {
    if (eof()) fail("trailing backslash");
    const unsigned char c = take();
    CharClass cls;
    switch (c) {
      case 'd':
        cls.add_range('0', '9');
        return cls;
      case 'D':
        cls.add_range('0', '9');
        cls.negate();
        return cls;
      case 'w':
        cls.add_range('a', 'z');
        cls.add_range('A', 'Z');
        cls.add_range('0', '9');
        cls.add('_');
        return cls;
      case 'W':
        cls.add_range('a', 'z');
        cls.add_range('A', 'Z');
        cls.add_range('0', '9');
        cls.add('_');
        cls.negate();
        return cls;
      case 's':
        for (unsigned char ws : {' ', '\t', '\n', '\r', '\f', '\v'}) {
          cls.add(ws);
        }
        return cls;
      case 'S':
        for (unsigned char ws : {' ', '\t', '\n', '\r', '\f', '\v'}) {
          cls.add(ws);
        }
        cls.negate();
        return cls;
      case 'n':
        cls.add('\n');
        return cls;
      case 't':
        cls.add('\t');
        return cls;
      case 'r':
        cls.add('\r');
        return cls;
      default:
        // Escaped punctuation (and, defensively, anything else) is a
        // literal. '/' appears escaped in awk-style rules.
        (void)in_class;
        add_char(cls, c);
        return cls;
    }
  }

  std::string_view p_;
  ParseOptions opts_;
  std::size_t pos_ = 0;
};

/// Accumulates mandatory literal runs for required_literal().
class LiteralScan {
 public:
  void visit(const Node& n) {
    switch (n.kind) {
      case NodeKind::kEmpty:
        break;
      case NodeKind::kClass: {
        const int c = n.cls.singleton();
        if (c >= 0) {
          run_.push_back(static_cast<char>(c));
        } else {
          flush();
        }
        break;
      }
      case NodeKind::kConcat:
        for (const auto& child : n.children) visit(*child);
        break;
      case NodeKind::kAlt:
        // A branch is optional; nothing after this point in the run is
        // guaranteed. (We do not intersect branch literals.)
        flush();
        break;
      case NodeKind::kRepeat:
        if (n.min >= 1) {
          visit(*n.children.front());
          if (n.max != n.min || n.min != 1) flush();
        } else {
          flush();
        }
        break;
      case NodeKind::kAnchorBegin:
      case NodeKind::kAnchorEnd:
      case NodeKind::kWordBoundary:
        // Anchors are zero-width; they do not break text contiguity.
        break;
    }
  }

  std::string best() {
    flush();
    return best_;
  }

 private:
  void flush() {
    if (run_.size() > best_.size()) best_ = run_;
    run_.clear();
  }

  std::string run_;
  std::string best_;
};

/// True if `n` matches exactly one fixed, possibly empty, byte string.
bool fixed_string(const Node& n) {
  switch (n.kind) {
    case NodeKind::kEmpty:
      return true;
    case NodeKind::kClass:
      return n.cls.singleton() >= 0;
    case NodeKind::kConcat:
      for (const auto& child : n.children) {
        if (!fixed_string(*child)) return false;
      }
      return true;
    case NodeKind::kRepeat:
      return n.min == 1 && n.max == 1 && fixed_string(*n.children.front());
    default:
      return false;
  }
}

}  // namespace

void CharClass::add_range(unsigned char lo, unsigned char hi) {
  for (int c = lo; c <= hi; ++c) add(static_cast<unsigned char>(c));
}

void CharClass::negate() {
  for (auto& w : bits_) w = ~w;
}

int CharClass::singleton() const {
  int found = -1;
  for (int c = 0; c < 256; ++c) {
    if (contains(static_cast<unsigned char>(c))) {
      if (found >= 0) return -1;
      found = c;
    }
  }
  return found;
}

std::unique_ptr<Node> parse(std::string_view pattern, const ParseOptions& opts) {
  return Parser(pattern, opts).run();
}

std::string escape_literal(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '.':
      case '*':
      case '+':
      case '?':
      case '(':
      case ')':
      case '[':
      case ']':
      case '{':
      case '}':
      case '|':
      case '^':
      case '$':
      case '\\':
        out.push_back('\\');
        break;
      default:
        break;
    }
    out.push_back(c);
  }
  return out;
}

std::string required_literal(std::string_view pattern,
                             const ParseOptions& opts) {
  if (opts.case_insensitive) return "";  // letters are two-byte classes
  const auto ast = parse(pattern, opts);
  LiteralScan scan;
  scan.visit(*ast);
  return scan.best();
}

bool literal_only(std::string_view pattern, const ParseOptions& opts) {
  if (opts.case_insensitive) return false;
  const auto ast = parse(pattern, opts);
  if (!fixed_string(*ast)) return false;
  LiteralScan scan;
  scan.visit(*ast);
  return !scan.best().empty();
}

}  // namespace wss::match
