#include "match/nfa.hpp"

namespace wss::match {

Regex::Regex(std::string_view pattern, ParseOptions opts)
    : pattern_(pattern) {
  const auto ast = parse(pattern, opts);
  compile_node(*ast);
  emit(Inst{Op::kMatch, 0, 0, CharClass{}});
  literal_ = required_literal(pattern, opts);
  literal_only_ = match::literal_only(pattern, opts);
}

std::uint32_t Regex::emit(Inst inst) {
  prog_.push_back(std::move(inst));
  return static_cast<std::uint32_t>(prog_.size() - 1);
}

std::uint32_t Regex::compile_node(const Node& n) {
  const auto start = static_cast<std::uint32_t>(prog_.size());
  switch (n.kind) {
    case NodeKind::kEmpty:
      break;
    case NodeKind::kClass:
      emit(Inst{Op::kClass, 0, 0, n.cls});
      break;
    case NodeKind::kConcat:
      for (const auto& child : n.children) compile_node(*child);
      break;
    case NodeKind::kAlt: {
      std::vector<std::uint32_t> jumps;
      for (std::size_t i = 0; i + 1 < n.children.size(); ++i) {
        const std::uint32_t s = emit(Inst{Op::kSplit, 0, 0, CharClass{}});
        prog_[s].x = static_cast<std::uint32_t>(prog_.size());
        compile_node(*n.children[i]);
        jumps.push_back(emit(Inst{Op::kJump, 0, 0, CharClass{}}));
        prog_[s].y = static_cast<std::uint32_t>(prog_.size());
      }
      compile_node(*n.children.back());
      for (const std::uint32_t j : jumps) {
        prog_[j].x = static_cast<std::uint32_t>(prog_.size());
      }
      break;
    }
    case NodeKind::kRepeat: {
      const Node& body = *n.children.front();
      for (int i = 0; i < n.min; ++i) compile_node(body);
      if (n.max < 0) {
        // Unbounded tail: body* .
        const std::uint32_t s = emit(Inst{Op::kSplit, 0, 0, CharClass{}});
        prog_[s].x = static_cast<std::uint32_t>(prog_.size());
        compile_node(body);
        const std::uint32_t j = emit(Inst{Op::kJump, s, 0, CharClass{}});
        (void)j;
        prog_[s].y = static_cast<std::uint32_t>(prog_.size());
      } else {
        // (max - min) optional copies; skipping any copy skips them all.
        std::vector<std::uint32_t> splits;
        for (int i = n.min; i < n.max; ++i) {
          const std::uint32_t s = emit(Inst{Op::kSplit, 0, 0, CharClass{}});
          prog_[s].x = static_cast<std::uint32_t>(prog_.size());
          compile_node(body);
          splits.push_back(s);
        }
        for (const std::uint32_t s : splits) {
          prog_[s].y = static_cast<std::uint32_t>(prog_.size());
        }
      }
      break;
    }
    case NodeKind::kAnchorBegin:
      emit(Inst{Op::kBegin, 0, 0, CharClass{}});
      break;
    case NodeKind::kAnchorEnd:
      emit(Inst{Op::kEnd, 0, 0, CharClass{}});
      break;
    case NodeKind::kWordBoundary:
      emit(Inst{Op::kWordB, static_cast<std::uint32_t>(n.min), 0,
                CharClass{}});
      break;
  }
  return start;
}

bool Regex::run(std::string_view text, bool anchored_start, bool require_end,
                PikeScratch& scratch) const {
  // Thread lists hold program counters of kClass instructions waiting
  // to consume the next byte. `mark` dedups threads per generation.
  scratch.prepare(prog_.size());
  std::vector<std::uint32_t>& clist = scratch.clist;
  std::vector<std::uint32_t>& nlist = scratch.nlist;
  std::vector<std::uint32_t>& stack = scratch.stack;
  std::vector<std::uint32_t>& mark = scratch.mark;
  clist.clear();
  nlist.clear();

  std::uint32_t gen = scratch.next_gen();
  const auto add = [&](std::uint32_t pc0, std::size_t pos,
                       std::vector<std::uint32_t>& list) -> bool {
    stack.clear();
    stack.push_back(pc0);
    while (!stack.empty()) {
      const std::uint32_t pc = stack.back();
      stack.pop_back();
      if (mark[pc] == gen) continue;
      mark[pc] = gen;
      const Inst& in = prog_[pc];
      switch (in.op) {
        case Op::kClass:
          list.push_back(pc);
          break;
        case Op::kSplit:
          stack.push_back(in.y);
          stack.push_back(in.x);
          break;
        case Op::kJump:
          stack.push_back(in.x);
          break;
        case Op::kBegin:
          if (pos == 0) stack.push_back(pc + 1);
          break;
        case Op::kEnd:
          if (pos == text.size()) stack.push_back(pc + 1);
          break;
        case Op::kWordB: {
          const bool before = pos > 0 && is_word_byte(text[pos - 1]);
          const bool after = pos < text.size() && is_word_byte(text[pos]);
          const bool at_boundary = before != after;
          if (at_boundary == (in.x == 0)) stack.push_back(pc + 1);
          break;
        }
        case Op::kMatch:
          if (!require_end || pos == text.size()) return true;
          break;
      }
    }
    return false;
  };

  for (std::size_t pos = 0;; ++pos) {
    if (pos == 0 || !anchored_start) {
      if (add(0, pos, clist)) return true;
    }
    if (pos == text.size()) break;
    if (clist.empty() && anchored_start) break;  // no live threads remain
    const auto c = static_cast<unsigned char>(text[pos]);
    nlist.clear();
    gen = scratch.next_gen();
    for (const std::uint32_t pc : clist) {
      if (prog_[pc].cls.contains(c)) {
        if (add(pc + 1, pos + 1, nlist)) return true;
      }
    }
    clist.swap(nlist);
  }
  return false;
}

namespace {
PikeScratch& thread_local_pike_scratch() {
  thread_local PikeScratch scratch;
  return scratch;
}
}  // namespace

bool Regex::search(std::string_view text, PikeScratch& scratch,
                   bool use_prefilter) const {
  if (use_prefilter && !literal_.empty() &&
      text.find(literal_) == std::string_view::npos) {
    return false;
  }
  return run(text, /*anchored_start=*/false, /*require_end=*/false, scratch);
}

bool Regex::search(std::string_view text, bool use_prefilter) const {
  return search(text, thread_local_pike_scratch(), use_prefilter);
}

bool Regex::full_match(std::string_view text) const {
  return run(text, /*anchored_start=*/true, /*require_end=*/true,
             thread_local_pike_scratch());
}

}  // namespace wss::match
