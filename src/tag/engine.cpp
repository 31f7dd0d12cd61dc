#include "tag/engine.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>

#include "util/strings.hpp"

namespace wss::tag {

namespace {

match::MatchScratch& thread_local_scratch() {
  thread_local match::MatchScratch scratch;
  return scratch;
}

std::uint64_t next_engine_instance_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

TagEngineMode TagEngine::mode_from_env() {
  const char* env = std::getenv("WSS_TAG_ENGINE");
  if (env == nullptr) return TagEngineMode::kMulti;
  if (std::strcmp(env, "naive") == 0) return TagEngineMode::kNaive;
  if (std::strcmp(env, "prefilter") == 0) return TagEngineMode::kPrefilter;
  return TagEngineMode::kMulti;
}

TagEngine::TagEngine(RuleSet rules, TagEngineMode mode)
    : rules_(std::move(rules)),
      mode_(mode),
      instance_id_(next_engine_instance_id()) {
  // Compile the rule plans: every non-negated term with a provable
  // required literal contributes to the Aho–Corasick prefilter, which
  // alone decides it if the pattern is literal-only; every other
  // whole-line term becomes a pattern of the combined set matcher. (A
  // negated term cannot gate candidacy: its conjunct is SATISFIED when
  // the pattern -- and hence its literal -- is absent.)
  std::vector<std::string> literals;
  std::map<std::string, std::uint16_t> literal_ids;
  std::vector<const match::Regex*> patterns;
  const auto& rule_list = rules_.rules();
  plans_.reserve(rule_list.size());
  for (const Rule& rule : rule_list) {
    RulePlan plan;
    plan.type = rule.type;
    plan.never = rule.predicate.empty();
    for (const match::Term& t : rule.predicate.terms()) {
      TermPlan tp;
      tp.field = t.field;
      tp.negated = t.negated;
      tp.re = t.re.get();
      if (!t.negated && !t.re->prefilter_literal().empty()) {
        const std::string& lit = t.re->prefilter_literal();
        const auto [it, inserted] = literal_ids.emplace(
            lit, static_cast<std::uint16_t>(literals.size()));
        if (inserted) literals.push_back(lit);
        plan.lits.push_back(it->second);
        if (t.field == 0 && t.re->literal_only()) tp.lit = it->second;
      }
      if (t.field == 0 && tp.lit < 0) {
        tp.pid = static_cast<std::uint32_t>(patterns.size());
        patterns.push_back(t.re.get());
        plan.needs_dfa = true;
      }
      plan.terms.push_back(tp);
    }
    plans_.push_back(std::move(plan));
  }
  literals_ = std::make_unique<match::LiteralScanner>(std::move(literals));
  multi_ = std::make_unique<match::MultiRegex>(std::move(patterns));
  for (const RulePlan& plan : plans_) {
    if (!plan.never && plan.lits.empty()) has_ungated_rule_ = true;
  }
  // Flatten each rule's required-literal set into one contiguous mask
  // row: the candidate test becomes sequential word ANDs over a flat
  // array instead of chasing per-rule id vectors.
  lit_words_ = literals_->bitset_words();
  lit_masks_.assign(plans_.size() * lit_words_, 0);
  for (std::size_t i = 0; i < plans_.size(); ++i) {
    for (const std::uint16_t lit : plans_[i].lits) {
      match::bitset_set(lit_masks_.data() + i * lit_words_, lit);
    }
  }

  const std::size_t pid_words = multi_->bitset_words();
  rule_pids_.resize(plans_.size());
  for (std::size_t i = 0; i < plans_.size(); ++i) {
    rule_pids_[i].assign(pid_words, 0);
    for (const TermPlan& t : plans_[i].terms) {
      if (t.field == 0 && t.lit < 0) {
        match::bitset_set(rule_pids_[i].data(), t.pid);
      }
    }
  }
}

std::optional<TagResult> TagEngine::tag_line_scan(
    std::string_view line, match::MatchScratch& scratch,
    const std::uint64_t* candidates) const {
  const auto& rule_list = rules_.rules();
  for (std::size_t i = 0; i < rule_list.size(); ++i) {
    if (candidates != nullptr && !match::bitset_test(candidates, i)) continue;
    if (rule_list[i].predicate.matches(line, scratch)) {
      return TagResult{static_cast<std::uint16_t>(i), rule_list[i].type};
    }
  }
  return std::nullopt;
}

const std::uint64_t* TagEngine::candidate_set(match::MatchScratch& scratch,
                                              bool& any_candidate) const {
  match::CandidateCache& cache = scratch.candidate_cache;
  if (cache.owner != instance_id_) {
    cache.owner = instance_id_;
    cache.entries.clear();
    cache.next_evict = 0;
  }
  // Linear probe: the cache is a handful of entries and the keys are a
  // few words, so this is cheaper than any hashing on the hit path.
  for (const match::CandidateCache::Entry& e : cache.entries) {
    if (e.key == scratch.found) {
      any_candidate = e.any;
      return e.candidates.data();
    }
  }

  const std::size_t rule_words = (plans_.size() + 63) / 64;
  match::bitset_clear(scratch.candidates, rule_words);
  any_candidate = false;
  for (std::size_t i = 0; i < plans_.size(); ++i) {
    if (plans_[i].never) continue;
    const std::uint64_t* mask = lit_masks_.data() + i * lit_words_;
    bool candidate = true;
    for (std::size_t w = 0; w < lit_words_; ++w) {
      candidate &= (scratch.found[w] & mask[w]) == mask[w];
    }
    if (candidate) {
      match::bitset_set(scratch.candidates.data(), i);
      any_candidate = true;
    }
  }

  if (cache.entries.size() < match::CandidateCache::kSlots) {
    cache.entries.push_back(
        {scratch.found, scratch.candidates, any_candidate});
    return cache.entries.back().candidates.data();
  }
  // Round-robin overwrite into same-sized vectors: no allocation once
  // the cache is warm, whatever the working set of combinations.
  match::CandidateCache::Entry& e = cache.entries[cache.next_evict];
  cache.next_evict =
      (cache.next_evict + 1) % match::CandidateCache::kSlots;
  e.key = scratch.found;
  e.candidates = scratch.candidates;
  e.any = any_candidate;
  return e.candidates.data();
}

std::optional<TagResult> TagEngine::tag_line(
    std::string_view line, match::MatchScratch& scratch) const {
  ++scratch.tag_lines;
  if (mode_ == TagEngineMode::kNaive) {
    const auto r = tag_line_scan(line, scratch, nullptr);
    if (r) ++scratch.tag_hits;
    return r;
  }

  // 1. One Aho–Corasick pass over the line: which required literals
  //    occur? From that, which rules are still candidates? The scan
  //    sizes/zeroes the bitset and reports "found any" itself, so the
  //    chatter rejection costs no extra pass over the words.
  const std::uint64_t found_any =
      literals_->scan_fresh(line, scratch.found);
  // Typical chatter contains no required literal at all; unless some
  // rule is ungated (no provable literal), such a line is decided by
  // the scan alone.
  if (found_any == 0 && !has_ungated_rule_) {
    ++scratch.prefilter_rejects;
    return std::nullopt;
  }
  bool any_candidate = false;
  const std::uint64_t* candidates = candidate_set(scratch, any_candidate);
  if (!any_candidate) {
    ++scratch.prefilter_rejects;
    return std::nullopt;  // the chatter fast path
  }

  if (mode_ == TagEngineMode::kPrefilter) {
    const auto r = tag_line_scan(line, scratch, candidates);
    if (r) ++scratch.tag_hits;
    return r;
  }

  // 2. One set-matching pass decides every whole-line term of every
  //    candidate rule that the literal scan could not; when no
  //    candidate has such a term, the line skips the pass.
  bool need_dfa = false;
  match::bitset_clear(scratch.interesting, multi_->bitset_words());
  for (std::size_t i = 0; i < plans_.size(); ++i) {
    if (!plans_[i].needs_dfa || !match::bitset_test(candidates, i)) continue;
    need_dfa = true;
    const auto& mask = rule_pids_[i];
    for (std::size_t w = 0; w < mask.size(); ++w) {
      scratch.interesting[w] |= mask[w];
    }
  }
  if (need_dfa) multi_->match_all(line, scratch, scratch.interesting.data());

  // 3. First match wins, by rule index -- identical to the naive loop.
  bool fields_ready = false;
  for (std::size_t i = 0; i < plans_.size(); ++i) {
    if (!match::bitset_test(candidates, i)) continue;
    const RulePlan& plan = plans_[i];
    bool ok = true;
    for (const TermPlan& t : plan.terms) {
      bool hit;
      if (t.lit >= 0) {
        hit = match::bitset_test(scratch.found.data(),
                                 static_cast<std::size_t>(t.lit));
      } else if (t.field == 0) {
        hit = match::bitset_test(scratch.matched.data(), t.pid);
      } else {
        if (!fields_ready) {
          util::split_fields(line, scratch.fields);
          fields_ready = true;
        }
        const auto idx = static_cast<std::size_t>(t.field - 1);
        // awk: a reference to a field beyond NF is the empty string.
        const std::string_view f = idx < scratch.fields.size()
                                       ? scratch.fields[idx]
                                       : std::string_view{};
        hit = t.re->search(f, scratch.pike);
      }
      if (t.negated) hit = !hit;
      if (!hit) {
        ok = false;
        break;
      }
    }
    if (ok) {
      ++scratch.tag_hits;
      return TagResult{static_cast<std::uint16_t>(i), plan.type};
    }
  }
  return std::nullopt;
}

std::optional<TagResult> TagEngine::tag_line(std::string_view line) const {
  return tag_line(line, thread_local_scratch());
}

std::optional<TagResult> TagEngine::tag(const parse::LogRecord& rec,
                                        match::MatchScratch& scratch) const {
  return tag_line(rec.raw, scratch);
}

std::optional<TagResult> TagEngine::tag(const parse::LogRecord& rec) const {
  return tag_line(rec.raw, thread_local_scratch());
}

}  // namespace wss::tag
