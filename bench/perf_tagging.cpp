// Perf: tag-engine throughput, as a three-way ablation of the real
// TagEngine::tag_line path (DESIGN.md section 5d):
//
//   naive      -- per-rule predicate loop, first match wins;
//   prefilter  -- one Aho-Corasick pass gates the per-rule loop;
//   multi      -- the same pass also decides every literal-only term
//                 (a pattern that is exactly its literal); one lazy-DFA
//                 set-matching pass decides the other whole-line terms,
//                 and only on lines whose candidate rules have one. On
//                 the BG/L corpus below no line reaches the DFA.
//
// Tagging must keep up with hundreds of millions of messages, so the
// miss path (chatter lines that match no rule) is what matters; the
// corpus below is chatter-heavy by construction. All three modes are
// bit-identical by contract -- the bench aborts if their tag counts
// disagree.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "match/scratch.hpp"
#include "obs/export.hpp"
#include "sim/generator.hpp"
#include "simd/dispatch.hpp"
#include "tag/engine.hpp"
#include "tag/metrics.hpp"
#include "tag/rulesets.hpp"

namespace {

using namespace wss;

struct Corpus {
  std::vector<std::string> lines;
  std::size_t bytes = 0;
};

/// Mixed corpus: alerts and chatter in simulator proportions.
const Corpus& mixed_corpus() {
  static const Corpus c = [] {
    sim::SimOptions opts;
    opts.category_cap = 2000;
    opts.chatter_events = 30000;
    opts.inject_corruption = false;
    const sim::Simulator simulator(parse::SystemId::kBlueGeneL, opts);
    Corpus out;
    for (std::size_t i = 0; i < simulator.events().size(); ++i) {
      out.lines.push_back(simulator.line(i));
      out.bytes += out.lines.back().size();
    }
    return out;
  }();
  return c;
}

/// Miss-path corpus: the mixed corpus minus every line any engine
/// tags. This is the case that scales to 10^9 messages -- the paper's
/// logs are overwhelmingly chatter -- and the one the set matcher is
/// built for.
const Corpus& miss_corpus() {
  static const Corpus c = [] {
    const tag::TagEngine naive(tag::build_ruleset(parse::SystemId::kBlueGeneL),
                               tag::TagEngineMode::kNaive);
    match::MatchScratch scratch;
    Corpus out;
    for (const auto& line : mixed_corpus().lines) {
      if (!naive.tag_line(line, scratch)) {
        out.lines.push_back(line);
        out.bytes += line.size();
      }
    }
    return out;
  }();
  return c;
}

const tag::TagEngine& engine_for(tag::TagEngineMode mode) {
  static const tag::TagEngine naive(
      tag::build_ruleset(parse::SystemId::kBlueGeneL),
      tag::TagEngineMode::kNaive);
  static const tag::TagEngine prefilter(
      tag::build_ruleset(parse::SystemId::kBlueGeneL),
      tag::TagEngineMode::kPrefilter);
  static const tag::TagEngine multi(
      tag::build_ruleset(parse::SystemId::kBlueGeneL),
      tag::TagEngineMode::kMulti);
  switch (mode) {
    case tag::TagEngineMode::kNaive:
      return naive;
    case tag::TagEngineMode::kPrefilter:
      return prefilter;
    default:
      return multi;
  }
}

std::size_t tag_pass(const Corpus& c, const tag::TagEngine& engine,
                     match::MatchScratch& scratch) {
  std::size_t hits = 0;
  for (const auto& line : c.lines) {
    hits += engine.tag_line(line, scratch).has_value() ? 1 : 0;
  }
  return hits;
}

void tag_mode(benchmark::State& state, const Corpus& c,
              tag::TagEngineMode mode) {
  const tag::TagEngine& engine = engine_for(mode);
  match::MatchScratch scratch;  // reused: the steady-state contract
  for (auto _ : state) {
    const std::size_t hits = tag_pass(c, engine, scratch);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.lines.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.bytes));
}

void BM_TagNaive(benchmark::State& state) {
  tag_mode(state, mixed_corpus(), tag::TagEngineMode::kNaive);
}
BENCHMARK(BM_TagNaive);

void BM_TagPrefilter(benchmark::State& state) {
  tag_mode(state, mixed_corpus(), tag::TagEngineMode::kPrefilter);
}
BENCHMARK(BM_TagPrefilter);

void BM_TagMulti(benchmark::State& state) {
  tag_mode(state, mixed_corpus(), tag::TagEngineMode::kMulti);
}
BENCHMARK(BM_TagMulti);

void BM_TagNaiveMiss(benchmark::State& state) {
  tag_mode(state, miss_corpus(), tag::TagEngineMode::kNaive);
}
BENCHMARK(BM_TagNaiveMiss);

void BM_TagMultiMiss(benchmark::State& state) {
  tag_mode(state, miss_corpus(), tag::TagEngineMode::kMulti);
}
BENCHMARK(BM_TagMultiMiss);

/// The machine-readable record: one timed pass per mode (best of
/// `reps`), tag counts cross-checked, appended as one JSON-lines
/// object per workload to BENCH_tagging.json.
void emit_tagging_ablation(const char* workload, const Corpus& c,
                           int reps = 3) {
  const auto lines = static_cast<double>(c.lines.size());

  struct Row {
    const char* name;
    tag::TagEngineMode mode;
    double lines_per_sec = 0.0;
    std::size_t hits = 0;
  };
  Row rows[] = {
      {"naive", tag::TagEngineMode::kNaive},
      {"prefilter", tag::TagEngineMode::kPrefilter},
      {"multi", tag::TagEngineMode::kMulti},
  };

  std::cout << "\n==== Tagging ablation (BG/L " << workload << ", "
            << c.lines.size() << " lines) ====\n";
  for (Row& row : rows) {
    const tag::TagEngine& engine = engine_for(row.mode);
    match::MatchScratch scratch;
    tag::TagMetricsFlusher flusher;
    row.hits = tag_pass(c, engine, scratch);  // warm-up (DFA cache, scratch)
    double best_s = 1e300;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      const std::size_t hits = tag_pass(c, engine, scratch);
      const auto t1 = std::chrono::steady_clock::now();
      if (hits != row.hits) std::abort();  // modes must agree with themselves
      best_s =
          std::min(best_s, std::chrono::duration<double>(t1 - t0).count());
    }
    flusher.flush(scratch);  // publish tallies so the snapshot sees them
    row.lines_per_sec = lines / best_s;
  }
  if (rows[0].hits != rows[1].hits || rows[0].hits != rows[2].hits) {
    std::cerr << "FATAL: ablation modes disagree on tag counts: naive="
              << rows[0].hits << " prefilter=" << rows[1].hits
              << " multi=" << rows[2].hits << "\n";
    std::abort();
  }

  const double naive_lps = rows[0].lines_per_sec;
  std::string json = util::format(
      "{\"bench\":\"perf_tagging\",\"workload\":\"%s\",\"lines\":%zu,"
      "\"tagged\":%zu,\"ablation\":[",
      workload, c.lines.size(), rows[0].hits);
  for (std::size_t i = 0; i < 3; ++i) {
    const Row& row = rows[i];
    const double speedup = naive_lps > 0 ? row.lines_per_sec / naive_lps : 1.0;
    std::cout << util::format("  %-9s  %10.0f lines/sec  (%.2fx naive)\n",
                              row.name, row.lines_per_sec, speedup);
    json += util::format(
        "%s{\"mode\":\"%s\",\"lines_per_sec\":%.1f,\"speedup\":%.3f}",
        i == 0 ? "" : ",", row.name, row.lines_per_sec, speedup);
  }
  json += "]}";
  std::ofstream os("BENCH_tagging.json", std::ios::app);
  if (os) os << json << "\n";
  std::cout << "(appended to BENCH_tagging.json)\n";
}

/// SIMD-level ablation of the tagging hot path: the same multi-mode
/// engine, timed once per supported WSS_SIMD level (the vector block
/// skip in LiteralScanner and the vectorized delimiter scans react to
/// simd::set_level at runtime). Tag counts are cross-checked across
/// levels -- a disagreement is a correctness bug, not a perf result --
/// and each row records its speedup over the scalar baseline. Appended
/// as JSON-lines to BENCH_simd.json.
void emit_simd_ablation(const char* workload, const Corpus& c, int reps = 3) {
  const simd::Level restore = simd::active_level();
  const auto lines = static_cast<double>(c.lines.size());
  const tag::TagEngine& engine = engine_for(tag::TagEngineMode::kMulti);

  struct Row {
    simd::Level level;
    double lines_per_sec = 0.0;
    std::size_t hits = 0;
  };
  std::vector<Row> rows;
  for (const simd::Level level : simd::supported_levels()) {
    rows.push_back({level});
  }

  std::cout << "\n==== SIMD ablation (multi engine, " << workload << ", "
            << c.lines.size() << " lines) ====\n";
  for (Row& row : rows) {
    simd::set_level(row.level);
    match::MatchScratch scratch;
    row.hits = tag_pass(c, engine, scratch);  // warm-up at this level
    double best_s = 1e300;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      const std::size_t hits = tag_pass(c, engine, scratch);
      const auto t1 = std::chrono::steady_clock::now();
      if (hits != row.hits) std::abort();
      best_s =
          std::min(best_s, std::chrono::duration<double>(t1 - t0).count());
    }
    row.lines_per_sec = lines / best_s;
    if (row.hits != rows[0].hits) {
      std::cerr << "FATAL: level " << simd::level_name(row.level)
                << " tags " << row.hits << " lines, scalar tags "
                << rows[0].hits << "\n";
      std::abort();
    }
  }
  simd::set_level(restore);

  const double scalar_lps = rows[0].lines_per_sec;
  std::string json = util::format(
      "{\"bench\":\"perf_tagging\",\"layer\":\"tagging\",\"workload\":\"%s\","
      "\"lines\":%zu,\"tagged\":%zu,\"levels\":[",
      workload, c.lines.size(), rows[0].hits);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const double speedup =
        scalar_lps > 0 ? row.lines_per_sec / scalar_lps : 1.0;
    std::cout << util::format("  %-7s  %10.0f lines/sec  (%.2fx scalar)\n",
                              simd::level_name(row.level), row.lines_per_sec,
                              speedup);
    json += util::format(
        "%s{\"level\":\"%s\",\"lines_per_sec\":%.1f,"
        "\"speedup_vs_scalar\":%.3f}",
        i == 0 ? "" : ",", simd::level_name(row.level), row.lines_per_sec,
        speedup);
  }
  json += "]}";
  std::ofstream os("BENCH_simd.json", std::ios::app);
  if (os) os << json << "\n";
  std::cout << "(appended to BENCH_simd.json)\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "==== Perf: tagging throughput (BG/L rules, "
            << mixed_corpus().lines.size() << " mixed / "
            << miss_corpus().lines.size() << " miss-only lines) ====\n\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  emit_tagging_ablation("bgl mixed cap=2000 chatter=30000", mixed_corpus());
  emit_tagging_ablation("bgl miss-path (untagged lines only)", miss_corpus());
  emit_simd_ablation("bgl miss-path (untagged lines only)", miss_corpus());
  emit_simd_ablation("bgl mixed cap=2000 chatter=30000", mixed_corpus());
  // Attach the obs registry snapshot (wss_tag_* totals across every
  // ablation pass) as a machine-readable sibling of BENCH_tagging.json.
  obs::write_metrics_file("BENCH_tagging_metrics.json");
  std::cout << "(wrote BENCH_tagging_metrics.json)\n";
  return 0;
}
