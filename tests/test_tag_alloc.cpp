// Steady-state allocation contract of the tag path: after a warm-up
// pass (scratch buffers sized, lazy-DFA cache populated), tagging a
// line allocates NOTHING -- in any engine mode. The pipeline calls
// tag_line hundreds of millions of times; a single per-line allocation
// is the difference between memory-bandwidth-bound and
// allocator-bound.
//
// The counter is a global operator new override local to this binary;
// it counts every allocation on the thread, so the measured region is
// exactly the tag loop.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "logio/reader.hpp"
#include "match/scratch.hpp"
#include "parse/dispatch.hpp"
#include "sim/generator.hpp"
#include "tag/engine.hpp"
#include "tag/metrics.hpp"
#include "tag/rulesets.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

// Every replacement operator delete releases through this one
// out-of-line call. Were free() inlined into a delete, GCC would pair
// it with the operator new it can see at the call site and report a
// (false) -Wmismatched-new-delete.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }

namespace wss::tag {
namespace {

std::vector<std::string> corpus() {
  sim::SimOptions opts;
  opts.category_cap = 500;
  opts.chatter_events = 5000;
  opts.inject_corruption = false;
  const sim::Simulator simulator(parse::SystemId::kBlueGeneL, opts);
  std::vector<std::string> lines;
  lines.reserve(simulator.events().size());
  for (std::size_t i = 0; i < simulator.events().size(); ++i) {
    lines.push_back(simulator.line(i));
  }
  return lines;
}

std::size_t tag_pass(const TagEngine& engine,
                     const std::vector<std::string>& lines,
                     match::MatchScratch& scratch) {
  std::size_t hits = 0;
  for (const auto& line : lines) {
    hits += engine.tag_line(line, scratch).has_value() ? 1 : 0;
  }
  return hits;
}

class TagAllocTest : public ::testing::TestWithParam<TagEngineMode> {};

TEST_P(TagAllocTest, SteadyStateTaggingAllocatesNothing) {
  const std::vector<std::string> lines = corpus();
  ASSERT_FALSE(lines.empty());
  const TagEngine engine(build_ruleset(parse::SystemId::kBlueGeneL),
                         GetParam());
  match::MatchScratch scratch;
  // The metrics flusher rides the same hot loop in production; it must
  // hold the zero-allocation bar too (handles bind at construction).
  TagMetricsFlusher flusher;

  // Warm-up: grows every scratch buffer to its high-water mark and
  // (in multi mode) builds every DFA state this corpus ever visits.
  const std::size_t hits = tag_pass(engine, lines, scratch);
  flusher.flush(scratch);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const std::size_t hits_again = tag_pass(engine, lines, scratch);
  flusher.flush(scratch);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(hits_again, hits);
  EXPECT_GT(hits, 0u);  // the corpus must exercise the hit path too
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations across " << lines.size()
      << " steady-state lines";
}

// End-to-end miss-path contract: read (mmap) -> split -> parse ->
// tag, the whole chain, allocates nothing per line in steady state.
// Direct before/after counting cannot separate warm-up (string
// capacities, scratch vectors, lazy-DFA states grow DURING the first
// pass), so the pin is differential: a file with the corpus once and
// a file with it twice incur IDENTICAL allocation counts -- every
// allocation is per-pass setup or high-water growth, and the extra
// N lines of the doubled file add exactly zero.
TEST(TagAllocEndToEnd, DoubledCorpusAddsZeroAllocations) {
  const std::vector<std::string> lines = corpus();
  std::string text;
  for (const auto& line : lines) {
    text += line;
    text += '\n';
  }
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("wss_alloc_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const fs::path once = dir / "once.log";
  const fs::path twice = dir / "twice.log";
  {
    std::ofstream(once, std::ios::binary) << text;
    std::ofstream(twice, std::ios::binary) << text << text;
  }

  const TagEngine engine(build_ruleset(parse::SystemId::kBlueGeneL),
                         TagEngineMode::kMulti);
  const auto pass = [&](const fs::path& p) -> std::pair<std::uint64_t,
                                                        std::size_t> {
    match::MatchScratch scratch;
    std::size_t hits = 0;
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    logio::read_log(p, parse::SystemId::kBlueGeneL, 2005,
                    [&](const parse::LogRecord& rec) {
                      hits += engine.tag_line(rec.raw, scratch).has_value()
                                  ? 1
                                  : 0;
                    });
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
    return {after - before, hits};
  };

  // Prime the engine's lazy caches (DFA states are engine-owned, not
  // per-pass) so both measured passes see the same engine state.
  pass(once);

  const auto [allocs_once, hits_once] = pass(once);
  const auto [allocs_twice, hits_twice] = pass(twice);

  std::error_code ec;
  fs::remove_all(dir, ec);

  EXPECT_GT(hits_once, 0u);
  EXPECT_EQ(hits_twice, 2 * hits_once);
  EXPECT_EQ(allocs_twice, allocs_once)
      << "the doubled corpus cost " << (allocs_twice - allocs_once)
      << " extra allocations across " << lines.size() << " extra lines";
}

// The batch study's per-line path: render into a reused buffer, parse
// into a reused record, tag. After a warm-up pass over the same events
// (buffer, record, scratches and DFA states at their high-water marks)
// a second pass over a few thousand lines allocates nothing, on every
// system's line shapes and with corruption on.
TEST(TagAllocBatchLine, RenderParseTagAllocatesNothing) {
  for (const parse::SystemId id : parse::kAllSystems) {
    sim::SimOptions opts;
    opts.category_cap = 300;
    opts.chatter_events = 3000;
    const sim::Simulator simulator(id, opts);
    const TagEngine engine(build_ruleset(id));
    const auto& events = simulator.events();
    const std::size_t n = std::min<std::size_t>(events.size(), 4000);
    ASSERT_GT(n, 2000u);
    const int year = simulator.spec().start_date.year;

    std::string line;
    parse::LogRecord rec;
    parse::ParseScratch pscratch;
    match::MatchScratch scratch;
    const auto pass = [&] {
      std::size_t hits = 0;
      for (std::size_t i = 0; i < n; ++i) {
        simulator.renderer().render_into(line, events[i], i);
        parse::parse_line_into(id, line, year, rec, pscratch);
        hits += engine.tag(rec, scratch).has_value() ? 1 : 0;
      }
      return hits;
    };

    const std::size_t hits = pass();
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    const std::size_t hits_again = pass();
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

    EXPECT_EQ(hits_again, hits);
    EXPECT_GT(hits, 0u) << parse::system_short_name(id);
    EXPECT_EQ(after - before, 0u)
        << parse::system_short_name(id) << ": " << (after - before)
        << " allocations across " << n << " steady-state lines";
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, TagAllocTest,
                         ::testing::Values(TagEngineMode::kNaive,
                                           TagEngineMode::kPrefilter,
                                           TagEngineMode::kMulti),
                         [](const auto& info) {
                           switch (info.param) {
                             case TagEngineMode::kNaive:
                               return "naive";
                             case TagEngineMode::kPrefilter:
                               return "prefilter";
                             default:
                               return "multi";
                           }
                         });

}  // namespace
}  // namespace wss::tag
