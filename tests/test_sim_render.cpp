// Renderer tests: each system's line shape, determinism, and the
// render -> parse round-trip that the whole pipeline rests on.
#include "sim/render.hpp"

#include <gtest/gtest.h>

#include "parse/dispatch.hpp"
#include "sim/generator.hpp"
#include "util/strings.hpp"

namespace wss::sim {
namespace {

using parse::SystemId;

sim::SimOptions tiny() {
  SimOptions o;
  o.category_cap = 200;
  o.chatter_events = 1000;
  o.inject_corruption = false;
  return o;
}

TEST(Render, DeterministicPerIndex) {
  const Simulator sim(SystemId::kLiberty, tiny());
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(sim.line(i), sim.line(i));
  }
}

class RenderRoundTrip : public ::testing::TestWithParam<SystemId> {};

TEST_P(RenderRoundTrip, ParseRecoversGroundTruth) {
  const SystemId id = GetParam();
  const Simulator sim(id, tiny());
  const int year_hint = sim.spec().start_date.year;
  std::size_t checked = 0;
  for (std::size_t i = 0; i < sim.events().size(); ++i) {
    const SimEvent& e = sim.events()[i];
    const std::string line = sim.renderer().render_clean(e, i);
    const auto rec =
        parse::parse_line(id, line, util::to_civil(e.time).year);
    (void)year_hint;
    EXPECT_TRUE(rec.timestamp_valid) << line;
    EXPECT_FALSE(rec.source_corrupted) << line;
    EXPECT_EQ(rec.source, sim.namer().name(e.source)) << line;
    // syslog stamps are second-granular; BG/L keeps microseconds.
    const util::TimeUs granularity =
        id == SystemId::kBlueGeneL ? 1 : util::kUsPerSec;
    EXPECT_EQ(rec.time / granularity, e.time / granularity) << line;
    // Severity survives where the path records it.
    const tag::LogPath p = sim.renderer().path_of(e);
    if (p == tag::LogPath::kBglRas || p == tag::LogPath::kRsSyslog ||
        p == tag::LogPath::kRsDdn) {
      EXPECT_EQ(rec.severity, e.severity) << line;
    } else {
      EXPECT_EQ(rec.severity, parse::Severity::kNone) << line;
    }
    ++checked;
    if (checked > 4000) break;  // plenty of coverage per system
  }
  EXPECT_GT(checked, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, RenderRoundTrip, ::testing::ValuesIn(parse::kAllSystems),
    [](const ::testing::TestParamInfo<SystemId>& info) {
      return std::string(parse::system_short_name(info.param));
    });

TEST(Render, PlaceholdersExpanded) {
  const Simulator sim(SystemId::kThunderbird, tiny());
  for (std::size_t i = 0; i < sim.events().size(); ++i) {
    const std::string line = sim.line(i);
    EXPECT_EQ(line.find("{n}"), std::string::npos) << line;
    EXPECT_EQ(line.find("{ip}"), std::string::npos) << line;
    EXPECT_EQ(line.find("{hex}"), std::string::npos) << line;
  }
}

TEST(Render, BglLineShape) {
  const Simulator sim(SystemId::kBlueGeneL, tiny());
  const std::string line = sim.line(0);
  const auto fields = util::split_fields(line);
  ASSERT_GE(fields.size(), 9u);
  EXPECT_EQ(fields[5], "RAS");
  EXPECT_EQ(fields[2], fields[4]);  // location appears twice
}

TEST(Render, RsSyslogCarriesPriorityToken) {
  const Simulator sim(SystemId::kRedStorm, tiny());
  bool saw_priority = false;
  for (std::size_t i = 0; i < sim.events().size(); ++i) {
    const SimEvent& e = sim.events()[i];
    if (sim.renderer().path_of(e) == tag::LogPath::kRsSyslog) {
      const std::string line = sim.renderer().render_clean(e, i);
      if (line.find("kern.") != std::string::npos ||
          line.find("daemon.") != std::string::npos) {
        saw_priority = true;
        break;
      }
    }
  }
  EXPECT_TRUE(saw_priority);
}

/// Every corruption mode on, alerts included, so the digest below
/// covers the injector as well as the four line shapes.
CorruptionConfig loud_corruption() {
  CorruptionConfig c;
  c.p_truncate = 0.05;
  c.p_overwrite = 0.05;
  c.p_bad_timestamp = 0.05;
  c.p_bad_source = 0.05;
  c.alerts_exempt = false;
  return c;
}

/// FNV-1a over every render() line of all five systems at seed 42.
std::uint64_t rendered_digest(std::size_t& lines, std::size_t& corrupted) {
  std::uint64_t h = util::kFnv1aBasis;
  for (const SystemId id : parse::kAllSystems) {
    const Simulator sim(id, tiny());
    const Renderer renderer(sim.spec(), sim.namer(), loud_corruption(), 42);
    for (std::size_t i = 0; i < sim.events().size(); ++i) {
      const std::string line = renderer.render(sim.events()[i], i);
      h = util::fnv1a(line, h);
      h = util::fnv1a("\n", h);
      ++lines;
      if (line != renderer.render_clean(sim.events()[i], i)) ++corrupted;
    }
  }
  return h;
}

// Pins the rendered bytes: the value is what the snprintf-based
// renderer produced before rendering moved to reused buffers and digit
// writers. Any change to a line shape, a placeholder's draw order or
// the corruption injector shows here first.
TEST(Render, RenderedBytesArePinned) {
  std::size_t lines = 0;
  std::size_t corrupted = 0;
  const std::uint64_t h = rendered_digest(lines, corrupted);
  EXPECT_GT(lines, 10000u);
  EXPECT_GT(corrupted, lines / 10);  // the injector really fired
  EXPECT_EQ(h, 0xb32adb466f00e071ull) << std::hex << h;
}

// render_into must not depend on what the buffer held before: a long
// line followed by a shorter one into the same buffer equals render().
TEST(Render, RenderIntoReusedBufferEqualsRender) {
  for (const SystemId id : parse::kAllSystems) {
    const Simulator sim(id, tiny());
    const Renderer renderer(sim.spec(), sim.namer(), loud_corruption(), 42);
    const auto& events = sim.events();
    std::size_t longest = 0;
    std::size_t longest_len = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const std::size_t len = renderer.render(events[i], i).size();
      if (len > longest_len) {
        longest = i;
        longest_len = len;
      }
    }
    std::string buf;
    renderer.render_into(buf, events[longest], longest);
    ASSERT_EQ(buf, renderer.render(events[longest], longest));
    for (std::size_t i = 0; i < events.size(); ++i) {
      renderer.render_into(buf, events[i], i);
      ASSERT_EQ(buf, renderer.render(events[i], i))
          << parse::system_short_name(id) << " line " << i;
    }
  }
}

}  // namespace
}  // namespace wss::sim
