// OnlineSimultaneousFilter vs the batch SimultaneousFilter:
// decision-for-decision equivalence, the watermark eviction proof in
// practice, and checkpoint round-trips.
#include <gtest/gtest.h>

#include <sstream>

#include "filter/simultaneous.hpp"
#include "sim/generator.hpp"
#include "stream/online_filter.hpp"

namespace wss {
namespace {

constexpr util::TimeUs kT = 5 * util::kUsPerSec;

filter::Alert make_alert(util::TimeUs t, std::uint16_t cat,
                         std::uint32_t source = 0) {
  filter::Alert a;
  a.time = t;
  a.category = cat;
  a.source = source;
  return a;
}

TEST(StreamFilter, MatchesBatchDecisionForDecisionOnSimulatedStreams) {
  for (const auto id :
       {parse::SystemId::kLiberty, parse::SystemId::kBlueGeneL,
        parse::SystemId::kRedStorm}) {
    sim::SimOptions opts;
    opts.category_cap = 1200;
    opts.chatter_events = 0;
    const sim::Simulator simulator(id, opts);
    const auto alerts = simulator.ground_truth_alerts();
    ASSERT_FALSE(alerts.empty());

    filter::SimultaneousFilter batch(kT);
    stream::OnlineSimultaneousFilter online(kT);
    std::size_t i = 0;
    for (const auto& a : alerts) {
      ASSERT_EQ(batch.admit(a), online.offer(a)) << "alert " << i;
      // Eviction mid-stream must never change a later decision.
      if (++i % 512 == 0) online.evict_stale();
    }
    EXPECT_EQ(online.offered(), alerts.size());
  }
}

TEST(StreamFilter, RedundantWithinThresholdAcrossSources) {
  stream::OnlineSimultaneousFilter f(kT);
  EXPECT_TRUE(f.offer(make_alert(0, 3, 1)));
  // Same category from another source inside T: redundant (the
  // "simultaneous" in the name).
  EXPECT_FALSE(f.offer(make_alert(2 * util::kUsPerSec, 3, 9)));
  // Different category inside T: admitted.
  EXPECT_TRUE(f.offer(make_alert(3 * util::kUsPerSec, 4, 9)));
  // Same category after the redundant report refreshed the entry:
  // still within T of the refresh -> redundant.
  EXPECT_FALSE(f.offer(make_alert(6 * util::kUsPerSec, 3, 1)));
  EXPECT_EQ(f.admitted(), 2u);
  EXPECT_EQ(f.suppressed(), 2u);
}

TEST(StreamFilter, QuietGapClearsTable) {
  stream::OnlineSimultaneousFilter f(kT);
  EXPECT_TRUE(f.offer(make_alert(0, 1)));
  // Gap > T: the table is cleared, so the same category is fresh.
  EXPECT_TRUE(f.offer(make_alert(kT + util::kUsPerSec, 1)));
}

TEST(StreamFilter, StrictModeThrowsOnRegression) {
  stream::OnlineSimultaneousFilter f(kT, /*strict_order=*/true);
  EXPECT_TRUE(f.offer(make_alert(10 * util::kUsPerSec, 1)));
  EXPECT_THROW(f.offer(make_alert(9 * util::kUsPerSec, 1)),
               std::invalid_argument);
}

TEST(StreamFilter, LenientModeMatchesBatchOnRegressingStream) {
  // syslog second-granularity stamps can regress; the batch admit()
  // tolerates this, and lenient online mode must agree with it.
  std::vector<filter::Alert> alerts;
  alerts.push_back(make_alert(10 * util::kUsPerSec, 0));
  alerts.push_back(make_alert(9 * util::kUsPerSec, 1));   // regression
  alerts.push_back(make_alert(11 * util::kUsPerSec, 0));
  alerts.push_back(make_alert(30 * util::kUsPerSec, 0));  // after gap
  alerts.push_back(make_alert(29 * util::kUsPerSec, 1));  // regression

  filter::SimultaneousFilter batch(kT);
  stream::OnlineSimultaneousFilter online(kT, /*strict_order=*/false);
  for (const auto& a : alerts) {
    EXPECT_EQ(batch.admit(a), online.offer(a));
  }
}

TEST(StreamFilter, EvictStaleDropsProvablyDeadEntries) {
  stream::OnlineSimultaneousFilter f(kT);
  for (std::uint16_t c = 0; c < 8; ++c) {
    f.offer(make_alert(static_cast<util::TimeUs>(c) * util::kUsPerSec / 2, c));
  }
  EXPECT_GT(f.live_entries(), 0u);
  // Advance the watermark far past T, then evict: every entry is
  // older than watermark - T and provably unobservable.
  f.offer(make_alert(100 * util::kUsPerSec, 0));
  f.evict_stale();
  EXPECT_EQ(f.live_entries(), 1u);  // only the advancing alert itself
}

TEST(StreamFilter, CheckpointRoundTripContinuesIdentically) {
  sim::SimOptions opts;
  opts.category_cap = 800;
  opts.chatter_events = 0;
  const sim::Simulator simulator(parse::SystemId::kSpirit, opts);
  const auto alerts = simulator.ground_truth_alerts();
  ASSERT_GT(alerts.size(), 100u);
  const std::size_t cut = alerts.size() / 2;

  stream::OnlineSimultaneousFilter uninterrupted(kT);
  stream::OnlineSimultaneousFilter first_half(kT);
  for (std::size_t i = 0; i < cut; ++i) {
    uninterrupted.offer(alerts[i]);
    first_half.offer(alerts[i]);
  }

  std::stringstream buf;
  {
    stream::CheckpointWriter w(buf);
    first_half.save(w);
    ASSERT_TRUE(w.ok());
  }
  stream::OnlineSimultaneousFilter restored(kT);
  {
    stream::CheckpointReader r(buf);
    restored.load(r);
  }

  for (std::size_t i = cut; i < alerts.size(); ++i) {
    ASSERT_EQ(uninterrupted.offer(alerts[i]), restored.offer(alerts[i]))
        << "post-restore divergence at alert " << i;
  }
  EXPECT_EQ(uninterrupted.admitted(), restored.admitted());
  EXPECT_EQ(uninterrupted.watermark(), restored.watermark());
}

TEST(StreamFilter, LoadRejectsThresholdOrOrderModeMismatch) {
  // The filter block repeats T and the order mode of the options block
  // the restoring filter is built from; a disagreement is a damaged
  // checkpoint, never a value to adopt.
  stream::OnlineSimultaneousFilter saved(kT);
  saved.offer(make_alert(0, 1));
  std::stringstream buf;
  {
    stream::CheckpointWriter w(buf);
    saved.save(w);
    ASSERT_TRUE(w.ok());
  }
  const std::string bytes = buf.str();

  const auto load_into = [&](stream::OnlineSimultaneousFilter& f) {
    std::istringstream is(bytes);
    stream::CheckpointReader r(is);
    f.load(r);
  };
  stream::OnlineSimultaneousFilter other_threshold(6 * util::kUsPerSec);
  EXPECT_THROW(load_into(other_threshold), std::runtime_error);
  stream::OnlineSimultaneousFilter other_order(kT, /*strict_order=*/false);
  EXPECT_THROW(load_into(other_order), std::runtime_error);
  stream::OnlineSimultaneousFilter same(kT);
  EXPECT_NO_THROW(load_into(same));
  EXPECT_EQ(same.offered(), 1u);
}

}  // namespace
}  // namespace wss
