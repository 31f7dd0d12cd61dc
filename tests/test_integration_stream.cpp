// Streamed-vs-batch equivalence across all five systems and multiple
// seeds: the online pipeline, fed one (event, line) pair at a time,
// must reproduce the batch pipeline accumulators, the Table 2-4
// ingredients, and the filtered alert sequence bit-for-bit.
#include <gtest/gtest.h>

#include <vector>

#include "core/experiments.hpp"
#include "core/pipeline.hpp"
#include "core/study.hpp"
#include "stream/pipeline.hpp"
#include "tag/rulesets.hpp"

namespace wss {
namespace {

sim::SimOptions small_sim(std::uint64_t seed) {
  sim::SimOptions opts;
  opts.seed = seed;
  opts.category_cap = 1500;
  opts.chatter_events = 10000;
  return opts;
}

stream::StreamSnapshot stream_system(const sim::Simulator& simulator,
                                     std::vector<filter::Alert>* emitted) {
  stream::StreamPipeline pipeline(simulator.spec().id);
  if (emitted != nullptr) {
    pipeline.set_alert_sink(
        [emitted](const filter::Alert& a) { emitted->push_back(a); });
  }
  const auto& events = simulator.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    pipeline.ingest(events[i], simulator.renderer().render(events[i], i));
  }
  pipeline.finish();
  return pipeline.snapshot();
}

TEST(StreamIntegration, MatchesBatchPipelineBitForBitAllSystemsTwoSeeds) {
  for (const std::uint64_t seed : {42ull, 7ull}) {
    for (const auto id : parse::kAllSystems) {
      SCOPED_TRACE(testing::Message()
                   << parse::system_short_name(id) << " seed " << seed);
      const sim::Simulator simulator(id, small_sim(seed));
      const auto snap = stream_system(simulator, nullptr);

      core::PipelineOptions popts;
      popts.collect_source_tallies = false;
      const auto batch = core::run_pipeline(simulator, popts);

      EXPECT_EQ(snap.events, simulator.events().size());
      EXPECT_EQ(snap.physical_messages, batch.physical_messages);
      // Plain == on doubles throughout: the contract is bit-identity,
      // not tolerance.
      EXPECT_EQ(snap.weighted_messages, batch.weighted_messages);
      EXPECT_EQ(snap.physical_bytes, batch.physical_bytes);
      EXPECT_EQ(snap.weighted_bytes, batch.weighted_bytes);
      EXPECT_EQ(snap.corrupted_source_lines, batch.corrupted_source_lines);
      EXPECT_EQ(snap.invalid_timestamp_lines, batch.invalid_timestamp_lines);
      ASSERT_EQ(snap.weighted_alert_counts.size(),
                batch.weighted_alert_counts.size());
      for (std::size_t c = 0; c < batch.weighted_alert_counts.size(); ++c) {
        EXPECT_EQ(snap.weighted_alert_counts[c],
                  batch.weighted_alert_counts[c])
            << "category " << c;
      }
      EXPECT_EQ(snap.physical_alert_counts, batch.physical_alert_counts);
      EXPECT_EQ(snap.categories_observed, batch.categories_observed);
      EXPECT_EQ(snap.tagging.true_positives, batch.tagging.true_positives);
      EXPECT_EQ(snap.tagging.false_positives, batch.tagging.false_positives);
      EXPECT_EQ(snap.tagging.true_negatives, batch.tagging.true_negatives);
      EXPECT_EQ(snap.tagging.false_negatives, batch.tagging.false_negatives);
    }
  }
}

TEST(StreamIntegration, EmittedSequenceEqualsBatchFilteredAlerts) {
  for (const std::uint64_t seed : {42ull, 7ull}) {
    core::StudyOptions sopts;
    sopts.sim = small_sim(seed);
    core::Study study(sopts);
    for (const auto id : parse::kAllSystems) {
      SCOPED_TRACE(testing::Message()
                   << parse::system_short_name(id) << " seed " << seed);
      std::vector<filter::Alert> emitted;
      stream_system(study.simulator(id), &emitted);

      const auto batch = core::filtered_alerts(study, id);
      ASSERT_EQ(emitted.size(), batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(emitted[i].time, batch[i].time) << "alert " << i;
        EXPECT_EQ(emitted[i].category, batch[i].category) << "alert " << i;
        EXPECT_EQ(emitted[i].source, batch[i].source) << "alert " << i;
        EXPECT_EQ(emitted[i].type, batch[i].type) << "alert " << i;
      }
    }
  }
}

TEST(StreamIntegration, Table2IngredientsMatchBatchRows) {
  core::StudyOptions sopts;
  sopts.sim = small_sim(42);
  core::Study study(sopts);
  for (const auto id : parse::kAllSystems) {
    SCOPED_TRACE(parse::system_short_name(id));
    const auto snap = stream_system(study.simulator(id), nullptr);
    const auto row = core::table2_row(study, id);
    EXPECT_EQ(snap.days, row.days);
    EXPECT_EQ(snap.measured_gb, row.measured_gb);
    EXPECT_EQ(snap.rate_bytes_per_sec, row.rate_bytes_per_sec);
    EXPECT_EQ(snap.messages, row.messages);
    EXPECT_EQ(snap.alerts, row.alerts);
    EXPECT_EQ(snap.categories_observed, row.categories);
    ASSERT_TRUE(snap.compressed_fraction.has_value());
    EXPECT_EQ(*snap.compressed_fraction, row.compressed_fraction);
  }
}

TEST(StreamIntegration, Table3And4IngredientsMatchBatch) {
  core::StudyOptions sopts;
  sopts.sim = small_sim(42);
  core::Study study(sopts);

  core::Table3Data from_stream;
  for (const auto id : parse::kAllSystems) {
    SCOPED_TRACE(parse::system_short_name(id));
    const auto snap = stream_system(study.simulator(id), nullptr);

    // Table 4: per-category raw (weighted) and filtered counts.
    const auto rows = core::table4_rows(study, id);
    ASSERT_EQ(rows.size(), snap.weighted_alert_counts.size());
    ASSERT_EQ(rows.size(), snap.filtered_counts.size());
    for (std::size_t c = 0; c < rows.size(); ++c) {
      EXPECT_EQ(snap.weighted_alert_counts[c], rows[c].raw_weighted)
          << rows[c].category;
      EXPECT_EQ(snap.filtered_counts[c], rows[c].filtered_measured)
          << rows[c].category;
    }

    // Accumulate the Table 3 view from stream snapshots.
    const auto cats = tag::categories_of(id);
    for (std::size_t c = 0; c < cats.size(); ++c) {
      from_stream.raw[static_cast<std::size_t>(cats[c]->type)] +=
          snap.weighted_alert_counts[c];
    }
    for (int t = 0; t < 3; ++t) {
      from_stream.filtered[t] += snap.filtered_by_type[t];
    }
  }

  const auto batch = core::table3(study);
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(from_stream.filtered[t], batch.filtered[t]) << "type " << t;
    EXPECT_EQ(from_stream.raw[t], batch.raw[t]) << "type " << t;
  }
}

// File mode folds each line with the same kernel as batch, at weight 1
// and without ground truth, so every physical (unweighted) count over
// the rendered log must equal the batch pipeline's over the same lines.
TEST(StreamIntegration, FileModeMatchesBatchPhysicalCountsAllSystems) {
  for (const auto id : parse::kAllSystems) {
    SCOPED_TRACE(parse::system_short_name(id));
    const sim::Simulator simulator(id, small_sim(42));
    stream::StreamPipeline pipeline(id);
    simulator.for_each_line(
        [&pipeline](std::string_view line) { pipeline.ingest_line(line); });
    pipeline.finish();
    const auto snap = pipeline.snapshot();
    const auto batch = core::run_pipeline(simulator, false);

    EXPECT_FALSE(snap.has_ground_truth);
    EXPECT_EQ(snap.physical_messages, simulator.events().size());
    EXPECT_EQ(snap.physical_messages, batch.physical_messages);
    EXPECT_EQ(snap.physical_bytes, batch.physical_bytes);
    EXPECT_GT(batch.corrupted_source_lines, 0u);
    EXPECT_EQ(snap.corrupted_source_lines, batch.corrupted_source_lines);
    EXPECT_EQ(snap.invalid_timestamp_lines, batch.invalid_timestamp_lines);
    EXPECT_EQ(snap.physical_alert_counts, batch.physical_alert_counts);
  }
}

}  // namespace
}  // namespace wss
