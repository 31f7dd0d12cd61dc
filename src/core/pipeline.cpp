#include "core/pipeline.hpp"

#include <algorithm>

#include "obs/span.hpp"
#include "tag/metrics.hpp"
#include "tag/rulesets.hpp"

namespace wss::core {

namespace detail {

PipelineCounters& PipelineCounters::get() {
  static PipelineCounters c{
      obs::registry().counter("wss_pipeline_events_total"),
      obs::registry().counter("wss_pipeline_bytes_total"),
      obs::registry().counter("wss_pipeline_corrupted_source_lines_total"),
      obs::registry().counter("wss_pipeline_invalid_timestamp_lines_total"),
      obs::registry().counter("wss_pipeline_alerts_tagged_total"),
      obs::registry().counter("wss_pipeline_chunks_total"),
  };
  return c;
}

PipelineResult make_partial(const ChunkContext& ctx) {
  PipelineResult r;
  r.system = ctx.system;
  r.weighted_alert_counts.assign(ctx.num_categories, 0.0);
  r.physical_alert_counts.assign(ctx.num_categories, 0);
  return r;
}

void prepare(const ChunkContext& ctx, std::string_view line, int year,
             PreparedLine& out, parse::ParseScratch& pscratch,
             match::MatchScratch& scratch) {
  parse::parse_line_into(ctx.system, line, year, out.rec, pscratch);
  out.tagged = ctx.engine->tag(out.rec, scratch);
  out.month = util::parse_month_abbrev(line.substr(0, 3));
}

std::optional<filter::Alert> fold(const ChunkContext& ctx, PipelineResult& r,
                                  std::string_view line,
                                  const PreparedLine& prepared,
                                  const LineFacts& facts) {
  const parse::LogRecord& rec = prepared.rec;
  const std::size_t bytes = line.size() + 1;  // trailing newline on disk
  PipelineCounters& obs = PipelineCounters::get();
  obs.events.inc();
  obs.bytes.inc(bytes);
  ++r.physical_messages;
  r.weighted_messages += facts.weight;
  r.physical_bytes += bytes;
  r.weighted_bytes += facts.weight * static_cast<double>(bytes);

  if (rec.source_corrupted) {
    ++r.corrupted_source_lines;
    obs.corrupted_sources.inc();
  }
  if (!rec.timestamp_valid) {
    ++r.invalid_timestamp_lines;
    obs.invalid_timestamps.inc();
  }
  if (ctx.collect_source_tallies) {
    if (rec.source_corrupted) {
      r.corrupted_source_weight += facts.weight;
    } else {
      r.messages_by_source[rec.source] += facts.weight;
    }
  }

  const std::optional<tag::TagResult>& tagged = prepared.tagged;
  if (facts.truth) r.tagging.add(tagged.has_value(), facts.truth->is_alert());
  if (!tagged) return std::nullopt;
  obs.alerts_tagged.inc();
  r.weighted_alert_counts[tagged->category] += facts.weight;
  ++r.physical_alert_counts[tagged->category];

  filter::Alert a;
  // Trust the parsed timestamp when valid; otherwise fall back to
  // stream position, as an operator reading a sequential log
  // effectively does.
  a.time = rec.timestamp_valid ? rec.time : facts.fallback_time;
  a.category = tagged->category;
  a.type = tagged->type;
  a.weight = facts.weight;
  if (facts.truth) {
    a.source = facts.truth->source;
    a.failure_id = facts.truth->failure_id;  // rides along for scoring
  }
  return a;
}

PipelineResult process_chunk(const ChunkContext& ctx, std::size_t begin,
                             std::size_t end, match::MatchScratch& scratch) {
  const sim::Simulator& simulator = *ctx.simulator;
  PipelineResult r = make_partial(ctx);
  const sim::Renderer& renderer = simulator.renderer();
  const auto& events = simulator.events();
  std::string line;
  parse::ParseScratch pscratch;
  PreparedLine prepared;
  for (std::size_t i = begin; i < end; ++i) {
    const sim::SimEvent& e = events[i];
    renderer.render_into(line, e, i);
    // The year hint follows the event's own year; a real reader
    // would advance it at log rollover boundaries.
    prepare(ctx, line, util::to_civil(e.time).year, prepared, pscratch,
            scratch);
    if (const auto a = fold(ctx, r, line, prepared, {e.weight, e.time, &e})) {
      r.tagged_alerts.push_back(*a);
    }
  }
  return r;
}

void merge_partial(PipelineResult& acc, PipelineResult&& part) {
  if (acc.weighted_alert_counts.empty()) {
    acc.system = part.system;
    acc.weighted_alert_counts.assign(part.weighted_alert_counts.size(), 0.0);
    acc.physical_alert_counts.assign(part.physical_alert_counts.size(), 0);
  }

  acc.physical_messages += part.physical_messages;
  acc.weighted_messages += part.weighted_messages;
  acc.physical_bytes += part.physical_bytes;
  acc.weighted_bytes += part.weighted_bytes;
  acc.corrupted_source_lines += part.corrupted_source_lines;
  acc.invalid_timestamp_lines += part.invalid_timestamp_lines;

  acc.tagged_alerts.insert(acc.tagged_alerts.end(),
                           std::make_move_iterator(part.tagged_alerts.begin()),
                           std::make_move_iterator(part.tagged_alerts.end()));
  for (std::size_t c = 0; c < part.weighted_alert_counts.size(); ++c) {
    acc.weighted_alert_counts[c] += part.weighted_alert_counts[c];
    acc.physical_alert_counts[c] += part.physical_alert_counts[c];
  }

  acc.tagging.add(true, true, part.tagging.true_positives);
  acc.tagging.add(true, false, part.tagging.false_positives);
  acc.tagging.add(false, false, part.tagging.true_negatives);
  acc.tagging.add(false, true, part.tagging.false_negatives);

  // std::map iterates keys in sorted order, so for any one source the
  // per-chunk partials are added in chunk order -- the same FP
  // accumulation order at every thread count.
  for (auto& [source, weight] : part.messages_by_source) {
    acc.messages_by_source[source] += weight;
  }
  acc.corrupted_source_weight += part.corrupted_source_weight;
}

void finalize_result(PipelineResult& r) {
  r.categories_observed = 0;
  for (const auto c : r.physical_alert_counts) {
    if (c > 0) ++r.categories_observed;
  }
  // syslog stamps have 1 s granularity, so parsed times can tie or
  // regress within a second relative to event order; restore order.
  filter::sort_alerts(r.tagged_alerts);
}

}  // namespace detail

PipelineResult run_pipeline(const sim::Simulator& simulator,
                            const PipelineOptions& options) {
  const parse::SystemId system = simulator.spec().id;
  const tag::RuleSet rules = tag::build_ruleset(system);
  const tag::TagEngine engine(rules);

  detail::ChunkContext ctx;
  ctx.simulator = &simulator;
  ctx.engine = &engine;
  ctx.system = system;
  ctx.num_categories = tag::categories_of(system).size();
  ctx.collect_source_tallies = options.collect_source_tallies;

  const std::size_t n = simulator.events().size();
  const std::size_t chunk = std::max<std::size_t>(options.chunk_events, 1);

  PipelineResult r = detail::make_partial(ctx);
  match::MatchScratch scratch;  // reused across every line of the pass
  tag::TagMetricsFlusher flusher;
  obs::Counter& chunks = detail::PipelineCounters::get().chunks;
  {
    obs::Span pass("pipeline_serial");
    for (std::size_t begin = 0; begin < n; begin += chunk) {
      detail::merge_partial(r, detail::process_chunk(
                                   ctx, begin, std::min(begin + chunk, n),
                                   scratch));
      chunks.inc();
      flusher.flush(scratch);
    }
  }
  {
    obs::Span fin("finalize");
    detail::finalize_result(r);
  }
  return r;
}

PipelineResult run_pipeline(const sim::Simulator& simulator,
                            bool collect_source_tallies) {
  PipelineOptions options;
  options.collect_source_tallies = collect_source_tallies;
  return run_pipeline(simulator, options);
}

}  // namespace wss::core
