// Workload `study`: the calls `wss study --system all --threads N`
// makes, in-process. It is the analyst's batch path and the only
// workload where sim rendering, the thread pool and the chunk merge do
// the work; four alert-heavy systems drive the tag hit path and
// Liberty the miss path.
#include <memory>
#include <thread>

#include "common.hpp"
#include "core/parallel.hpp"
#include "core/pipeline.hpp"
#include "filter/simultaneous.hpp"
#include "parse/dispatch.hpp"
#include "stats.hpp"
#include "tag/rulesets.hpp"
#include "util/time.hpp"

namespace wssbench {

using namespace wss;

namespace {

// About half a million events over the five systems (the `wss study`
// defaults): one study takes ~0.4 s at four threads, so a 20 s run
// gathers ~50 studies and their median is steady on a shared box.
constexpr std::uint64_t kCategoryCap = 20000;
constexpr std::uint64_t kChatterEvents = 50000;
constexpr util::TimeUs kThresholdUs = 5 * util::kUsPerSec;
constexpr int kSetupReps = 9;
// Lines per timed stage batch: a clock pair per batch keeps the clock
// off the per-line cost, and a batch this small stays in cache the way
// the fused per-line path does (whole 8192-line chunks did not, and
// their stages summed to more than process_chunk itself).
constexpr std::size_t kStageBatch = 256;

using Sims = std::vector<std::unique_ptr<sim::Simulator>>;

void digest_result(Digest& d, const core::PipelineResult& r,
                   const std::vector<filter::Alert>& truth,
                   const std::vector<filter::Alert>& kept) {
  d.pod(r.physical_messages);
  d.pod(r.weighted_messages);
  d.pod(r.physical_bytes);
  d.pod(r.weighted_bytes);
  d.pod(r.corrupted_source_lines);
  d.pod(r.invalid_timestamp_lines);
  for (const filter::Alert& a : r.tagged_alerts) {
    d.pod(a.time);
    d.pod(a.source);
    d.pod(a.category);
    d.pod(a.weight);
  }
  for (const double w : r.weighted_alert_counts) d.pod(w);
  for (const auto c : r.physical_alert_counts) d.pod(c);
  d.pod(r.tagging.true_positives);
  d.pod(r.tagging.false_positives);
  d.pod(r.tagging.true_negatives);
  d.pod(r.tagging.false_negatives);
  d.pod(r.categories_observed);
  for (const auto& [source, w] : r.messages_by_source) {
    d.str(source);
    d.pod(w);
  }
  d.pod(r.corrupted_source_weight);
  d.pod(truth.size());
  for (const filter::Alert& a : kept) {
    d.pod(a.time);
    d.pod(a.source);
    d.pod(a.category);
  }
}

/// One study over every system: what `cmd_study` computes per row.
/// Returns false when a system's message count disagrees with its
/// event count.
bool study_once(const Sims& sims, const core::ParallelPipeline& pipeline,
                int filter_threads, Digest& d) {
  bool ok = true;
  for (const auto& sim : sims) {
    const core::PipelineResult r = pipeline.run(*sim);
    const auto truth = sim->ground_truth_alerts();
    const auto kept = filter::apply_simultaneous_parallel(truth, kThresholdUs,
                                                          filter_threads);
    ok = ok && r.physical_messages == sim->events().size();
    digest_result(d, r, truth, kept);
  }
  return ok;
}

/// Per-layer totals of one traced 1-thread study.
struct Traced {
  double wall = 0.0;
  SpanTotal render, parse, tag, chunk, merge, truth, filter;
  std::uint64_t lines = 0;
  std::uint64_t tag_hits = 0;
  Digest digest;
};

/// The 1-thread study with a span around each layer call. Each chunk of
/// `chunk_events` lines is first rendered, parsed and tagged stage by
/// stage, kStageBatch lines at a time, then reduced by `process_chunk`
/// as the pipeline does; accumulate = process_chunk - render - parse -
/// tag.
Traced traced_study(const Sims& sims) {
  Traced tr;
  const double t_start = now_s();
  for (const auto& sim : sims) {
    const parse::SystemId id = sim->spec().id;
    const tag::TagEngine engine(tag::build_ruleset(id));
    core::detail::ChunkContext ctx;
    ctx.simulator = sim.get();
    ctx.engine = &engine;
    ctx.system = id;
    ctx.num_categories = tag::categories_of(id).size();
    ctx.collect_source_tallies = true;
    const core::PipelineOptions popts;
    match::MatchScratch scratch;
    core::PipelineResult acc = core::detail::make_partial(ctx);
    const auto& events = sim->events();
    std::vector<std::string> lines;
    std::vector<parse::LogRecord> recs;
    for (const auto& range : sim->event_shards(popts.chunk_events)) {
      for (std::size_t b = range.begin; b < range.end; b += kStageBatch) {
        const std::size_t e = std::min(range.end, b + kStageBatch);
        lines.resize(e - b);
        recs.resize(e - b);
        double t = now_s();
        for (std::size_t i = b; i < e; ++i) {
          lines[i - b] = sim->renderer().render(events[i], i);
        }
        t = tr.render.add_since(t);
        for (std::size_t i = b; i < e; ++i) {
          recs[i - b] = parse::parse_line(id, lines[i - b],
                                          util::to_civil(events[i].time).year);
        }
        t = tr.parse.add_since(t);
        for (const parse::LogRecord& rec : recs) {
          if (engine.tag(rec, scratch)) ++tr.tag_hits;
        }
        tr.tag.add_since(t);
      }
      double t = now_s();
      core::PipelineResult part =
          core::detail::process_chunk(ctx, range.begin, range.end, scratch);
      t = tr.chunk.add_since(t);
      core::detail::merge_partial(acc, std::move(part));
      tr.merge.add_since(t);
      tr.lines += range.end - range.begin;
    }
    double t = now_s();
    core::detail::finalize_result(acc);
    t = tr.merge.add_since(t);
    const auto truth = sim->ground_truth_alerts();
    t = tr.truth.add_since(t);
    const auto kept =
        filter::apply_simultaneous_parallel(truth, kThresholdUs, 1);
    tr.filter.add_since(t);
    digest_result(tr.digest, acc, truth, kept);
  }
  tr.wall = now_s() - t_start;
  return tr;
}

}  // namespace

RunResult run_study(const RunArgs& args) {
  RunResult res;
  sim::SimOptions sopts;
  sopts.seed = args.seed;
  sopts.category_cap = kCategoryCap;
  sopts.chatter_events = kChatterEvents;
  sopts.threshold_us = kThresholdUs;

  // ---- set-up: simulate all five systems, several times ----
  Sims sims;
  std::vector<double> setup_times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sims.clear();
    const StealClock clock;
    for (const auto id : parse::kAllSystems) {
      sims.push_back(std::make_unique<sim::Simulator>(id, sopts));
    }
    setup_times.push_back(clock.elapsed());
  }
  std::uint64_t events = 0;
  for (const auto& sim : sims) events += sim->events().size();

  const int threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  core::PipelineOptions popts;
  popts.num_threads = threads;
  const core::ParallelPipeline pipeline(popts);
  const int filter_threads = pipeline.resolved_threads();

  // ---- timed phase: whole studies until the time is up ----
  reset_peak_rss();
  std::vector<double> lags;
  std::vector<double> raw_lags;
  std::vector<std::uint64_t> digests;
  const double t_begin = now_s();
  const double deadline = t_begin + args.seconds;
  do {
    Digest d;
    const StealClock clock;
    res.check(study_once(sims, pipeline, filter_threads, d));
    double raw = 0.0;
    lags.push_back(clock.elapsed(&raw));
    raw_lags.push_back(raw);
    digests.push_back(d.h);
  } while (now_s() < deadline);
  const double rss = peak_rss_mb();
  // Per the median study, so one study slowed by the shared box does
  // not move the figure.
  const double throughput = static_cast<double>(events) / median(lags);

  // ---- reference: the 1-thread study (traced when asked) ----
  core::PipelineOptions serial_opts;
  serial_opts.num_threads = 1;
  const core::ParallelPipeline serial(serial_opts);
  Digest serial_digest;
  const double ts = now_s();
  res.check(study_once(sims, serial, 1, serial_digest));
  const double serial_s = now_s() - ts;
  for (const std::uint64_t h : digests) res.check(h == serial_digest.h);

  JsonObj detail;
  detail.integer("events", events)
      .integer("studies", lags.size())
      .integer("threads", static_cast<std::uint64_t>(threads))
      .integer("category_cap", kCategoryCap)
      .integer("chatter_events", kChatterEvents)
      .str("digest", std::to_string(serial_digest.h));
  const Summary lag = summarize(lags);
  detail.raw("lag", JsonObj()
                        .str("meaning", "wall time of one five-system study")
                        .integer("n", lag.n)
                        .num("p50_ms", lag.p50 * 1e3)
                        .num("tail_pct", lag.tail_pct)
                        .num("tail_ms", lag.tail * 1e3)
                        .raw("samples_s", json_array(lags))
                        .raw("raw_samples_s", json_array(raw_lags))
                        .dump());

  if (!args.trace) {
    res.metrics["setup_s"] = median(setup_times);
    res.metrics["throughput_eps"] = throughput;
    res.metrics["lag_p50_ms"] = lag.p50 * 1e3;
    res.metrics["lag_p99_ms"] = p99_or_supported(lag) * 1e3;
    res.metrics["rss_mb"] = rss;
  } else {
    // Each pass runs the untraced 1-thread study next to the traced one,
    // so the two throughputs compared share the box's conditions.
    std::vector<Traced> runs;
    std::vector<double> serial_runs = {serial_s};
    const double trace_deadline = now_s() + args.seconds;
    do {
      Digest d;
      const double t0 = now_s();
      const bool ok = study_once(sims, serial, 1, d);
      serial_runs.push_back(now_s() - t0);
      res.check(ok && d.h == serial_digest.h);
      runs.push_back(traced_study(sims));
      res.check(runs.back().digest.h == serial_digest.h);
    } while (now_s() < trace_deadline);
    const auto med = [&](auto get) { return median_by(runs, get); };
    const auto per_line = [&](SpanTotal Traced::*span) {
      return med([&](const Traced& t) {
        return (t.*span).total * 1e9 / static_cast<double>(t.lines);
      });
    };
    auto& m = res.metrics;
    m["sim.simulate_s"] = median(setup_times);
    m["sim.render_ns_per_line"] = per_line(&Traced::render);
    m["parse.ns_per_line"] = per_line(&Traced::parse);
    m["tag.ns_per_line"] = per_line(&Traced::tag);
    m["tag.hit_ratio"] = med([](const Traced& t) {
      return static_cast<double>(t.tag_hits) / static_cast<double>(t.lines);
    });
    m["core.accumulate_ns_per_line"] = med([](const Traced& t) {
      return (t.chunk.total - t.render.total - t.parse.total - t.tag.total) *
             1e9 / static_cast<double>(t.lines);
    });
    m["core.merge_s"] = med([](const Traced& t) { return t.merge.total; });
    m["sim.truth_s"] = med([](const Traced& t) { return t.truth.total; });
    m["filter.batch_s"] = med([](const Traced& t) { return t.filter.total; });
    const double serial_eps =
        static_cast<double>(events) / median(serial_runs);
    m["core.serial_eps"] = serial_eps;
    m["core.speedup"] = throughput / serial_eps;
    // Traced throughput counts the pipeline as it runs (chunk spans,
    // merge, truth, filter), without the stage-by-stage replays.
    m["trace.eps_ratio"] = med([&](const Traced& t) {
      return median(serial_runs) /
             (t.chunk.total + t.merge.total + t.truth.total + t.filter.total);
    });
    m["trace.coverage"] = med([](const Traced& t) {
      return (t.render.total + t.parse.total + t.tag.total + t.chunk.total +
              t.merge.total + t.truth.total + t.filter.total) /
             t.wall;
    });
    detail.integer("traced_runs", runs.size())
        .num("traced_wall_s", med([](const Traced& t) { return t.wall; }));
  }
  res.detail = detail.dump();
  return res;
}

}  // namespace wssbench
