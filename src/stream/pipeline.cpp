#include "stream/pipeline.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>

#include "sim/spec.hpp"
#include "util/file.hpp"

namespace wss::stream {

namespace {

/// Cached handles for the stream-side metrics (registration is cold;
/// these are touched per event).
struct StreamObs {
  obs::Counter& events;
  obs::Gauge& watermark;
  obs::Histogram& latency;
  static StreamObs& get() {
    static StreamObs s{
        obs::registry().counter("wss_stream_events_total"),
        obs::registry().gauge("wss_stream_watermark_us"),
        obs::registry().histogram("wss_stream_ingest_latency_seconds",
                                  obs::latency_bounds_seconds()),
    };
    return s;
  }
};

/// Times its scope into wss_stream_ingest_latency_seconds on every 16th
/// construction (wall-clock; `tick` is never checkpointed -- it
/// measures this process, not the stream).
class LatencySample {
 public:
#ifndef WSS_OBS_OFF
  explicit LatencySample(std::uint64_t& tick) : sampled_(tick++ % 16 == 0) {
    if (sampled_) t0_ = std::chrono::steady_clock::now();
  }
  LatencySample(const LatencySample&) = delete;
  LatencySample& operator=(const LatencySample&) = delete;
  ~LatencySample() {
    if (!sampled_) return;
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0_;
    StreamObs::get().latency.observe(dt.count());
  }

 private:
  bool sampled_;
  std::chrono::steady_clock::time_point t0_;
#else
  explicit LatencySample(std::uint64_t&) {}
#endif
};

}  // namespace

StreamPipeline::StreamPipeline(parse::SystemId system,
                               StreamPipelineOptions opts)
    : system_(system),
      opts_(opts),
      engine_(tag::build_ruleset(system)),
      cats_(tag::categories_of(system)),
      study_(system, opts.study),
      filter_(opts.study.threshold_us, opts.strict_order),
      year_(opts.start_year != 0 ? opts.start_year
                                 : sim::system_spec(system).start_date.year) {
  ctx_.engine = &engine_;
  ctx_.system = system;
  ctx_.num_categories = cats_.size();
  ctx_.collect_source_tallies = opts.study.collect_source_tallies;
  if (opts_.predict.enabled) {
#ifdef WSS_PREDICT_OFF
    throw std::runtime_error(
        "prediction is compiled out in this build (WSS_PREDICT_OFF)");
#else
    predict_ = std::make_unique<PredictStage>(opts_.predict);
#endif
  }
}

void StreamPipeline::set_prediction_sink(PredictStage::PredictionSink sink) {
  psink_ = std::move(sink);
  if (predict_) predict_->set_sink(psink_);
}

void StreamPipeline::offer(const filter::Alert& a) {
#ifndef WSS_PREDICT_OFF
  if (predict_) predict_->observe(a, study_.has_ground_truth());
#endif
  const bool admitted = filter_.offer(a);
  study_.on_filter_verdict(a, admitted);
  if (admitted && sink_) sink_(a);
}

void StreamPipeline::ingest(const sim::SimEvent& e, std::string_view line) {
  const LatencySample sample(latency_tick_);
  // Reduce into the open chunk partial with the batch kernel, then let
  // the study state advance chunk bookkeeping (it merges the partial at
  // every chunk_events boundary, exactly like run_pipeline). The tagged
  // alert is dropped: the filter consumes ground truth here.
  core::detail::prepare(ctx_, line, util::to_civil(e.time).year, prepared_,
                        pscratch_, scratch_);
  core::detail::fold(ctx_, study_.partial(), line, prepared_,
                     {e.weight, e.time, &e});
  study_.on_event(e.time, e.weight, line);

  if (e.is_alert()) {
    // The ground-truth alert, constructed exactly as
    // Simulator::ground_truth_alerts() does -- the batch
    // filtered_alerts() feed.
    filter::Alert a;
    a.time = e.time;
    a.source = e.source;
    a.category = static_cast<std::uint16_t>(e.category);
    a.type = cats_.at(static_cast<std::size_t>(e.category))->type;
    a.failure_id = e.failure_id;
    a.weight = e.weight;
    offer(a);
  }

  // Simulated streams are sorted, so the watermark proves entries dead.
  if (end_line()) filter_.evict_stale();
}

bool StreamPipeline::end_line() {
  StreamObs::get().events.inc();
  if (study_.events() % opts_.study.chunk_events != 0) return false;
  flusher_.flush(scratch_);
  StreamObs::get().watermark.set(study_.watermark());
  return true;
}

std::uint32_t StreamPipeline::intern(const std::string& name) {
  // try_emplace builds a node (and copies the name) only for a source
  // not seen before; emplace would do both on every tagged line.
  const auto [it, inserted] = source_ids_.try_emplace(
      name, static_cast<std::uint32_t>(source_ids_.size()));
  return it->second;
}

int infer_year(logio::YearTracker& tracker, std::string_view line) {
  const int month = util::parse_month_abbrev(line.substr(0, 3));
  return month > 0 ? tracker.on_month(month) : tracker.year();
}

void StreamPipeline::ingest_line(std::string_view line) {
  const LatencySample sample(latency_tick_);
  // Year-rollover inference on a copy: the engine's own tracker
  // advances in apply(), the one place every file-mode line passes.
  logio::YearTracker ahead = year_;
  prepare(line, infer_year(ahead, line), prepared_, pscratch_, scratch_);
  apply(line, prepared_);
}

void StreamPipeline::prepare(std::string_view line, int year,
                             PreparedLine& out, parse::ParseScratch& pscratch,
                             match::MatchScratch& scratch) const {
  core::detail::prepare(ctx_, line, year, out, pscratch, scratch);
}

void StreamPipeline::apply(std::string_view line,
                           const PreparedLine& prepared) {
  study_.mark_no_ground_truth();
  if (prepared.month > 0) year_.on_month(prepared.month);
  const parse::LogRecord& rec = prepared.rec;
  // Analyze-style: no ground truth, every line weight 1, and a line
  // without a valid stamp sits at the watermark.
  const util::TimeUs time =
      rec.timestamp_valid ? rec.time : study_.watermark();
  std::optional<filter::Alert> a =
      core::detail::fold(ctx_, study_.partial(), line, prepared,
                         {1.0, time, nullptr});
  if (a) a->source = intern(rec.source);
  study_.on_event(time, 1.0, line);
  if (a) offer(*a);
  end_line();
}

void StreamPipeline::publish_metrics() {
  flusher_.flush(scratch_);
  filter_.publish_metrics();
  if (predict_) predict_->publish_metrics();
  StreamObs::get().watermark.set(study_.watermark());
}

void StreamPipeline::finish() {
  if (predict_) predict_->finish();
  publish_metrics();
  study_.finish();
}

StreamSnapshot StreamPipeline::snapshot() const {
  StreamSnapshot s = study_.snapshot();
  if (predict_) {
    const PredictStats ps = predict_->stats();
    s.predict_enabled = true;
    s.predict_fitted = ps.fitted;
    s.predict_issued = ps.issued;
    s.predict_hits = ps.hits;
    s.predict_misses = ps.misses;
    s.predict_false_alarms = ps.false_alarms;
    s.predict_incidents = ps.incidents;
    s.predict_rules = ps.rules;
    s.predict_candidates = ps.candidates;
    s.predict_routed = ps.routed;
  }
  return s;
}

void StreamPipeline::save(std::ostream& os) {
  // Publish first: the serialized registry must already contain every
  // pending delta, so restore can simply re-base the flushers.
  publish_metrics();
  CheckpointWriter w(os);
  w.header();
  w.u8(static_cast<std::uint8_t>(system_));

  // Options travel with the state: a restored engine must rebuild its
  // accumulators with the exact shapes the checkpoint assumes.
  w.i64(opts_.study.threshold_us);
  w.u64(opts_.study.chunk_events);
  w.i64(opts_.study.window_us);
  w.u64(opts_.study.window_buckets);
  w.u64(opts_.study.reservoir_k);
  w.u64(opts_.study.reservoir_seed);
  w.boolean(opts_.study.capture_compression_sample);
  w.boolean(opts_.study.collect_source_tallies);
  w.boolean(opts_.strict_order);

  // v3: the prediction stage travels too -- options always, state only
  // when enabled.
  w.boolean(opts_.predict.enabled);
  w.u64(opts_.predict.train_alerts);
  w.i64(opts_.predict.horizon_us);
  w.u64(opts_.predict.max_candidates);
  w.f64(opts_.predict.min_f1);

  study_.save(w);
  filter_.save(w);
  if (predict_) predict_->save(w);

  w.i64(year_.year());
  w.u32(static_cast<std::uint32_t>(year_.last_month()));
  w.u32(static_cast<std::uint32_t>(year_.rollovers()));
  w.u64(source_ids_.size());
  for (const auto& [name, id] : source_ids_) {
    w.str(name);
    w.u32(id);
  }

  // v2: the obs registry's counter/gauge tables. Histograms and spans
  // measure this process's wall time and are deliberately absent.
  write_metric_table(w, obs::registry().counter_values());
  write_metric_table(w, obs::registry().gauge_values());
  w.trailer();
  if (!w.ok()) throw std::runtime_error("checkpoint: write failed");
}

void StreamPipeline::restore(std::istream& is) {
  // Verify the whole file before the first field changes any state.
  std::istringstream body(open_envelope(util::read_stream(is),
                                        kCheckpointMagic, kCheckpointVersion,
                                        "checkpoint"));
  CheckpointReader r(body);
  const auto sys = static_cast<parse::SystemId>(r.u8());
  if (sys != system_) {
    throw std::runtime_error("checkpoint: system mismatch");
  }

  StreamStudyOptions so;
  so.threshold_us = r.i64();
  so.chunk_events = static_cast<std::size_t>(r.u64());
  so.window_us = r.i64();
  so.window_buckets = static_cast<std::size_t>(r.u64());
  so.reservoir_k = static_cast<std::size_t>(r.u64());
  so.reservoir_seed = r.u64();
  so.capture_compression_sample = r.boolean();
  so.collect_source_tallies = r.boolean();
  const bool strict = r.boolean();

  PredictOptions po;
  po.enabled = r.boolean();
  po.train_alerts = static_cast<std::size_t>(r.u64());
  po.horizon_us = r.i64();
  po.max_candidates = static_cast<std::size_t>(r.u64());
  po.min_f1 = r.f64();

  opts_.study = so;
  opts_.strict_order = strict;
  opts_.predict = po;
  ctx_.collect_source_tallies = so.collect_source_tallies;

  predict_.reset();
  if (po.enabled) {
#ifdef WSS_PREDICT_OFF
    throw std::runtime_error(
        "checkpoint has prediction state but this build has WSS_PREDICT_OFF");
#else
    predict_ = std::make_unique<PredictStage>(po);
    if (psink_) predict_->set_sink(psink_);
#endif
  }

  study_ = StreamStudyState(system_, so);
  study_.load(r);
  filter_ = OnlineSimultaneousFilter(so.threshold_us, strict);
  filter_.load(r);
  if (predict_) predict_->load(r);

  const int year = static_cast<int>(r.i64());
  const int last_month = static_cast<int>(r.u32());
  const int rollovers = static_cast<int>(r.u32());
  year_.restore(year, last_month, rollovers);

  const std::uint64_t sources = r.count(1u << 24, "source map size");
  source_ids_.clear();
  for (std::uint64_t i = 0; i < sources; ++i) {
    std::string name = r.str();
    const std::uint32_t id = r.u32();
    source_ids_[std::move(name)] = id;
  }

  // v2: restore the obs registry, then re-base the tag flusher on the
  // (transient, possibly non-zero) scratch so future flushes publish
  // only post-restore growth.
  for (const auto& [name, value] : read_metric_table<std::uint64_t>(r)) {
    obs::registry().set_counter(name, value);
  }
  for (const auto& [name, value] : read_metric_table<std::int64_t>(r)) {
    obs::registry().set_gauge(name, value);
  }
  flusher_.rebase(scratch_);
}

}  // namespace wss::stream
