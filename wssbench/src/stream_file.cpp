// Workload `stream_file`: the real
//   wss stream --system bgl --in FILE --predict --checkpoint PATH --refresh 0
// run as a child process over a BGL log generated during set-up. It
// measures the per-line reader -> IngestRing -> engine hand-off, the
// online Algorithm 3.1, the predict stage and the checkpoint writer;
// about 60% of BGL lines are alerts, so filter and predict are busy.
#include <fstream>
#include <map>
#include <thread>

#include "common.hpp"
#include "logio/input.hpp"
#include "logio/reader.hpp"
#include "parse/dispatch.hpp"
#include "sim/generator.hpp"
#include "simd/scan.hpp"
#include "stats.hpp"
#include "stream/pipeline.hpp"
#include "stream/report.hpp"
#include "stream/source.hpp"
#include "tag/rulesets.hpp"
#include "util/time.hpp"

namespace wssbench {

using namespace wss;

namespace {

// ~357k BGL lines: one child run takes ~1.3 s, so a 20 s run gathers
// about fifteen. Runs this long keep the 50 ms steps in `wss stream`'s exit
// (its signal watcher sleeps in 50 ms ticks) to a few percent.
constexpr std::uint64_t kCategoryCap = 50000;
constexpr std::uint64_t kChatterEvents = 125000;
constexpr int kSetupReps = 5;
constexpr std::size_t kChunkLines = 8192;
// Lines per timed stage batch (see study.cpp for why it is small).
constexpr std::size_t kStageBatch = 256;
constexpr std::size_t kRingSlots = 1024;  // `wss stream --queue` default

constexpr parse::SystemId kSystem = parse::SystemId::kBlueGeneL;

/// The engine options `wss stream --in FILE --predict` builds.
stream::StreamPipelineOptions cli_options() {
  stream::StreamPipelineOptions o;
  o.study.threshold_us = 5 * util::kUsPerSec;
  o.study.window_us = 3600 * util::kUsPerSec;
  o.strict_order = false;
  o.predict.enabled = true;
  return o;
}

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> out;
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p != end) {
    const char* nl = simd::find_byte(p, end, '\n');
    out.emplace_back(p, static_cast<std::size_t>(nl - p));
    p = nl == end ? end : nl + 1;
  }
  return out;
}

/// Per-layer totals of one traced pass over the file.
struct Traced {
  double wall = 0.0;
  SpanTotal read, decode, handoff, engine, engine_traced, parse, tag,
      filter, predict, save, restore;
  std::uint64_t frames = 0;
  std::uint64_t lines = 0;
  std::uint64_t alerts = 0;  ///< lines the tag stage tagged
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t issued = 0;
  std::string table;
};

Traced traced_pass(const std::string& log_path, const std::string& ck_path) {
  Traced tr;
  const double t_start = now_s();

  // logio: map the file and find the line boundaries.
  double t = now_s();
  const logio::InputBuffer input = logio::InputBuffer::open(log_path);
  const std::vector<std::string_view> lines = split_lines(input.view());
  t = tr.read.add_since(t);
  tr.lines = lines.size();

  // net: the same bytes framed as a `wss serve` TCP connection sees them.
  tr.decode.total = frame_decode_seconds(input.view(), tr.frames);
  t = now_s();

  // stream hand-off: each line copied into an item and pushed through
  // the CLI's ring to a consumer that does nothing with it.
  {
    stream::IngestRing ring(kRingSlots, stream::BackpressurePolicy::kBlock);
    std::thread consumer([&ring] {
      while (ring.pop()) {
      }
    });
    std::uint64_t index = 0;
    for (const std::string_view line : lines) {
      ring.push({index++, sim::SimEvent{}, std::string(line)});
    }
    ring.close();
    consumer.join();
  }
  t = tr.handoff.add_since(t);

  // The engine alone, untraced, then with a clock per chunk.
  stream::StreamPipeline engine(kSystem, cli_options());
  for (const std::string_view line : lines) engine.ingest_line(line);
  engine.finish();
  t = tr.engine.add_since(t);
  tr.table = stream::render_snapshot(engine.snapshot());
  tr.offered = engine.filter().offered();
  tr.admitted = engine.filter().admitted();
  tr.issued = engine.predict_stage()->stats().issued;
  {
    stream::StreamPipeline again(kSystem, cli_options());
    for (std::size_t b = 0; b < lines.size(); b += kChunkLines) {
      const double tc = now_s();
      const std::size_t e = std::min(lines.size(), b + kChunkLines);
      for (std::size_t i = b; i < e; ++i) again.ingest_line(lines[i]);
      tr.engine_traced.add_since(tc);
    }
    const double tc = now_s();
    again.finish();
    tr.engine_traced.add_since(tc);
  }

  // The engine's stages one by one over the same lines, kStageBatch
  // lines at a time: parse, tag, online filter, predict.
  {
    const tag::TagEngine tagger(tag::build_ruleset(kSystem));
    match::MatchScratch scratch;
    logio::YearTracker year(sim::system_spec(kSystem).start_date.year);
    stream::OnlineSimultaneousFilter filter(cli_options().study.threshold_us,
                                            false);
    stream::PredictStage predict(cli_options().predict);
    std::map<std::string, std::uint32_t> source_ids;
    std::vector<parse::LogRecord> recs;
    std::vector<filter::Alert> alerts;
    util::TimeUs last_time = 0;
    for (std::size_t b = 0; b < lines.size(); b += kStageBatch) {
      const std::size_t e = std::min(lines.size(), b + kStageBatch);
      double tc = now_s();
      recs.resize(e - b);
      for (std::size_t i = b; i < e; ++i) {
        const std::string_view line = lines[i];
        const int month =
            line.size() >= 3 ? util::parse_month_abbrev(line.substr(0, 3)) : 0;
        const int y = month > 0 ? year.on_month(month) : year.year();
        recs[i - b] = parse::parse_line(kSystem, line, y);
      }
      tc = tr.parse.add_since(tc);
      alerts.clear();
      for (const parse::LogRecord& rec : recs) {
        if (rec.timestamp_valid) last_time = rec.time;
        const auto tagged = tagger.tag(rec, scratch);
        if (!tagged) continue;
        filter::Alert a;
        a.time = rec.timestamp_valid ? rec.time : last_time;
        a.category = tagged->category;
        a.type = tagged->type;
        a.source = source_ids
                       .emplace(rec.source,
                                static_cast<std::uint32_t>(source_ids.size()))
                       .first->second;
        alerts.push_back(a);
      }
      tc = tr.tag.add_since(tc);
      for (const filter::Alert& a : alerts) filter.offer(a);
      tc = tr.filter.add_since(tc);
      for (const filter::Alert& a : alerts) predict.observe(a, false);
      tr.predict.add_since(tc);
      tr.alerts += alerts.size();
    }
    const double tc = now_s();
    predict.finish();
    tr.predict.add_since(tc);
  }

  // Checkpoint save and restore, as `--checkpoint` and `--restore` do.
  t = now_s();
  {
    std::ofstream os(ck_path, std::ios::binary);
    engine.save(os);
  }
  t = tr.save.add_since(t);
  tr.checkpoint_bytes = read_file(ck_path).size();
  t = now_s();
  {
    std::ifstream is(ck_path, std::ios::binary);
    stream::StreamPipeline restored(kSystem, cli_options());
    restored.restore(is);
  }
  tr.restore.add_since(t);
  tr.wall = now_s() - t_start;
  return tr;
}

}  // namespace

RunResult run_stream_file(const RunArgs& args) {
  RunResult res;
  const std::string log_path = args.work_dir + "/bgl.log";
  const std::string ck_path = args.work_dir + "/bgl.ckpt";
  sim::SimOptions sopts;
  sopts.seed = args.seed;
  sopts.category_cap = kCategoryCap;
  sopts.chatter_events = kChatterEvents;

  // ---- set-up: simulate BG/L and write its log, several times ----
  std::vector<double> setup_times;
  std::uint64_t lines = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const StealClock clock;
    const sim::Simulator simulator(kSystem, sopts);
    std::ofstream out(log_path, std::ios::binary);
    lines = 0;
    simulator.for_each_line([&](std::string_view line) {
      out.write(line.data(), static_cast<std::streamsize>(line.size()));
      out.put('\n');
      ++lines;
    });
    out.close();
    if (!out) throw std::runtime_error("cannot write " + log_path);
    setup_times.push_back(clock.elapsed());
  }

  // ---- reference: the engine replayed in-process on the same lines ----
  std::string reference;
  {
    const std::string text = read_file(log_path);
    stream::StreamPipeline engine(kSystem, cli_options());
    for (const std::string_view line : split_lines(text)) {
      engine.ingest_line(line);
    }
    engine.finish();
    reference = stream::render_snapshot(engine.snapshot());
  }

  JsonObj detail;
  detail.integer("lines", lines)
      .integer("category_cap", kCategoryCap)
      .integer("chatter_events", kChatterEvents);

  if (!args.trace) {
    const std::vector<std::string> argv = {
        args.wss,  "stream",  "--system",     "bgl",     "--in",
        log_path,  "--predict", "--checkpoint", ck_path, "--refresh",
        "0"};
    const std::string out_path = args.work_dir + "/child.out";
    const std::string err_path = args.work_dir + "/child.err";
    std::vector<double> walls;
    std::vector<double> raw_walls;
    std::vector<double> rss;
    const double deadline = now_s() + args.seconds;
    do {
      const StealClock clock;
      const ChildRun c = run_child(argv, out_path, err_path);
      double raw = 0.0;
      walls.push_back(clock.elapsed(&raw));
      raw_walls.push_back(raw);
      rss.push_back(c.max_rss_mb);
      res.check(c.status == 0 && read_file(out_path) == reference);
    } while (now_s() < deadline);
    const Summary lag = summarize(walls);
    res.metrics["setup_s"] = median(setup_times);
    // Per the median child run, so one run slowed by the shared box
    // does not move the figure.
    res.metrics["throughput_eps"] = static_cast<double>(lines) / lag.p50;
    res.metrics["lag_p50_ms"] = lag.p50 * 1e3;
    res.metrics["lag_p99_ms"] = p99_or_supported(lag) * 1e3;
    res.metrics["rss_mb"] = median(rss);
    detail.raw("lag", JsonObj()
                          .str("meaning", "wall time of one `wss stream` child")
                          .integer("n", lag.n)
                          .num("p50_ms", lag.p50 * 1e3)
                          .num("tail_pct", lag.tail_pct)
                          .num("tail_ms", lag.tail * 1e3)
                          .raw("samples_s", json_array(walls))
                          .raw("raw_samples_s", json_array(raw_walls))
                          .dump());
  } else {
    std::vector<Traced> runs;
    const double deadline = now_s() + args.seconds;
    do {
      runs.push_back(traced_pass(log_path, ck_path));
      res.check(runs.back().table == reference);
    } while (now_s() < deadline);
    const auto med = [&](auto get) { return median_by(runs, get); };
    const auto per = [&](SpanTotal Traced::*span, std::uint64_t Traced::*n) {
      return med([&](const Traced& t) {
        return (t.*span).total * 1e9 / static_cast<double>(t.*n);
      });
    };
    auto& m = res.metrics;
    m["logio.read_ns_per_line"] = per(&Traced::read, &Traced::lines);
    m["net.decode_ns_per_line"] = per(&Traced::decode, &Traced::frames);
    m["stream.handoff_ns_per_line"] = per(&Traced::handoff, &Traced::lines);
    m["stream.engine_ns_per_line"] = per(&Traced::engine, &Traced::lines);
    m["parse.ns_per_line"] = per(&Traced::parse, &Traced::lines);
    m["tag.ns_per_line"] = per(&Traced::tag, &Traced::lines);
    m["tag.hit_ratio"] = med([](const Traced& t) {
      return static_cast<double>(t.alerts) / static_cast<double>(t.lines);
    });
    m["filter.online_ns_per_alert"] = per(&Traced::filter, &Traced::alerts);
    m["filter.admit_ratio"] = med([](const Traced& t) {
      return static_cast<double>(t.admitted) / static_cast<double>(t.offered);
    });
    m["predict.ns_per_alert"] = per(&Traced::predict, &Traced::alerts);
    m["predict.issued"] =
        med([](const Traced& t) { return static_cast<double>(t.issued); });
    m["stream.checkpoint_save_s"] =
        med([](const Traced& t) { return t.save.total; });
    m["stream.checkpoint_bytes"] = med([](const Traced& t) {
      return static_cast<double>(t.checkpoint_bytes);
    });
    m["stream.restore_s"] =
        med([](const Traced& t) { return t.restore.total; });
    m["trace.eps_ratio"] = med([](const Traced& t) {
      return t.engine.total / t.engine_traced.total;
    });
    m["trace.coverage"] = med([](const Traced& t) {
      return (t.read.total + t.decode.total + t.handoff.total +
              t.engine.total + t.engine_traced.total + t.parse.total +
              t.tag.total + t.filter.total + t.predict.total + t.save.total +
              t.restore.total) /
             t.wall;
    });
    detail.integer("traced_runs", runs.size())
        .num("traced_wall_s", med([](const Traced& t) { return t.wall; }));
  }
  res.detail = detail.dump();
  return res;
}

}  // namespace wssbench
