// Workload `serve_mixed`: an in-process net::Server with the defaults
// of `wss serve` (one loop shard, 4096-slot tenant rings, no HTTP) and
// two handshake-routed TCP tenants, BGL (alert-heavy) and Liberty
// (chatter-heavy). One generator thread feeds them over two
// net::SinkClient connections from pre-rendered lines, interleaved in
// proportion to the two logs' sizes, while a poller reads
// Server::status_json() every ~100 us.
//
// Phase 1 (saturation) sends a fixed number of lines as fast as TCP
// accepts them, in bursts on fresh connections. Phase 2 (open loop)
// sends at the fixed aggregate rate kRateLps and times each line from
// when it was due, not from when it was sent, so a stall also delays
// the lines behind it.
//
// One loop shard is deliberate: with two connections SO_REUSEPORT
// places them on shards differently from run to run.
#include <atomic>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "sim/generator.hpp"
#include "stats.hpp"
#include "stream/pipeline.hpp"
#include "stream/report.hpp"

namespace wssbench {

using namespace wss;

namespace {

constexpr int kSetupReps = 3;
constexpr std::size_t kSatLines = 450000;
constexpr std::size_t kSatBursts = 5;
// Open-loop aggregate rate: about two thirds of the ~110k lines/s
// saturated rate measured at seeds 1-11 on a 4-core x86 VM. Fixed;
// later changes to the program must not move it.
constexpr double kRateLps = 75000.0;
// Share of --seconds given to the open-loop phase.
constexpr double kRateShare = 0.6;
constexpr std::size_t kSendBatchBytes = 64 * 1024;
constexpr auto kPollSleep = std::chrono::microseconds(100);
constexpr double kSendTick = 0.001;
constexpr std::size_t kChunkLines = 8192;
constexpr double kLagWindowS = 0.5;
constexpr double kIngestTimeoutS = 30.0;

struct TenantLog {
  const char* name;
  parse::SystemId system;
  std::uint64_t category_cap;
  std::uint64_t chatter_events;
  std::vector<std::string> lines;
};

/// The pipeline options a handshake tenant of `wss serve` gets.
stream::StreamPipelineOptions tenant_options() {
  stream::StreamPipelineOptions o;
  o.study.threshold_us = 5 * util::kUsPerSec;
  o.study.window_us = 3600 * util::kUsPerSec;
  o.strict_order = false;
  return o;
}

/// Reads the unsigned number after `"key":` at or past `from`.
std::uint64_t json_u64(const std::string& s, std::size_t from,
                       std::string_view key) {
  std::string pat = "\"";
  pat += key;
  pat += "\":";
  const std::size_t at = s.find(pat, from);
  if (at == std::string::npos) return 0;
  return std::strtoull(s.c_str() + at + pat.size(), nullptr, 10);
}

/// One poll of the server's status, reduced to what the metrics use.
struct StatusPoll {
  double t = 0.0;  ///< after the status was read
  std::uint64_t ingested[2] = {0, 0};
  std::uint64_t queue[2] = {0, 0};
  std::uint64_t shard_delivered = 0;
  std::uint64_t shard_batches = 0;
};

StatusPoll parse_status(const std::string& json, double t,
                        const TenantLog (&logs)[2]) {
  StatusPoll p;
  p.t = t;
  for (int k = 0; k < 2; ++k) {
    const std::string key = std::string("\"name\":\"") + logs[k].name + "\"";
    const std::size_t at = json.find(key);
    if (at == std::string::npos) continue;
    p.ingested[k] = json_u64(json, at, "ingested");
    p.queue[k] = json_u64(json, at, "queue");
  }
  const std::size_t shards = json.find("\"shards\":[");
  if (shards != std::string::npos) {
    p.shard_delivered = json_u64(json, shards, "delivered");
    p.shard_batches = json_u64(json, shards, "batches");
  }
  return p;
}

/// Which tenant line i of the merged stream goes to: a deterministic
/// interleave in proportion to the two logs' sizes.
std::vector<std::uint8_t> interleave(std::size_t n0, std::size_t n1,
                                     std::size_t total) {
  std::vector<std::uint8_t> who;
  who.reserve(total);
  std::size_t a = 0;
  std::size_t b = 0;
  for (std::size_t i = 0; i < total; ++i) {
    // Send to tenant 0 while its share of the sent lines lags n0/(n0+n1).
    const bool zero = b >= n1 || (a < n0 && a * (n0 + n1) <= i * n0);
    who.push_back(zero ? 0 : 1);
    (zero ? a : b)++;
  }
  return who;
}

struct Replay {
  std::string table;
  double seconds = 0.0;
  double traced_seconds = 0.0;
};

/// The tenant's engine alone over the lines it was sent: the reference
/// table, the untraced engine time, and (when asked) the time with a
/// clock per chunk.
Replay replay(parse::SystemId system, const std::vector<std::string>& lines,
              std::size_t count, bool traced) {
  Replay r;
  {
    stream::StreamPipeline engine(system, tenant_options());
    const double t0 = now_s();
    for (std::size_t i = 0; i < count; ++i) engine.ingest_line(lines[i]);
    engine.finish();
    r.seconds = now_s() - t0;
    r.table = stream::render_snapshot(engine.snapshot());
  }
  if (traced) {
    stream::StreamPipeline engine(system, tenant_options());
    SpanTotal span;
    for (std::size_t b = 0; b < count; b += kChunkLines) {
      const double t0 = now_s();
      const std::size_t e = std::min(count, b + kChunkLines);
      for (std::size_t i = b; i < e; ++i) engine.ingest_line(lines[i]);
      span.add_since(t0);
    }
    const double t0 = now_s();
    engine.finish();
    span.add_since(t0);
    r.traced_seconds = span.total;
  }
  return r;
}

/// FrameDecoder over the exact bytes a SinkClient sends for `count`
/// lines (handshake first). Returns seconds.
double decode_seconds(const TenantLog& log, std::size_t count,
                      std::uint64_t& frames) {
  std::string bytes = std::string("tenant=") + log.name + " system=" +
                      log.name + "\n";
  for (std::size_t i = 0; i < count; ++i) {
    bytes += log.lines[i];
    bytes += '\n';
  }
  return frame_decode_seconds(bytes, frames);
}

}  // namespace

RunResult run_serve_mixed(const RunArgs& args) {
  RunResult res;
  TenantLog logs[2] = {
      {"bgl", parse::SystemId::kBlueGeneL, 25000, 62500, {}},
      {"liberty", parse::SystemId::kLiberty, 20000, 780000, {}},
  };

  // ---- set-up: simulate and render both logs, several times ----
  std::vector<double> setup_times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = now_s();
    for (TenantLog& log : logs) {
      log.lines.clear();
      log.lines.shrink_to_fit();
      sim::SimOptions sopts;
      sopts.seed = args.seed;
      sopts.category_cap = log.category_cap;
      sopts.chatter_events = log.chatter_events;
      const sim::Simulator simulator(log.system, sopts);
      log.lines.reserve(simulator.events().size());
      simulator.for_each_line(
          [&](std::string_view line) { log.lines.emplace_back(line); });
    }
    setup_times.push_back(now_s() - t0);
  }
  const std::size_t available = logs[0].lines.size() + logs[1].lines.size();
  const std::size_t sat_lines = std::min(kSatLines, available);
  const std::size_t rate_lines = std::min(
      static_cast<std::size_t>(kRateLps * kRateShare * args.seconds),
      available - sat_lines);
  const std::vector<std::uint8_t> who =
      interleave(logs[0].lines.size(), logs[1].lines.size(),
                 sat_lines + rate_lines);

  const double t_server = now_s();
  net::ServeOptions sopts;
  sopts.tcp.push_back({});  // ephemeral port, handshake-routed
  sopts.tenant_defaults.threshold_s = 5.0;
  sopts.tenant_defaults.window_s = 3600.0;
  sopts.tenant_defaults.queue_capacity = 4096;
  sopts.tenant_defaults.system = parse::SystemId::kLiberty;
  sopts.loop_shards = 1;
  net::Server server(std::move(sopts));
  server.bind();
  net::ServeReport report;
  std::exception_ptr server_error;
  std::thread server_thread([&] {
    try {
      report = server.run();
    } catch (...) {
      server_error = std::current_exception();
    }
  });
  // A fresh pair of connections per saturation burst and for the open
  // loop: the burst's pause/resume pattern then starts from scratch
  // each time instead of locking in for the whole run.
  std::unique_ptr<net::SinkClient> clients[2];
  const auto connect = [&] {
    for (int k = 0; k < 2; ++k) {
      if (clients[k]) clients[k]->close();
      net::SinkOptions o;
      o.endpoint.transport = net::Transport::kTcp;
      o.endpoint.host = "127.0.0.1";
      o.endpoint.port = server.tcp_port(0);
      o.tenant = logs[k].name;
      o.system_short = logs[k].name;
      o.send_batch_bytes = kSendBatchBytes;
      clients[k] = std::make_unique<net::SinkClient>(o);
    }
  };
  connect();
  const double server_start_s = now_s() - t_server;

  // ---- poller ----
  // The poller appends under polls_mu; the generator reads the newest
  // poll under it to tell when every sent line has been ingested.
  std::vector<StatusPoll> polls;
  std::mutex polls_mu;
  std::atomic<bool> polling{true};
  std::thread poller([&] {
    while (polling.load(std::memory_order_relaxed)) {
      const std::string json = server.status_json();
      const StatusPoll p = parse_status(json, now_s(), logs);
      {
        const std::lock_guard<std::mutex> lock(polls_mu);
        polls.push_back(p);
      }
      std::this_thread::sleep_for(kPollSleep);
    }
  });
  const auto poll_index = [&] {
    const std::lock_guard<std::mutex> lock(polls_mu);
    return polls.size();
  };
  // Waits until a poll shows every sent line ingested, or gives up
  // after kIngestTimeoutS (the lines never ingested then fail the
  // checks); returns the index and time of the last poll.
  std::uint64_t sent[2] = {0, 0};
  const auto wait_ingested = [&] {
    const double give_up = now_s() + kIngestTimeoutS;
    for (;;) {
      {
        const std::lock_guard<std::mutex> lock(polls_mu);
        if (!polls.empty() &&
            ((polls.back().ingested[0] >= sent[0] &&
              polls.back().ingested[1] >= sent[1]) ||
             now_s() > give_up)) {
          return std::make_pair(polls.size() - 1, polls.back().t);
        }
      }
      std::this_thread::sleep_for(kPollSleep);
    }
  };

  reset_peak_rss();

  // ---- phase 1: saturation, in bursts ----
  struct Burst {
    std::size_t first_poll = 0;
    std::size_t last_poll = 0;
    double seconds = 0.0;
  };
  std::vector<Burst> bursts;
  std::size_t next[2] = {0, 0};
  for (std::size_t i = 0; i < sat_lines;) {
    if (!bursts.empty()) connect();
    Burst b;
    b.first_poll = poll_index();
    const double t0 = now_s();
    const std::size_t end = std::min(sat_lines, i + kSatLines / kSatBursts);
    for (; i < end; ++i) {
      const int k = who[i];
      clients[k]->send(0, logs[k].lines[next[k]++]);
      ++sent[k];
    }
    clients[0]->flush();
    clients[1]->flush();
    const auto [last, t1] = wait_ingested();
    b.last_poll = last;
    b.seconds = t1 - t0;
    bursts.push_back(b);
  }
  const std::uint64_t sat_sent[2] = {sent[0], sent[1]};
  connect();

  // ---- phase 2: open loop at kRateLps ----
  // Every kSendTick the generator wakes, sends the lines that have come
  // due and flushes: a batching shipper that leaves the CPU to the
  // server between ticks. Lag still counts from each line's due time.
  std::vector<double> due[2];
  std::vector<double> late;
  late.reserve(rate_lines);
  const double t_rate0 = now_s() + 0.002;
  std::size_t j = 0;
  for (double tick = t_rate0; j < rate_lines; tick += kSendTick) {
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(tick))));
    const double t = now_s();
    for (; j < rate_lines; ++j) {
      const double d = t_rate0 + static_cast<double>(j) / kRateLps;
      if (d > t) break;
      const int k = who[sat_lines + j];
      clients[k]->send(0, logs[k].lines[next[k]++]);
      ++sent[k];
      due[k].push_back(d);
      late.push_back(now_s() - d);
    }
    clients[0]->flush();
    clients[1]->flush();
  }
  wait_ingested();
  polling.store(false, std::memory_order_relaxed);
  poller.join();
  const double rss = peak_rss_mb();

  clients[0]->close();
  clients[1]->close();
  server.request_stop();
  server_thread.join();
  if (server_error) std::rethrow_exception(server_error);

  // ---- lag from polls ----
  std::vector<double> lags;
  std::vector<std::vector<double>> window_lags;
  std::size_t uncovered = 0;
  for (int k = 0; k < 2; ++k) {
    std::vector<Poll> series;
    series.reserve(polls.size());
    for (const StatusPoll& p : polls) series.push_back({p.t, p.ingested[k]});
    std::size_t missing = 0;
    const std::vector<double> l =
        lag_from_polls(series, due[k], sat_sent[k] + 1, missing);
    lags.insert(lags.end(), l.begin(), l.end());
    for (std::size_t j = 0; j < l.size(); ++j) {
      const auto w =
          static_cast<std::size_t>((due[k][j] - t_rate0) / kLagWindowS);
      if (w >= window_lags.size()) window_lags.resize(w + 1);
      window_lags[w].push_back(l[j]);
    }
    uncovered += missing;
  }
  const Summary lag = summarize(lags);
  const Summary gen_late = summarize(late);
  // Per-window percentiles, then their median: a stall of the shared
  // box (not of the program) spoils a window, not the whole figure.
  std::vector<double> window_p50;
  std::vector<double> window_p99;
  for (std::vector<double>& w : window_lags) {
    if (w.size() < 1000) continue;  // a partial last window
    const Summary ws = summarize(std::move(w));
    window_p50.push_back(ws.p50);
    window_p99.push_back(ws.p99);
  }

  // ---- checks: every line delivered and ingested, tables equal the
  // engine replayed on the same lines ----
  Replay replays[2];
  JsonObj tenants;
  for (int k = 0; k < 2; ++k) {
    const net::ServeTenantReport* tr = nullptr;
    for (const auto& t : report.tenants) {
      if (t.name == logs[k].name) tr = &t;
    }
    replays[k] = replay(logs[k].system, logs[k].lines, sent[k], args.trace);
    const std::uint64_t ingested = tr != nullptr ? tr->ingested : 0;
    res.count(sent[k], sent[k] - std::min(sent[k], ingested));
    res.check(tr != nullptr && tr->delivered == sent[k] && tr->dropped == 0 &&
              tr->table == replays[k].table);
    tenants.raw(logs[k].name,
                JsonObj()
                    .integer("sent", sent[k])
                    .integer("sat_sent", sat_sent[k])
                    .integer("delivered", tr != nullptr ? tr->delivered : 0)
                    .integer("dropped", tr != nullptr ? tr->dropped : 0)
                    .integer("ingested", ingested)
                    .boolean("table_equal",
                             tr != nullptr && tr->table == replays[k].table)
                    .dump());
  }
  if (uncovered != 0) res.correct = false;

  double sat_s = 0.0;
  for (const Burst& b : bursts) sat_s += b.seconds;
  JsonObj detail;
  detail.integer("sat_lines", sat_lines)
      .integer("sat_bursts", bursts.size())
      .integer("rate_lines", rate_lines)
      .num("rate_lps", kRateLps)
      .num("sat_s", sat_s)
      .num("server_start_s", server_start_s)
      .integer("polls", polls.size())
      .raw("tenants", tenants.dump())
      .raw("lag", JsonObj()
                      .str("meaning",
                           "due time -> first poll covering the line")
                      .integer("n", lag.n)
                      .integer("uncovered", uncovered)
                      .num("p50_ms", lag.p50 * 1e3)
                      .num("p99_ms", lag.p99 * 1e3)
                      .num("tail_pct", lag.tail_pct)
                      .num("tail_ms", lag.tail * 1e3)
                      .integer("windows", window_p99.size())
                      .num("window_median_p50_ms", median(window_p50) * 1e3)
                      .num("window_median_p99_ms", median(window_p99) * 1e3)
                      .dump())
      .raw("gen_late", JsonObj()
                           .integer("n", gen_late.n)
                           .num("p50_ms", gen_late.p50 * 1e3)
                           .num("p99_ms", gen_late.p99 * 1e3)
                           .num("tail_pct", gen_late.tail_pct)
                           .num("tail_ms", gen_late.tail * 1e3)
                           .dump());

  if (!args.trace) {
    res.metrics["setup_s"] = median(setup_times) + server_start_s;
    res.metrics["throughput_eps"] = static_cast<double>(sat_lines) / sat_s;
    res.metrics["lag_p50_ms"] = median(window_p50) * 1e3;
    res.metrics["lag_p99_ms"] = median(window_p99) * 1e3;
    res.metrics["rss_mb"] = rss;
  } else {
    auto& m = res.metrics;
    std::uint64_t frames = 0;
    double decode_s = 0.0;
    for (int k = 0; k < 2; ++k) {
      decode_s += decode_seconds(logs[k], sent[k], frames);
    }
    // Handshake lines are frames too; the per-line cost counts them.
    m["net.decode_ns_per_line"] = decode_s * 1e9 / static_cast<double>(frames);
    // Saturation-phase counters, summed over the bursts.
    std::uint64_t delivered = 0;
    std::uint64_t batches = 0;
    std::uint64_t ingested[2] = {0, 0};
    std::vector<double> depth[2];
    for (const Burst& b : bursts) {
      const StatusPoll& first = polls[b.first_poll];
      const StatusPoll& last = polls[b.last_poll];
      delivered += last.shard_delivered - first.shard_delivered;
      batches += last.shard_batches - first.shard_batches;
      for (int k = 0; k < 2; ++k) {
        ingested[k] += last.ingested[k] - first.ingested[k];
        for (std::size_t p = b.first_poll; p <= b.last_poll; ++p) {
          depth[k].push_back(static_cast<double>(polls[p].queue[k]));
        }
      }
    }
    m["net.lines_per_batch"] =
        static_cast<double>(delivered) / static_cast<double>(batches);
    double engine_s = 0.0;
    double traced_s = 0.0;
    for (int k = 0; k < 2; ++k) {
      const std::string suffix = std::string(".") + logs[k].name;
      const double eps = static_cast<double>(sent[k]) / replays[k].seconds;
      engine_s += replays[k].seconds;
      traced_s += replays[k].traced_seconds;
      m["stream.engine_eps" + suffix] = eps;
      m["net.consumer_busy_frac" + suffix] =
          static_cast<double>(ingested[k]) / eps / sat_s;
      std::sort(depth[k].begin(), depth[k].end());
      m["net.queue_depth_p99" + suffix] = quantile_sorted(depth[k], 0.99);
    }
    m["net.gen_late_p99_ms"] = gen_late.p99 * 1e3;
    m["trace.eps_ratio"] = engine_s / traced_s;
  }
  res.detail = detail.dump();
  return res;
}

}  // namespace wssbench
