// Network ingest server performance: aggregate delivered events/sec
// through `wss serve`'s sharded event loop, swept over loop-shard
// counts {1, 4} and concurrent TCP connections {1, 2, 4} (one tenant
// per connection, loopback), plus ingest-latency percentiles.
//
// The blasters pre-render their lines and write them in large batched
// segments, so the measurement is the server -- accept, frame
// decoding, tenant routing, batched ring hand-off, and the per-tenant
// stream engines -- not the clients. Throughput counts events the
// engines actually ingested (lossless path: delivered == ingested is
// asserted). Every client stamps its lines (`stamp=us`), so the
// tenants' wss_net_ingest_latency_seconds histograms capture
// client-send -> engine-consume latency; p50/p99/p999 are
// interpolated from the bucket deltas each configuration produced.
//
// Appends one JSON-lines record per configuration to
// BENCH_serve.json. The printed scale-out divides the 4-shard /
// 4-connection rate by the same run's 1-shard / 4-connection row, so
// both sides share one machine and one load. The long-term ceiling is
// the in-process single-stream figure (~2.9M ev/s, ROADMAP). The bench
// floor stays a conservative 200k aggregate ev/s so CI flags real
// regressions without flaking on loaded runners.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "sim/generator.hpp"
#include "util/strings.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct RunResult {
  double events_per_sec = 0.0;
  std::uint64_t delivered = 0;
};

struct Percentiles {
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  std::uint64_t samples = 0;
};

/// Cumulative per-bucket counts of every bench tenant's ingest-latency
/// histogram (they are process-global and only grow; callers diff two
/// snapshots to isolate one configuration's samples).
std::vector<std::uint64_t> latency_snapshot(int conns) {
  using namespace wss;
  std::vector<std::uint64_t> total;
  for (int c = 0; c < conns; ++c) {
    // Find-or-create with the canonical bounds: idempotent, and the
    // tenants register with the same bounds before observing anything.
    const obs::Histogram& h = obs::registry().histogram(
        util::format("wss_net_ingest_latency_seconds{tenant=\"bench%d\"}", c),
        obs::latency_bounds_seconds());
    const std::vector<std::uint64_t> counts = h.bucket_counts();
    if (total.size() < counts.size()) total.resize(counts.size(), 0);
    for (std::size_t b = 0; b < counts.size(); ++b) total[b] += counts[b];
  }
  return total;
}

/// Linear interpolation inside the winning bucket; the +Inf bucket
/// reports its lower bound (the histogram cannot resolve beyond it).
Percentiles percentiles_from_delta(const std::vector<std::uint64_t>& before,
                                   const std::vector<std::uint64_t>& after) {
  const std::vector<double>& bounds = wss::obs::latency_bounds_seconds();
  std::vector<std::uint64_t> delta(after.size(), 0);
  Percentiles out;
  for (std::size_t b = 0; b < after.size(); ++b) {
    delta[b] = after[b] - (b < before.size() ? before[b] : 0);
    out.samples += delta[b];
  }
  if (out.samples == 0) return out;
  const auto quantile = [&](double q) {
    const double rank = q * static_cast<double>(out.samples);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < delta.size(); ++b) {
      if (delta[b] == 0) continue;
      const double lo = b == 0 ? 0.0 : bounds[b - 1];
      if (b >= bounds.size()) return lo;  // +Inf bucket
      const double hi = bounds[b];
      if (static_cast<double>(seen + delta[b]) >= rank) {
        const double frac =
            (rank - static_cast<double>(seen)) / static_cast<double>(delta[b]);
        return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
      }
      seen += delta[b];
    }
    return bounds.back();
  };
  out.p50 = quantile(0.50);
  out.p99 = quantile(0.99);
  out.p999 = quantile(0.999);
  return out;
}

RunResult run_once(const std::vector<std::string>& lines, int conns,
                   int shards) {
  using namespace wss;

  net::ServeOptions opts;
  opts.loop_shards = shards;
  opts.tcp.push_back({0, ""});  // ephemeral, handshake-routed
  for (int c = 0; c < conns; ++c) {
    net::TenantConfig cfg;
    cfg.name = util::format("bench%d", c);
    cfg.system = parse::SystemId::kLiberty;
    cfg.queue_capacity = 65536;
    opts.tenants.push_back(cfg);
  }
  net::Server server(std::move(opts));
  server.bind();
  const std::uint16_t port = server.tcp_port(0);

  std::thread serving([&server] { server.run(); });

  const auto t0 = Clock::now();
  std::vector<std::thread> blasters;
  for (int c = 0; c < conns; ++c) {
    blasters.emplace_back([&lines, port, c] {
      net::SinkOptions sopts;
      sopts.endpoint = {net::Transport::kTcp, "127.0.0.1", port};
      sopts.tenant = util::format("bench%d", c);
      sopts.system_short = "liberty";
      // WSS_PERF_SERVE_STAMP=0 measures the unstamped wire format (no
      // latency columns) -- the isolation knob for stamp overhead.
      const char* stamp_env = std::getenv("WSS_PERF_SERVE_STAMP");
      sopts.stamp_latency = stamp_env == nullptr || stamp_env[0] != '0';
      // Coalesced writes: one syscall per ~64KB instead of per line,
      // so the measurement is the server, not the blaster's syscalls.
      sopts.send_batch_bytes = 64 * 1024;
      net::SinkClient client(sopts);
      for (const std::string& line : lines) client.send(0, line);
      client.close();
    });
  }
  for (auto& b : blasters) b.join();
  server.request_stop();
  serving.join();

  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  const std::uint64_t total =
      static_cast<std::uint64_t>(lines.size()) *
      static_cast<std::uint64_t>(conns);
  // TCP into a sized ring is the lossless path; a shortfall means the
  // server lost frames and the number would be meaningless.
  const std::string status = server.status_json();
  if (status.find("\"dropped\":0") == std::string::npos) std::abort();
  RunResult r;
  r.delivered = total;
  r.events_per_sec = static_cast<double>(total) / secs;
  return r;
}

}  // namespace

int main() {
  using namespace wss;

  std::cout << "==== perf_serve: sharded network ingest throughput ====\n";

  sim::SimOptions sopts;
  sopts.category_cap = 20000;
  sopts.chatter_events = 120000;
  const sim::Simulator simulator(parse::SystemId::kLiberty, sopts);
  const auto& events = simulator.events();
  std::vector<std::string> lines;
  lines.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    lines.push_back(simulator.renderer().render(events[i], i));
  }
  std::cout << util::format(
      "  workload        liberty cap=20000 chatter=120000 (%zu lines/conn)\n",
      lines.size());

  constexpr double kFloorEventsPerSec = 200000.0;
  constexpr double kTargetEventsPerSec = 2900000.0;
  constexpr int kReps = 3;
  bool all_pass = true;
  double best_1shard_4conns = 0.0;
  double best_4shards_4conns = 0.0;

  std::ofstream os("BENCH_serve.json", std::ios::app);
  for (const int shards : {1, 4}) {
    for (const int conns : {1, 2, 4}) {
      const std::vector<std::uint64_t> lat_before = latency_snapshot(conns);
      RunResult best;
      for (int r = 0; r < kReps; ++r) {
        const RunResult run = run_once(lines, conns, shards);
        best.events_per_sec =
            std::max(best.events_per_sec, run.events_per_sec);
        best.delivered = run.delivered;
      }
      const Percentiles lat =
          percentiles_from_delta(lat_before, latency_snapshot(conns));
      const bool pass = best.events_per_sec >= kFloorEventsPerSec;
      all_pass = all_pass && pass;
      if (conns == 4) {
        (shards == 1 ? best_1shard_4conns : best_4shards_4conns) =
            best.events_per_sec;
      }
      std::cout << util::format(
          "  %d shard(s) %d conn(s)  %10.0f ev/s aggregate (best of %d)  "
          "lat p50=%.1fus p99=%.1fus p999=%.1fus [%llu samples]: %s\n",
          shards, conns, best.events_per_sec, kReps, lat.p50 * 1e6,
          lat.p99 * 1e6, lat.p999 * 1e6,
          static_cast<unsigned long long>(lat.samples),
          pass ? "PASS" : "FAIL");
      if (os) {
        os << util::format(
                  "{\"bench\":\"perf_serve\",\"loop_shards\":%d,"
                  "\"connections\":%d,\"events\":%llu,"
                  "\"events_per_sec\":%.1f,"
                  "\"latency_p50_s\":%.6f,\"latency_p99_s\":%.6f,"
                  "\"latency_p999_s\":%.6f,\"latency_samples\":%llu,"
                  "\"floor_events_per_sec\":%.0f,"
                  "\"target_events_per_sec\":%.0f,\"pass\":%s}",
                  shards, conns,
                  static_cast<unsigned long long>(best.delivered),
                  best.events_per_sec, lat.p50, lat.p99, lat.p999,
                  static_cast<unsigned long long>(lat.samples),
                  kFloorEventsPerSec, kTargetEventsPerSec,
                  pass ? "true" : "false")
           << "\n";
      }
    }
  }
  std::cout << util::format("  floor           %.0f events/sec aggregate\n",
                            kFloorEventsPerSec);
  std::cout << util::format(
      "  scale-out       %.2fx at 4 shards / 4 conns over this run's 1 "
      "shard / 4 conns (%.0fk ev/s)\n",
      best_4shards_4conns / best_1shard_4conns, best_1shard_4conns / 1000.0);
  std::cout << "(appended to BENCH_serve.json)\n";
  return all_pass ? 0 : 1;
}
