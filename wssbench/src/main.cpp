// wssbench: the wss benchmark harness.
//
//   wssbench --workload study|stream_file|serve_mixed --seed N
//            --seconds S --trace 0|1 --work DIR --wss PATH [--commit ID]
//
// Prints one record line (fingerprint, seed, sample counts, tails and
// every metric) and then, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones,
// where a layer a workload does not exercise reads 0.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "simd/dispatch.hpp"

namespace {

using wssbench::JsonObj;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"throughput_eps", "1/s"}, {"lag_p50_ms", "ms"},
    {"lag_p99_ms", "ms"},   {"rss_mb", "MiB"},         {"ok_frac", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.simulate_s", "s"},
    {"sim.render_ns_per_line", "ns"},
    {"sim.truth_s", "s"},
    {"parse.ns_per_line", "ns"},
    {"tag.ns_per_line", "ns"},
    {"tag.hit_ratio", "ratio"},
    {"core.accumulate_ns_per_line", "ns"},
    {"core.merge_s", "s"},
    {"core.serial_eps", "1/s"},
    {"core.speedup", "ratio"},
    {"filter.batch_s", "s"},
    {"logio.read_ns_per_line", "ns"},
    {"stream.handoff_ns_per_line", "ns"},
    {"stream.engine_ns_per_line", "ns"},
    {"filter.online_ns_per_alert", "ns"},
    {"filter.admit_ratio", "ratio"},
    {"predict.ns_per_alert", "ns"},
    {"predict.issued", "count"},
    {"stream.checkpoint_save_s", "s"},
    {"stream.checkpoint_bytes", "bytes"},
    {"stream.restore_s", "s"},
    {"net.decode_ns_per_line", "ns"},
    {"net.lines_per_batch", "count"},
    {"stream.engine_eps.bgl", "1/s"},
    {"stream.engine_eps.liberty", "1/s"},
    {"net.consumer_busy_frac.bgl", "ratio"},
    {"net.consumer_busy_frac.liberty", "ratio"},
    {"net.queue_depth_p99.bgl", "count"},
    {"net.queue_depth_p99.liberty", "count"},
    {"net.gen_late_p99_ms", "ms"},
    {"trace.eps_ratio", "ratio"},
    {"trace.coverage", "ratio"},
};

#ifndef WSSBENCH_BUILD_TYPE
#define WSSBENCH_BUILD_TYPE "unknown"
#endif

std::string fingerprint(const wssbench::RunArgs& args) {
  JsonObj f;
  f.integer("nproc", std::thread::hardware_concurrency())
      .str("simd", wss::simd::level_name(wss::simd::active_level()))
      .str("build_type", WSSBENCH_BUILD_TYPE)
#if defined(__clang__)
      .str("compiler", std::string("clang ") + __clang_version__)
#elif defined(__GNUC__)
      .str("compiler", std::string("gcc ") + __VERSION__)
#else
      .str("compiler", "unknown")
#endif
      .str("commit", args.commit);
  return f.dump();
}

int usage(const char* why) {
  std::cerr << "wssbench: " << why
            << "\nusage: wssbench --workload study|stream_file|serve_mixed "
               "--seed N --seconds S --trace 0|1 --work DIR --wss PATH "
               "[--commit ID]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  wssbench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      args.trace = v == "1";
    } else if (k == "--work") {
      args.work_dir = v;
    } else if (k == "--wss") {
      args.wss = v;
    } else if (k == "--commit") {
      args.commit = v;
    } else {
      return usage(("unknown flag " + k).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (args.work_dir.empty() || args.seconds <= 0.0) {
    return usage("--work and a positive --seconds are required");
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) return usage(("cannot create " + args.work_dir).c_str());

  wssbench::RunResult res;
  try {
    if (args.workload == "study") {
      res = wssbench::run_study(args);
    } else if (args.workload == "stream_file") {
      if (args.wss.empty()) return usage("stream_file needs --wss");
      res = wssbench::run_stream_file(args);
    } else if (args.workload == "serve_mixed") {
      res = wssbench::run_serve_mixed(args);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::cerr << "wssbench: " << args.workload << ": " << e.what() << "\n";
    return 1;
  }

  const double fail_frac =
      res.attempted == 0 ? 1.0
                         : static_cast<double>(res.failed) /
                               static_cast<double>(res.attempted);
  res.metrics["ok_frac"] = 1.0 - fail_frac;

  JsonObj metrics;
  JsonObj all;
  if (args.trace) {
    for (const MetricDef& d : kPerLayer) {
      const auto it = res.metrics.find(d.name);
      const double v = it == res.metrics.end() ? 0.0 : it->second;
      metrics.raw(d.name, JsonObj().num("value", v).str("unit", d.unit).dump());
    }
  } else {
    for (const MetricDef& d : kEndToEnd) {
      const auto it = res.metrics.find(d.name);
      if (it == res.metrics.end()) {
        std::cerr << "wssbench: " << args.workload << " did not measure "
                  << d.name << "\n";
        return 1;
      }
      metrics.raw(
          d.name,
          JsonObj().num("value", it->second).str("unit", d.unit).dump());
    }
  }
  for (const auto& [name, value] : res.metrics) all.num(name, value);

  JsonObj record;
  record.str("record", "wssbench.v1")
      .str("workload", args.workload)
      .integer("seed", args.seed)
      .num("seconds", args.seconds)
      .boolean("trace", args.trace)
      .raw("fingerprint", fingerprint(args))
      .num("fail_frac", fail_frac)
      .raw("measured", all.dump())
      .raw("detail", res.detail);
  std::cout << record.dump() << "\n";

  JsonObj result;
  result.boolean("correct", res.correct && res.attempted > 0)
      .integer("attempted", std::max<std::uint64_t>(res.attempted, 1))
      .integer("failed", res.attempted == 0 ? 1 : res.failed)
      .raw("metrics", metrics.dump());
  std::cout << result.dump() << std::endl;
  return 0;
}
