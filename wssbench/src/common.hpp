// Shared plumbing for the wss benchmark harness: run arguments, the
// metric registry each workload fills, JSON output, clocks, memory
// readings and result digests.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace wssbench {

/// Command-line arguments of one benchmark run.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch directory inside the checkout
  std::string wss;       ///< path of the built `wss` binary
  std::string commit;    ///< source fingerprint supplied by the runner
};

/// What a workload hands back: correctness accounting plus every
/// metric it measured, by the names BENCHMARK.json declares.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::string detail = "{}";  ///< JSON object: sample counts, tails, notes

  /// Records one checked operation.
  void check(bool ok) { count(1, ok ? 0 : 1); }

  /// Records `n` operations of which `lost` failed.
  void count(std::uint64_t n, std::uint64_t lost) {
    attempted += n;
    failed += lost;
    if (lost != 0) correct = false;
  }
};

/// Monotonic seconds.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall time corrected for CPU time the hypervisor took away.
///
/// On a shared VM the host deschedules vCPUs (the guest counts this as
/// "steal" in /proc/stat), which stretches wall time by as much as a
/// fifth from one minute to the next. A StealClock scales the wall time
/// of an interval by the share of the CPU time the box asked for that
/// it received, (user + system) / (user + system + steal), read from
/// /proc/stat at both ends. With no steal, or without /proc/stat, it
/// reads plain wall time.
class StealClock {
 public:
  StealClock() { start(); }
  void start();
  /// Seconds since start(), corrected; `raw` receives the plain wall.
  double elapsed(double* raw = nullptr) const;

 private:
  double t0_ = 0.0;
  std::uint64_t busy0_ = 0;
  std::uint64_t steal0_ = 0;
};

/// Accumulates the duration of repeated spans.
struct SpanTotal {
  double total = 0.0;
  double add_since(double t0) {
    const double t1 = now_s();
    total += t1 - t0;
    return t1;
  }
};

/// Minimal ordered JSON object builder.
class JsonObj {
 public:
  JsonObj& num(std::string_view key, double v);
  JsonObj& integer(std::string_view key, std::uint64_t v);
  JsonObj& str(std::string_view key, std::string_view v);
  JsonObj& boolean(std::string_view key, bool v);
  JsonObj& raw(std::string_view key, const std::string& json);
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_;
};

std::string json_escape(std::string_view s);
/// A JSON array of numbers, each with all its digits.
std::string json_array(const std::vector<double>& values);

/// Zeroes the process's peak-RSS mark (VmHWM) so a later reading
/// covers only what follows. False when the kernel refuses.
bool reset_peak_rss();
/// Peak resident set of this process in MiB (VmHWM).
double peak_rss_mb();

/// FNV-1a digest over the fields a check compares.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  template <typename T>
  void pod(const T& v) {
    unsigned char buf[sizeof(T)];
    std::memcpy(buf, &v, sizeof(T));
    bytes(buf, sizeof(T));
  }
  void str(std::string_view s) {
    pod(s.size());
    bytes(s.data(), s.size());
  }
};

/// Reads a whole file; empty on failure.
std::string read_file(const std::string& path);

/// Runs `argv` as a child with stdout sent to `stdout_path` and stderr
/// to `stderr_path`, waits for it, and reports its exit status (-1 when
/// it could not start or ended by a signal) and peak RSS.
struct ChildRun {
  int status = -1;
  double max_rss_mb = 0.0;
};
ChildRun run_child(const std::vector<std::string>& argv,
                   const std::string& stdout_path,
                   const std::string& stderr_path);

/// Runs net::FrameDecoder (newline framing) over `bytes`, fed in
/// recv-sized pieces as a server connection sees them, and counts the
/// frames. Returns seconds.
double frame_decode_seconds(std::string_view bytes, std::uint64_t& frames);

RunResult run_study(const RunArgs& args);
RunResult run_stream_file(const RunArgs& args);
RunResult run_serve_mixed(const RunArgs& args);

}  // namespace wssbench
