#include "common.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "net/framing.hpp"

namespace wssbench {

void JsonObj::key(std::string_view k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += json_escape(k);
  body_ += "\":";
}

JsonObj& JsonObj::num(std::string_view k, double v) {
  key(k);
  if (!std::isfinite(v)) {
    body_ += "null";
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  body_ += buf;
  return *this;
}

JsonObj& JsonObj::integer(std::string_view k, std::uint64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonObj& JsonObj::str(std::string_view k, std::string_view v) {
  key(k);
  body_ += '"';
  body_ += json_escape(v);
  body_ += '"';
  return *this;
}

JsonObj& JsonObj::boolean(std::string_view k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObj& JsonObj::raw(std::string_view k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", values[i]);
    if (i != 0) out += ',';
    out += buf;
  }
  return out + "]";
}

namespace {

/// Aggregate (user + nice + system + irq + softirq, steal) ticks from
/// the first line of /proc/stat; zeros when it cannot be read.
void read_cpu_ticks(std::uint64_t& busy, std::uint64_t& steal) {
  busy = 0;
  steal = 0;
  std::ifstream f("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  if (!(f >> cpu) || cpu != "cpu") return;
  for (std::uint64_t& x : v) {
    if (!(f >> x)) return;
  }
  // user nice system idle iowait irq softirq steal
  busy = v[0] + v[1] + v[2] + v[5] + v[6];
  steal = v[7];
}

}  // namespace

void StealClock::start() {
  read_cpu_ticks(busy0_, steal0_);
  t0_ = now_s();
}

double StealClock::elapsed(double* raw) const {
  const double wall = now_s() - t0_;
  std::uint64_t busy = 0;
  std::uint64_t steal = 0;
  read_cpu_ticks(busy, steal);
  if (raw != nullptr) *raw = wall;
  const std::uint64_t b = busy - busy0_;
  const std::uint64_t s = steal - steal0_;
  if (b == 0 || busy < busy0_ || steal < steal0_) return wall;
  return wall * static_cast<double>(b) / static_cast<double>(b + s);
}

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

ChildRun run_child(const std::vector<std::string>& argv,
                   const std::string& stdout_path,
                   const std::string& stderr_path) {
  ChildRun r;
  std::vector<char*> cargv;
  for (const std::string& a : argv) {
    cargv.push_back(const_cast<char*>(a.c_str()));
  }
  cargv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return r;
  if (pid == 0) {
    constexpr int kFlags = O_WRONLY | O_CREAT | O_TRUNC;
    const int out = open(stdout_path.c_str(), kFlags, 0644);
    const int err = open(stderr_path.c_str(), kFlags, 0644);
    if (out < 0 || err < 0) _exit(127);
    dup2(out, 1);
    dup2(err, 2);
    execv(cargv[0], cargv.data());
    _exit(127);
  }
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) return r;
  }
  r.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB
  r.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

double frame_decode_seconds(std::string_view bytes, std::uint64_t& frames) {
  constexpr std::size_t kPiece = 64 * 1024;
  wss::net::FrameDecoder dec;
  std::string_view frame;
  const double t0 = now_s();
  for (std::size_t off = 0; off < bytes.size(); off += kPiece) {
    const std::size_t n = std::min(kPiece, bytes.size() - off);
    std::memcpy(dec.write_window(n), bytes.data() + off, n);
    dec.commit(n);
    while (dec.next_view(frame)) ++frames;
  }
  while (dec.finish_view(frame)) ++frames;
  return now_s() - t0;
}

}  // namespace wssbench
