#include "util/file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace wss::util {

namespace {

/// fsyncs `file` through a descriptor of its own (std::ofstream exposes
/// none; the kernel syncs the file's data whichever descriptor asks).
/// Returns 0, or the errno of the failed open/fsync.
int sync_to_disk(const std::string& file) {
  const int fd = ::open(file.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return errno;
  const int err = ::fsync(fd) == 0 ? 0 : errno;
  ::close(fd);
  return err;
}

std::string unique_tag() {
  static std::atomic<std::uint64_t> next{0};
  return std::to_string(::getpid()) + "-" + std::to_string(next++);
}

}  // namespace

void publish_file(const std::string& path,
                  const std::function<void(std::ostream&)>& write,
                  const std::string& tmp_tag) {
  const std::string tmp =
      path + "." + (tmp_tag.empty() ? unique_tag() : tmp_tag) + ".tmp";
  std::string why;
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("cannot open " + path);
    try {
      write(os);
      os.close();  // flushes; sets failbit if that write fails
      if (!os) why = "write failed";
    } catch (const std::exception& e) {
      why = e.what();
    }
  }
  if (why.empty()) {
    if (const int err = sync_to_disk(tmp)) {
      why = std::string("fsync failed: ") + std::strerror(err);
    } else if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      why = std::strerror(errno);
    }
  }
  if (why.empty()) return;
  std::remove(tmp.c_str());
  throw std::runtime_error("cannot write " + path + ": " + why);
}

std::string read_stream(std::istream& is) {
  std::ostringstream ss;
  ss << is.rdbuf();
  return std::move(ss).str();
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path);
  return read_stream(is);
}

}  // namespace wss::util
