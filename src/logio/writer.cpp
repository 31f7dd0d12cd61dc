#include "logio/writer.hpp"

#include <fstream>
#include <map>
#include <stdexcept>

#include "compress/codec.hpp"
#include "util/strings.hpp"

namespace wss::logio {

namespace {

void write_file(const std::filesystem::path& path, const std::string& text,
                bool compressed, WriteResult& result) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("write_log: cannot open " + path.string());
  }
  if (compressed) {
    const std::string packed = compress::compress(text);
    out.write(packed.data(), static_cast<std::streamsize>(packed.size()));
    result.bytes_written += packed.size();
  } else {
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    result.bytes_written += text.size();
  }
  if (!out) {
    throw std::runtime_error("write_log: write failed for " + path.string());
  }
  ++result.files;
}

}  // namespace

WriteResult write_log(const sim::Simulator& simulator,
                      const std::filesystem::path& path,
                      const WriteOptions& opts) {
  WriteResult result;
  const char* ext = opts.compressed ? "messages.wsc" : "messages";

  if (opts.per_source_dirs) {
    // syslog-ng layout: one subdirectory per source node.
    std::map<std::uint32_t, std::string> per_source;
    const auto& events = simulator.events();
    simulator.for_each_line([&](std::string_view line) {
      auto& text = per_source[events[result.lines].source];
      text.append(line);
      text.push_back('\n');
      ++result.lines;
    });
    for (const auto& [source, text] : per_source) {
      const auto dir = path / simulator.namer().name(source);
      std::filesystem::create_directories(dir);
      write_file(dir / ext, text, opts.compressed, result);
    }
    return result;
  }

  std::string text;
  simulator.for_each_line([&](std::string_view line) {
    text.append(line);
    text.push_back('\n');
    ++result.lines;
  });
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  write_file(path, text, opts.compressed, result);
  return result;
}

std::string read_log_text(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("read_log_text: cannot open " + path.string());
  }
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (path.extension() == ".wsc") return compress::decompress(data);
  return data;
}

}  // namespace wss::logio
