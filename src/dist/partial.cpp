#include "dist/partial.hpp"

#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "util/file.hpp"

namespace wss::dist {

namespace {

void write_payload(std::ostream& os, const PartialFile& partial) {
  stream::CheckpointWriter w(os);
  w.header(kPartialMagic, kPartialVersion);
  w.u32(partial.assignment);
  w.u32(partial.worker);
  w.str(partial.instance);
  w.u64(partial.systems.size());
  for (const SystemPartial& sys : partial.systems) {
    w.u8(static_cast<std::uint8_t>(sys.system));
    w.u64(sys.chunks.size());
    for (const ChunkPartial& chunk : sys.chunks) {
      w.u64(chunk.chunk);
      stream::save_result(w, chunk.result);
    }
  }
  stream::write_metric_table(w, partial.counter_deltas);
  w.trailer();
}

PartialFile parse_payload(std::string payload) {
  std::istringstream is(std::move(payload), std::ios::binary);
  stream::CheckpointReader r(is);
  PartialFile p;
  p.assignment = r.u32();
  p.worker = r.u32();
  p.instance = r.str();
  const std::uint64_t num_systems = r.count(parse::kNumSystems, "system count");
  p.systems.reserve(num_systems);
  for (std::uint64_t s = 0; s < num_systems; ++s) {
    SystemPartial sys;
    const std::uint8_t id = r.u8();
    if (id >= parse::kNumSystems) {
      throw std::runtime_error("partial: bad system id");
    }
    sys.system = static_cast<parse::SystemId>(id);
    const std::uint64_t num_chunks = r.count(1ull << 32, "chunk count");
    sys.chunks.reserve(num_chunks);
    for (std::uint64_t c = 0; c < num_chunks; ++c) {
      ChunkPartial chunk;
      chunk.chunk = r.u64();
      chunk.result = stream::load_result(r);
      sys.chunks.push_back(std::move(chunk));
    }
    p.systems.push_back(std::move(sys));
  }
  p.counter_deltas = stream::read_metric_table<std::uint64_t>(r);
  return p;
}

}  // namespace

void write_partial(const PartialFile& partial, const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  util::publish_file(
      path, [&](std::ostream& os) { write_payload(os, partial); },
      partial.instance);
}

PartialFile read_partial(const std::string& path) {
  try {
    return parse_payload(stream::open_envelope(
        util::read_file(path), kPartialMagic, kPartialVersion, "partial"));
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

bool partial_is_valid(const std::string& path, std::uint32_t assignment) {
  try {
    return read_partial(path).assignment == assignment;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace wss::dist
