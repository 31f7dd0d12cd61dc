#include "stream/checkpoint.hpp"

#include <sstream>
#include <stdexcept>

#include "core/pipeline.hpp"

namespace wss::stream {

void CheckpointWriter::raw(const void* p, std::size_t n) {
  const auto* bytes = static_cast<const char*>(p);
  os_.write(bytes, static_cast<std::streamsize>(n));
  hash_ = util::fnv1a(std::string_view(bytes, n), hash_);
  size_ += n;
}

void CheckpointWriter::u32(std::uint32_t v) {
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  raw(b, 4);
}

void CheckpointWriter::u64(std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  raw(b, 8);
}

void CheckpointWriter::str(std::string_view s) {
  u64(s.size());
  raw(s.data(), s.size());
}

void CheckpointWriter::header(std::uint32_t magic, std::uint32_t version) {
  u32(magic);
  u32(version);
}

void CheckpointWriter::trailer() {
  const std::uint64_t size = size_;
  const std::uint64_t hash = hash_;
  u64(size);
  u64(hash);
  u32(kEnvelopeEndMagic);
}

void CheckpointReader::raw(void* p, std::size_t n) {
  is_.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(is_.gcount()) != n) {
    throw std::runtime_error("checkpoint: truncated file");
  }
}

std::uint8_t CheckpointReader::u8() {
  std::uint8_t v;
  raw(&v, 1);
  return v;
}

std::uint32_t CheckpointReader::u32() {
  std::uint8_t b[4];
  raw(b, 4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t CheckpointReader::u64() {
  std::uint8_t b[8];
  raw(b, 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t CheckpointReader::count(std::uint64_t max,
                                      std::string_view what) {
  const std::uint64_t n = u64();
  if (n > max) {
    throw std::runtime_error("checkpoint: implausible " + std::string(what));
  }
  return n;
}

std::string CheckpointReader::str() {
  const std::uint64_t n = count(1ull << 32, "string length");
  std::string s(static_cast<std::size_t>(n), '\0');
  if (n > 0) raw(s.data(), static_cast<std::size_t>(n));
  return s;
}

void CheckpointReader::header(std::uint32_t magic, std::uint32_t version,
                              std::string_view what) {
  const std::string kind(what);
  if (u32() != magic) {
    throw std::runtime_error(kind + ": bad magic (not a wss " + kind + ")");
  }
  const std::uint32_t got = u32();
  if (got != version) {
    // The upgrade path users actually hit is a file from an older
    // build. Name the cure, not just the number.
    throw std::runtime_error(kind + ": unsupported version " +
                             std::to_string(got) + " (this build reads v" +
                             std::to_string(version) + "; regenerate the " +
                             kind + " with this build)");
  }
}

std::string open_envelope(std::string bytes, std::uint32_t magic,
                          std::uint32_t version, std::string_view what) {
  const std::string kind(what);
  if (bytes.size() < kEnvelopeHeaderSize) {
    throw std::runtime_error(kind + ": truncated file (no header)");
  }
  {
    std::istringstream head(bytes.substr(0, kEnvelopeHeaderSize));
    CheckpointReader(head).header(magic, version, what);
  }
  if (bytes.size() < kEnvelopeHeaderSize + kEnvelopeTrailerSize) {
    throw std::runtime_error(kind + ": truncated file (no trailer)");
  }
  const std::size_t payload = bytes.size() - kEnvelopeTrailerSize;
  std::istringstream tail(bytes.substr(payload));
  CheckpointReader t(tail);
  const std::uint64_t size = t.u64();
  const std::uint64_t hash = t.u64();
  if (t.u32() != kEnvelopeEndMagic) {
    throw std::runtime_error(kind + ": truncated or torn file (no end marker)");
  }
  if (size != payload) {
    throw std::runtime_error(kind + ": size mismatch (trailer says " +
                             std::to_string(size) + ", file has " +
                             std::to_string(payload) + " payload bytes)");
  }
  if (util::fnv1a(std::string_view(bytes.data(), payload)) != hash) {
    throw std::runtime_error(kind + ": checksum mismatch");
  }
  bytes.resize(payload);
  bytes.erase(0, kEnvelopeHeaderSize);
  return bytes;
}

void save_result(CheckpointWriter& w, const core::PipelineResult& r) {
  w.u8(static_cast<std::uint8_t>(r.system));
  w.u64(r.physical_messages);
  w.f64(r.weighted_messages);
  w.u64(r.physical_bytes);
  w.f64(r.weighted_bytes);
  w.u64(r.corrupted_source_lines);
  w.u64(r.invalid_timestamp_lines);
  w.u64(r.tagged_alerts.size());
  for (const filter::Alert& a : r.tagged_alerts) {
    w.i64(a.time);
    w.u32(a.source);
    w.u32(a.category);
    w.u8(static_cast<std::uint8_t>(a.type));
    w.u64(a.failure_id);
    w.f64(a.weight);
  }
  w.u64(r.weighted_alert_counts.size());
  for (const double v : r.weighted_alert_counts) w.f64(v);
  w.u64(r.physical_alert_counts.size());
  for (const std::uint64_t v : r.physical_alert_counts) w.u64(v);
  w.u64(r.tagging.true_positives);
  w.u64(r.tagging.false_positives);
  w.u64(r.tagging.true_negatives);
  w.u64(r.tagging.false_negatives);
  w.i64(r.categories_observed);
  w.u64(r.messages_by_source.size());
  for (const auto& [name, weight] : r.messages_by_source) {
    w.str(name);
    w.f64(weight);
  }
  w.f64(r.corrupted_source_weight);
}

core::PipelineResult load_result(CheckpointReader& r) {
  core::PipelineResult out;
  const std::uint8_t id = r.u8();
  if (id >= parse::kNumSystems) {
    throw std::runtime_error("checkpoint: bad system id in result");
  }
  out.system = static_cast<parse::SystemId>(id);
  out.physical_messages = r.u64();
  out.weighted_messages = r.f64();
  out.physical_bytes = r.u64();
  out.weighted_bytes = r.f64();
  out.corrupted_source_lines = r.u64();
  out.invalid_timestamp_lines = r.u64();
  const std::uint64_t num_alerts = r.count(1ull << 40, "alert count");
  out.tagged_alerts.reserve(num_alerts);
  for (std::uint64_t i = 0; i < num_alerts; ++i) {
    filter::Alert a;
    a.time = r.i64();
    a.source = r.u32();
    a.category = static_cast<std::uint16_t>(r.u32());
    a.type = static_cast<filter::AlertType>(r.u8());
    a.failure_id = r.u64();
    a.weight = r.f64();
    out.tagged_alerts.push_back(a);
  }
  const std::uint64_t num_weighted = r.count(1u << 20, "category count");
  out.weighted_alert_counts.reserve(num_weighted);
  for (std::uint64_t i = 0; i < num_weighted; ++i) {
    out.weighted_alert_counts.push_back(r.f64());
  }
  const std::uint64_t num_physical = r.u64();
  if (num_physical != num_weighted) {
    throw std::runtime_error(
        "checkpoint: weighted and physical category counts differ");
  }
  out.physical_alert_counts.reserve(num_physical);
  for (std::uint64_t i = 0; i < num_physical; ++i) {
    out.physical_alert_counts.push_back(r.u64());
  }
  out.tagging.true_positives = r.u64();
  out.tagging.false_positives = r.u64();
  out.tagging.true_negatives = r.u64();
  out.tagging.false_negatives = r.u64();
  out.categories_observed = static_cast<int>(r.i64());
  const std::uint64_t num_sources = r.count(1u << 24, "source count");
  for (std::uint64_t i = 0; i < num_sources; ++i) {
    std::string name = r.str();
    const double weight = r.f64();
    out.messages_by_source.emplace(std::move(name), weight);
  }
  out.corrupted_source_weight = r.f64();
  return out;
}

}  // namespace wss::stream
