// Binary serialization for persisted state: streaming checkpoints and
// distributed partial-result files share this one codec and envelope.
//
// A checkpoint must round-trip *bit-exactly*: the restored engine has
// to produce the same FP sums, the same reservoir decisions, and the
// same filter verdicts as an uninterrupted run, or the
// checkpoint -> restore -> finish equivalence guarantee (and the test
// that enforces it) breaks. Doubles are therefore written as their raw
// IEEE-754 bit patterns, never through decimal text, and every integer
// is fixed-width little-endian so a checkpoint is portable across
// builds of the same version.
//
// Every persisted file is framed and checksummed: a u32 magic + u32
// version header; typed fields in the fixed order of the save()/load()
// pairs; a 20-byte trailer of u64 payload size, u64 FNV-1a of the
// payload (header + fields) and u32 end magic "WSSE". open_envelope()
// checks all of it before a single field is parsed, so a torn,
// truncated or bit-flipped file is refused whole. There is no schema
// evolution; a version bump invalidates old files (they cover hours of
// stream, not years of archive).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/strings.hpp"

namespace wss::core {
struct PipelineResult;
}  // namespace wss::core

namespace wss::stream {

/// Format tag written at the head of every checkpoint file.
/// v2: adds the obs registry counter/gauge tables and the filter's
/// per-category tallies + eviction count (restore-and-finish reports
/// the same --metrics snapshot as an uninterrupted run).
/// v3: adds the prediction stage -- PredictOptions always, and when
/// prediction is enabled the full miner/predictor/pending state.
/// v4: the shared PipelineResult codec (save_result) and the trailer.
inline constexpr std::uint32_t kCheckpointMagic = 0x57535343u;  // "WSSC"
inline constexpr std::uint32_t kCheckpointVersion = 4;

/// Closes the trailer of every framed file.
inline constexpr std::uint32_t kEnvelopeEndMagic = 0x57535345u;  // "WSSE"
inline constexpr std::size_t kEnvelopeHeaderSize = 4 + 4;
inline constexpr std::size_t kEnvelopeTrailerSize = 8 + 8 + 4;

/// Little-endian fixed-width field writer. It keeps a running byte
/// count and FNV-1a hash (util::fnv1a) of everything it writes, with
/// no buffering of its own, so trailer() can close a file of any size.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(std::ostream& os) : os_(os) {}

  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s);

  /// Writes the (magic, version) header that opens a framed file.
  void header(std::uint32_t magic = kCheckpointMagic,
              std::uint32_t version = kCheckpointVersion);

  /// Writes the 20-byte trailer over everything written so far: u64
  /// size, u64 FNV-1a, u32 kEnvelopeEndMagic. Call last.
  void trailer();

  bool ok() const { return static_cast<bool>(os_); }

 private:
  void raw(const void* p, std::size_t n);
  std::ostream& os_;
  std::uint64_t size_ = 0;
  std::uint64_t hash_ = util::kFnv1aBasis;
};

/// Reader mirroring CheckpointWriter. Every accessor throws
/// std::runtime_error on truncation; header() additionally validates
/// magic and version.
class CheckpointReader {
 public:
  explicit CheckpointReader(std::istream& is) : is_(is) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }
  std::string str();

  /// Reads a u64 element count; throws "checkpoint: implausible
  /// <what>" when it exceeds `max`.
  std::uint64_t count(std::uint64_t max, std::string_view what);

  /// Reads and validates a (magic, version) header; `what` names the
  /// file kind in the diagnostic. Any other version is refused with a
  /// "regenerate" hint.
  void header(std::uint32_t magic = kCheckpointMagic,
              std::uint32_t version = kCheckpointVersion,
              std::string_view what = "checkpoint");

 private:
  void raw(void* p, std::size_t n);
  std::istream& is_;
};

/// Verifies a whole framed file -- magic, then version, then trailer
/// end magic, size and checksum -- and returns the fields between the
/// header and the trailer, ready to parse. `what` ("checkpoint",
/// "partial") names the file kind in the one-line std::runtime_error.
std::string open_envelope(std::string bytes, std::uint32_t magic,
                          std::uint32_t version, std::string_view what);

// ---- Shared PipelineResult serialization ----
//
// One chunk or running-total PipelineResult, every field, in one
// format: stream checkpoints carry the study state's total and open
// chunk, dist partials carry each computed chunk.

void save_result(CheckpointWriter& w, const core::PipelineResult& r);

/// Throws std::runtime_error on a bad system id, an implausible count,
/// or weighted/physical per-category tables of different lengths.
core::PipelineResult load_result(CheckpointReader& r);

// ---- Shared metric-table serialization (checkpoint v2 payloads) ----
//
// The obs registry's counter/gauge tables travel in two places: stream
// checkpoints (so a restored run reports the same --metrics snapshot)
// and distributed partial-result files (so `wss merge` can fold each
// worker's deltas back into one registry). Both use this one format:
// u64 count, then (str name, u64/i64 value) pairs in sorted-name order.

/// V is std::uint64_t (counters) or std::int64_t (gauges, written as
/// their two's-complement bits).
template <typename V>
void write_metric_table(CheckpointWriter& w,
                        const std::vector<std::pair<std::string, V>>& table) {
  w.u64(table.size());
  for (const auto& [name, value] : table) {
    w.str(name);
    w.u64(static_cast<std::uint64_t>(value));
  }
}

/// Validates the count against a sanity bound (1M entries); throws
/// std::runtime_error on implausible tables or truncation.
template <typename V>
std::vector<std::pair<std::string, V>> read_metric_table(CheckpointReader& r) {
  const std::uint64_t n = r.count(1u << 20, "metric table size");
  std::vector<std::pair<std::string, V>> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name = r.str();
    out.emplace_back(std::move(name), static_cast<V>(r.u64()));
  }
  return out;
}

}  // namespace wss::stream
