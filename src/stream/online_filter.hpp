// Algorithm 3.1 on an unbounded stream: filter::SimultaneousFilter
// plus a watermark, watermark eviction and checkpointing.
//
// The redundancy test, clear(X), the category table, the tallies and
// the wss_filter_* publishing are the batch filter's own code; this
// subclass adds only what a stream that never ends needs. It rests on
// two finality properties:
//
//  1. *Decisions are final immediately.* Algorithm 3.1 is causal -- the
//     verdict on alert a_i depends only on a_1..a_i -- so an admitted
//     alert can be emitted downstream the moment offer() returns true.
//     Nothing is ever revised or retracted, and the output equals the
//     batch filter's on the same input with no lookahead at all.
//
//  2. *State older than the watermark minus T is dead.* Let W be the
//     watermark (the largest timestamp seen). On a time-sorted stream
//     every future alert has time >= W, so a table entry with
//     W - entry.time >= T can never again satisfy the redundancy test
//     "a.time - entry.time < T" -- it is provably unobservable and
//     evict_stale() may drop it. This is the quiet-gap argument that
//     makes filter::apply_simultaneous_parallel correct, applied per
//     entry instead of per segment: the filter's live state is bounded
//     by the alerts of the last T seconds (at most one entry per
//     category), never by the length of the log.
#pragma once

#include <cstdint>

#include "filter/simultaneous.hpp"
#include "stream/checkpoint.hpp"

namespace wss::stream {

/// Online simultaneous spatio-temporal filter (paper Algorithm 3.1).
class OnlineSimultaneousFilter final : public filter::SimultaneousFilter {
 public:
  /// `strict_order`: throw std::invalid_argument on a timestamp
  /// regression (the contract of the batch apply_filter). Disable for
  /// parsed real-log streams, where second-granularity stamps can tie
  /// or regress; decisions then match SimultaneousFilter::admit, which
  /// tolerates regressions.
  explicit OnlineSimultaneousFilter(util::TimeUs threshold_us,
                                    bool strict_order = true);

  /// SimultaneousFilter::admit after the strict-order check, advancing
  /// the watermark.
  bool admit(const filter::Alert& a) override;
  void reset() override {
    SimultaneousFilter::reset();
    watermark_ = 0;
  }

  /// Feeds the next alert. Returns true iff admitted; an admitted
  /// alert is final immediately (see file comment) and should be
  /// emitted downstream by the caller.
  bool offer(const filter::Alert& a) { return admit(a); }

  /// Largest timestamp seen (0 before the first alert).
  util::TimeUs watermark() const { return watermark_; }

  /// Drops table entries that the watermark proves unobservable
  /// (W - entry.time >= T). Semantics-preserving ONLY on sorted
  /// streams, so a no-op without strict_order. Called by the engine
  /// between chunks to keep resident state at its O(live categories)
  /// floor.
  void evict_stale();

  /// Live entries: current epoch and still inside the T horizon.
  std::size_t live_entries() const;

  /// Table entries dropped by evict_stale() so far.
  std::uint64_t evicted_entries() const { return evicted_entries_; }

  /// The batch filter's publish, with the occupancy gauge narrowed to
  /// live_entries(), plus the stream-only eviction counter. Call at
  /// cold points (chunk boundary, finish, save); idempotent.
  void publish_metrics() override;

  void save(CheckpointWriter& w) const;
  /// Throws std::runtime_error if the stored threshold or order mode
  /// differs from this filter's, or the stored epoch is 0.
  void load(CheckpointReader& r);

 private:
  bool strict_;
  util::TimeUs watermark_ = 0;  ///< max timestamp seen
  std::uint64_t evicted_entries_ = 0;
  // Not checkpointed: save() publishes pending deltas first, and
  // load() re-bases every publish baseline on the loaded tallies
  // because the restored registry already contains everything
  // published.
  std::uint64_t published_evicted_ = 0;
};

}  // namespace wss::stream
