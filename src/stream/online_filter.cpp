#include "stream/online_filter.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace wss::stream {

OnlineSimultaneousFilter::OnlineSimultaneousFilter(util::TimeUs threshold_us,
                                                   bool strict_order)
    : SimultaneousFilter(threshold_us), strict_(strict_order) {}

bool OnlineSimultaneousFilter::admit(const filter::Alert& a) {
  if (strict_ && any_seen_ && a.time < watermark_) {
    throw std::invalid_argument(
        "OnlineSimultaneousFilter: stream not time-sorted");
  }
  watermark_ = any_seen_ ? std::max(watermark_, a.time) : a.time;
  return SimultaneousFilter::admit(a);
}

void OnlineSimultaneousFilter::evict_stale() {
  if (!strict_) return;  // only provable on sorted streams
  for (Entry& e : table_) {
    if (e.epoch != 0 &&
        (e.epoch != epoch_ || watermark_ - e.time >= threshold_)) {
      e = Entry{};  // unobservable: future times are >= watermark
      ++evicted_entries_;
    }
  }
}

std::size_t OnlineSimultaneousFilter::live_entries() const {
  std::size_t live = 0;
  for (const Entry& e : table_) {
    if (e.epoch == epoch_ && watermark_ - e.time < threshold_) ++live;
  }
  return live;
}

void OnlineSimultaneousFilter::publish_metrics() {
  publish_tallies(live_entries());
  obs::registry()
      .counter("wss_stream_filter_evicted_entries_total")
      .inc(evicted_entries_ - published_evicted_);
  published_evicted_ = evicted_entries_;
}

void OnlineSimultaneousFilter::save(CheckpointWriter& w) const {
  w.i64(threshold_);
  w.boolean(strict_);
  w.i64(watermark_);
  w.i64(last_event_time_);
  w.boolean(any_seen_);
  w.u32(epoch_);
  w.u64(offered_);
  w.u64(admitted_);
  w.u64(evicted_entries_);
  w.u64(offered_by_cat_.size());
  for (const std::uint64_t v : offered_by_cat_) w.u64(v);
  for (const std::uint64_t v : admitted_by_cat_) w.u64(v);
  w.u64(table_.size());
  for (const Entry& e : table_) {
    w.u32(e.epoch);
    w.i64(e.time);
  }
}

void OnlineSimultaneousFilter::load(CheckpointReader& r) {
  // T and the order mode are stored twice, here and in the options
  // block the caller built this filter from; a disagreement means a
  // damaged file, and adopting either copy would change every verdict.
  if (r.i64() != threshold_) {
    throw std::runtime_error(
        "checkpoint: filter threshold disagrees with the options block");
  }
  if (r.boolean() != strict_) {
    throw std::runtime_error(
        "checkpoint: filter order mode disagrees with the options block");
  }
  watermark_ = r.i64();
  last_event_time_ = r.i64();
  any_seen_ = r.boolean();
  epoch_ = r.u32();
  if (epoch_ == 0) {
    throw std::runtime_error("checkpoint: filter epoch is 0");
  }
  offered_ = r.u64();
  admitted_ = r.u64();
  evicted_entries_ = r.u64();
  const std::uint64_t cats = r.count(1u << 20, "category count");
  offered_by_cat_.assign(static_cast<std::size_t>(cats), 0);
  admitted_by_cat_.assign(static_cast<std::size_t>(cats), 0);
  for (auto& v : offered_by_cat_) v = r.u64();
  for (auto& v : admitted_by_cat_) v = r.u64();
  const std::uint64_t n = r.count(1u << 20, "filter table size");
  table_.assign(static_cast<std::size_t>(n), Entry{});
  for (Entry& e : table_) {
    e.epoch = r.u32();
    e.time = r.i64();
  }
  // The restored registry (checkpoint v2) already holds everything
  // published before save(); re-base so nothing is double-counted.
  published_offered_ = offered_;
  published_admitted_ = admitted_;
  published_evicted_ = evicted_entries_;
  published_offered_by_cat_ = offered_by_cat_;
  published_admitted_by_cat_ = admitted_by_cat_;
}

}  // namespace wss::stream
