#include "filter/simultaneous.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/metrics.hpp"

namespace wss::filter {

SimultaneousFilter::SimultaneousFilter(util::TimeUs threshold_us,
                                       bool use_clear_optimization)
    : threshold_(threshold_us), use_clear_(use_clear_optimization) {
  if (threshold_us <= 0) {
    throw std::invalid_argument("SimultaneousFilter: threshold must be > 0");
  }
}

bool SimultaneousFilter::admit(const Alert& a) {
  if (use_clear_ && any_seen_ && a.time - last_event_time_ > threshold_) {
    // clear(X): every entry is older than last_event_time_ <=
    // a.time - T, so none can satisfy the redundancy test. The epoch
    // bump invalidates them all in O(1).
    ++epoch_;
  }
  last_event_time_ = a.time;
  any_seen_ = true;

  if (a.category >= table_.size()) {
    table_.resize(static_cast<std::size_t>(a.category) + 1);
  }
  if (a.category >= offered_by_cat_.size()) {
    offered_by_cat_.resize(static_cast<std::size_t>(a.category) + 1, 0);
    admitted_by_cat_.resize(static_cast<std::size_t>(a.category) + 1, 0);
  }
  Entry& e = table_[a.category];
  const bool redundant =
      e.epoch == epoch_ && a.time - e.time < threshold_;
  e.epoch = epoch_;
  e.time = a.time;
  ++offered_;
  ++offered_by_cat_[a.category];
  if (!redundant) {
    ++admitted_;
    ++admitted_by_cat_[a.category];
  }
  return !redundant;
}

void SimultaneousFilter::publish_metrics() { publish_tallies(table_size()); }

void SimultaneousFilter::publish_tallies(std::size_t live_entries) {
  auto& reg = obs::registry();
  const std::uint64_t d_offered = offered_ - published_offered_;
  const std::uint64_t d_admitted = admitted_ - published_admitted_;
  reg.counter("wss_filter_offered_total").inc(d_offered);
  reg.counter("wss_filter_admitted_total").inc(d_admitted);
  reg.counter("wss_filter_suppressed_total").inc(d_offered - d_admitted);
  published_offered_ = offered_;
  published_admitted_ = admitted_;
  published_offered_by_cat_.resize(offered_by_cat_.size(), 0);
  published_admitted_by_cat_.resize(admitted_by_cat_.size(), 0);
  for (std::size_t c = 0; c < offered_by_cat_.size(); ++c) {
    if (const auto d = offered_by_cat_[c] - published_offered_by_cat_[c]) {
      obs::labeled_counter("wss_filter_offered_by_category_total", "category",
                           c)
          .inc(d);
    }
    if (const auto d = admitted_by_cat_[c] - published_admitted_by_cat_[c]) {
      obs::labeled_counter("wss_filter_admitted_by_category_total", "category",
                           c)
          .inc(d);
    }
    published_offered_by_cat_[c] = offered_by_cat_[c];
    published_admitted_by_cat_[c] = admitted_by_cat_[c];
  }
  reg.gauge("wss_filter_table_live_entries")
      .set(static_cast<std::int64_t>(live_entries));
}

void SimultaneousFilter::reset() {
  table_.clear();
  last_event_time_ = 0;
  any_seen_ = false;
  epoch_ = 1;
}

std::size_t SimultaneousFilter::table_size() const {
  std::size_t live = 0;
  for (const Entry& e : table_) live += e.epoch == epoch_ ? 1 : 0;
  return live;
}

std::vector<std::size_t> quiet_gap_segments(const std::vector<Alert>& in,
                                            util::TimeUs threshold_us) {
  std::vector<std::size_t> starts;
  if (in.empty()) return starts;
  starts.push_back(0);
  for (std::size_t i = 1; i < in.size(); ++i) {
    if (in[i].time < in[i - 1].time) {
      throw std::invalid_argument(
          "quiet_gap_segments: stream not time-sorted");
    }
    if (in[i].time - in[i - 1].time > threshold_us) starts.push_back(i);
  }
  return starts;
}

std::vector<Alert> apply_simultaneous_parallel(const std::vector<Alert>& in,
                                               util::TimeUs threshold_us,
                                               int num_threads,
                                               bool use_clear_optimization) {
  // Validates sortedness (and the threshold) even on the serial path.
  const auto starts = quiet_gap_segments(in, threshold_us);
  if (num_threads <= 1 || starts.size() <= 1) {
    SimultaneousFilter f(threshold_us, use_clear_optimization);
    auto out = apply_filter(f, in);
    f.publish_metrics();
    return out;
  }

  // One output slot per segment; workers claim segments with an atomic
  // counter (segments are many and cheap -- no queue needed here).
  std::vector<std::vector<Alert>> kept(starts.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    SimultaneousFilter f(threshold_us, use_clear_optimization);
    for (std::size_t s = next.fetch_add(1); s < starts.size();
         s = next.fetch_add(1)) {
      const std::size_t begin = starts[s];
      const std::size_t end = s + 1 < starts.size() ? starts[s + 1] : in.size();
      f.reset();
      for (std::size_t i = begin; i < end; ++i) {
        if (f.admit(in[i])) kept[s].push_back(in[i]);
      }
    }
    f.publish_metrics();  // once per worker, after its last segment
  };

  const int workers = std::min<int>(num_threads,
                                    static_cast<int>(starts.size()));
  {
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) pool.emplace_back(worker);
  }

  std::vector<Alert> out;
  std::size_t total = 0;
  for (const auto& k : kept) total += k.size();
  out.reserve(total);
  for (const auto& k : kept) out.insert(out.end(), k.begin(), k.end());
  return out;
}

}  // namespace wss::filter
