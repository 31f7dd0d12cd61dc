// Percentiles and poll-based lag for the wss benchmark.
//
// Percentile rule: a timing is reported as its median plus the highest
// percentile that still has at least ten samples beyond it, with the
// sample count. Lag is measured without touching the program: a poller
// samples the server's cumulative `ingested` count, and a line counts
// as ingested at the first poll whose count covers its rank.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wssbench {

/// Quantile `q` in [0, 1] of an ascending series, by linear
/// interpolation between closest ranks (Python's
/// statistics.quantiles(method="inclusive")). NaN for an empty series.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return std::nan("");
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, 0.5);
}

/// Median over `runs` of `get(run)`.
template <typename Run, typename Get>
double median_by(const std::vector<Run>& runs, Get get) {
  std::vector<double> v;
  v.reserve(runs.size());
  for (const Run& r : runs) v.push_back(get(r));
  return median(std::move(v));
}

/// A timing summary under the percentile rule.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_pct = 50.0;  ///< highest percentile with >= 10 samples beyond
  double tail = 0.0;
  double p99 = 0.0;  ///< always computed; trustworthy only if n >= 1000
};

/// The highest of 50, 90, 99, 99.9, 99.99, 99.999 that leaves at least
/// ten of `n` samples above it; 50 when even the median does not.
inline double supported_tail_pct(std::size_t n) {
  static constexpr double kLadder[] = {99.999, 99.99, 99.9, 99.0, 90.0};
  for (const double p : kLadder) {
    // The slack absorbs rounding in 100 - p (e.g. 100 - 99.9).
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-6) return p;
  }
  return 50.0;
}

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = quantile_sorted(v, 0.5);
  s.tail_pct = supported_tail_pct(v.size());
  s.tail = quantile_sorted(v, s.tail_pct / 100.0);
  s.p99 = quantile_sorted(v, 0.99);
  return s;
}

/// The value a metric named "_p99" reports: p99 when the sample
/// supports it, otherwise the highest percentile the sample does.
inline double p99_or_supported(const Summary& s) {
  return s.tail_pct >= 99.0 ? s.p99 : s.tail;
}

/// One observation of a monotone cumulative count.
struct Poll {
  double t = 0.0;           ///< when the count was known to hold
  std::uint64_t count = 0;  ///< cumulative lines ingested
};

/// Lag of each line of a series: line j needs the count to reach
/// `first_rank + j` (ranks are 1-based cumulative counts) and was due
/// at `due[j]`; its lag is the time of the first poll whose count
/// covers it, minus `due[j]`. Lines no poll covers are not given a lag
/// and are counted in `uncovered`. `polls` must be in time order with
/// a non-decreasing count.
inline std::vector<double> lag_from_polls(const std::vector<Poll>& polls,
                                          const std::vector<double>& due,
                                          std::uint64_t first_rank,
                                          std::size_t& uncovered) {
  std::vector<double> lag;
  lag.reserve(due.size());
  uncovered = 0;
  std::size_t p = 0;
  for (std::size_t j = 0; j < due.size(); ++j) {
    const std::uint64_t rank = first_rank + j;
    while (p < polls.size() && polls[p].count < rank) ++p;
    if (p == polls.size()) {
      uncovered = due.size() - j;
      break;
    }
    lag.push_back(polls[p].t - due[j]);
  }
  return lag;
}

}  // namespace wssbench
