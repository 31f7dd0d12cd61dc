// Self-test of the benchmark's own arithmetic on synthetic series: the
// percentile rule and the lag-from-polls computation. Exits non-zero on
// the first failed expectation.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
    std::fprintf(stderr, "FAIL %s: got %.12g want %.12g\n", what, got, want);
    ++failures;
  }
}

void expect_eq(std::size_t got, std::size_t want, const char* what) {
  if (got != want) {
    std::fprintf(stderr, "FAIL %s: got %zu want %zu\n", what, got, want);
    ++failures;
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void test_quantiles() {
  using wssbench::quantile_sorted;
  // 1..101: position q*100 lands on whole ranks.
  const std::vector<double> v = ramp(101);
  expect_near(quantile_sorted(v, 0.5), 51.0, "median of 1..101");
  expect_near(quantile_sorted(v, 0.99), 100.0, "p99 of 1..101");
  expect_near(quantile_sorted(v, 0.0), 1.0, "min");
  expect_near(quantile_sorted(v, 1.0), 101.0, "max");
  // Interpolation between ranks: 1..4 at 0.5 -> 2.5; at 0.25 -> 1.75
  // (Python statistics.quantiles(method="inclusive") gives 1.75).
  const std::vector<double> four = ramp(4);
  expect_near(quantile_sorted(four, 0.5), 2.5, "median of 1..4");
  expect_near(quantile_sorted(four, 0.25), 1.75, "q1 of 1..4");
  expect_near(quantile_sorted({7.0}, 0.99), 7.0, "single sample");
  if (!std::isnan(quantile_sorted({}, 0.5))) {
    std::fprintf(stderr, "FAIL empty series is not NaN\n");
    ++failures;
  }
  expect_near(wssbench::median({3.0, 1.0, 2.0}), 2.0, "unsorted median");
}

void test_tail_rule() {
  using wssbench::supported_tail_pct;
  // >= 10 samples must lie beyond the reported percentile.
  expect_near(supported_tail_pct(19), 50.0, "n=19 supports only p50");
  expect_near(supported_tail_pct(100), 90.0, "n=100 -> p90");
  expect_near(supported_tail_pct(999), 90.0, "n=999 -> p90");
  expect_near(supported_tail_pct(1000), 99.0, "n=1000 -> p99");
  expect_near(supported_tail_pct(10000), 99.9, "n=10000 -> p99.9");
  expect_near(supported_tail_pct(1000000), 99.999, "n=1e6 -> p99.999");

  const wssbench::Summary s = wssbench::summarize(ramp(1000));
  expect_eq(s.n, 1000, "summary n");
  expect_near(s.p50, 500.5, "summary p50");
  expect_near(s.tail_pct, 99.0, "summary tail pct");
  expect_near(s.tail, 990.01, "summary tail");
  expect_near(wssbench::p99_or_supported(s), 990.01, "p99 supported");

  const wssbench::Summary small = wssbench::summarize(ramp(20));
  expect_near(wssbench::p99_or_supported(small), small.p50,
              "p99 unsupported falls back to the supported percentile");
}

void test_lag_from_polls() {
  using wssbench::Poll;
  // Polls every 1 ms; the count covers 2 new lines per poll.
  std::vector<Poll> polls;
  for (int i = 0; i <= 10; ++i) {
    polls.push_back({i * 1e-3, static_cast<std::uint64_t>(2 * i)});
  }
  // Five lines due at 0.0, 0.5, 1.0, 1.5, 2.0 ms, ranks 1..5.
  const std::vector<double> due = {0.0, 0.5e-3, 1.0e-3, 1.5e-3, 2.0e-3};
  std::size_t uncovered = 99;
  const std::vector<double> lag =
      wssbench::lag_from_polls(polls, due, 1, uncovered);
  expect_eq(uncovered, 0, "all covered");
  expect_eq(lag.size(), 5, "one lag per line");
  // rank 1,2 -> poll 1 (t=1ms); rank 3,4 -> poll 2; rank 5 -> poll 3.
  expect_near(lag[0], 1.0e-3, "lag line 1");
  expect_near(lag[1], 0.5e-3, "lag line 2");
  expect_near(lag[2], 1.0e-3, "lag line 3");
  expect_near(lag[3], 0.5e-3, "lag line 4");
  expect_near(lag[4], 1.0e-3, "lag line 5");

  // An offset series (lines after an earlier phase) and a stall: the
  // count holds at 20 for three polls, so lines behind it wait.
  std::vector<Poll> stall = {{0.0, 20}, {1.0, 20}, {2.0, 20}, {3.0, 23}};
  const std::vector<double> due2 = {0.5, 0.6, 0.7, 0.8};
  const std::vector<double> lag2 =
      wssbench::lag_from_polls(stall, due2, 21, uncovered);
  expect_eq(lag2.size(), 3, "three of four covered");
  expect_eq(uncovered, 1, "the fourth line never covered");
  expect_near(lag2[0], 2.5, "stalled line 1 waits for t=3");
  expect_near(lag2[2], 2.3, "stalled line 3 waits for t=3");

  // A line already covered by the first poll gets that poll's time.
  const std::vector<double> lag3 =
      wssbench::lag_from_polls(stall, {-1.0}, 5, uncovered);
  expect_near(lag3.at(0), 1.0, "covered at first poll");
}

}  // namespace

int main() {
  test_quantiles();
  test_tail_rule();
  test_lag_from_polls();
  if (failures == 0) std::printf("wssbench selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}
