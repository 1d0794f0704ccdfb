// Metric arithmetic of the repository benchmark (perfbench/README.md).
//
// Everything here is a pure function of measured or simulated values, so it
// is unit-tested on its own (perfbench/tests/metrics_test.cc). No simulated
// value is pinned: the functions take whatever the simulator produced.

#ifndef SGXB_PERFBENCH_METRICS_H_
#define SGXB_PERFBENCH_METRICS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/common/stats.h"

namespace perfbench {

// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// One instrumented run next to the native run of the same job.
struct OverheadPair {
  double scheme = 0.0;  // simulated cycles (or peak VM bytes) under the scheme
  double native = 0.0;  // the same quantity under native
  bool crashed = false;  // either run trapped
};

// Geometric mean of scheme/native over the pairs where neither run crashed,
// as in the paper's Fig. 7 (a crashed run has no meaningful ratio). 0 when
// no pair qualifies.
inline double GeomeanOverhead(const std::vector<OverheadPair>& pairs) {
  double log_sum = 0.0;
  size_t n = 0;
  for (const OverheadPair& p : pairs) {
    if (p.crashed || p.scheme <= 0.0 || p.native <= 0.0) {
      continue;
    }
    log_sum += std::log(p.scheme / p.native);
    ++n;
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

// Simulated p99 in cycles over every request: completed requests at their
// latency, requests that timed out (already in `latency` via AddTimeout) and
// requests that failed with an app error (`app_failures`, not in the
// histogram) at `deadline_cycles`. A failed request therefore can only push
// the tail up, never hide from it.
inline double CappedP99Cycles(sgxb::LatencyHistogram latency, uint64_t app_failures,
                              uint64_t deadline_cycles) {
  if (app_failures > 0) {
    latency.AddTimeout(deadline_cycles, app_failures);
  }
  return latency.CappedQuantile(0.99);
}

// Completed requests whose latency is at most `limit_cycles`, read off the
// histogram (exact up to its bucket resolution): the largest k such that the
// k-th smallest completed latency is within the limit.
inline uint64_t CompletedWithin(const sgxb::LatencyHistogram& latency, double limit_cycles) {
  const uint64_t n = latency.count();
  uint64_t lo = 0;  // invariant: the lo-th smallest is within the limit (0 = vacuous)
  uint64_t hi = n;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo + 1) / 2;
    const double q = (static_cast<double>(mid) - 0.5) / static_cast<double>(n);
    if (latency.Quantile(q) <= limit_cycles) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

// True when an open-loop run ended with a backlog that was still growing:
// the last completion came more than 5% later than the arrival window
// (requests / offered rate) would allow. A system that keeps up finishes a
// few service times after the last arrival.
inline bool BacklogGrows(uint64_t requests, double offered_rps, uint64_t makespan_cycles,
                         double ghz) {
  const double window_s = static_cast<double>(requests) / offered_rps;
  const double makespan_s = static_cast<double>(makespan_cycles) / (ghz * 1e9);
  return makespan_s > window_s * 1.05;
}

// One rung of the offered-load ladder.
struct LadderPoint {
  double rate_krps = 0.0;
  double p99_us = 0.0;
  bool backlog_grows = false;
};

// Highest offered rate on the ladder (ascending) up to which every rung met
// the p99 limit without a growing backlog; 0 when the first rung fails.
inline double MaxRateAtSlo(const std::vector<LadderPoint>& ladder, double p99_limit_us) {
  double best = 0.0;
  for (const LadderPoint& p : ladder) {
    if (p.backlog_grows || p.p99_us > p99_limit_us) {
      break;
    }
    best = p.rate_krps;
  }
  return best;
}

// Self time of a layer: its own time minus the parts of it attributed to
// other layers, floored at 0 (the parts are estimates measured separately,
// so their sum can exceed the total by noise).
inline double SelfSeconds(double total_s, const std::vector<double>& parts_s) {
  double self = total_s;
  for (double p : parts_s) {
    self -= p;
  }
  return std::max(0.0, self);
}

}  // namespace perfbench

#endif  // SGXB_PERFBENCH_METRICS_H_
