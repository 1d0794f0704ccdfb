// Small statistics helpers for benchmark reporting: running mean/min/max,
// geometric mean (the paper reports "gmean" across benchmarks), percentiles
// for latency distributions, and overhead formatting.

#ifndef SGXBOUNDS_SRC_COMMON_STATS_H_
#define SGXBOUNDS_SRC_COMMON_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace sgxb {

class RunningStat {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }
  // Sample standard deviation (Welford).
  double stddev() const;

 private:
  size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

// Mergeable log-bucket latency histogram (DDSketch-flavoured): values map to
// geometrically spaced buckets with exact integer counts, so any quantile
// comes back with bounded relative error (<= `kGamma - 1` ≈ 2%) and two
// histograms recorded independently merge into exactly the histogram of the
// combined stream — which is what lets the farm accumulate per-shard request
// latencies host-parallel and still report deterministic fleet p50/p99/p999.
//
// Values are nonnegative integers (simulated cycles). Zero gets its own
// exact bucket; everything else lands in bucket floor(log_gamma(v)).
//
// Timeout semantics: an open-loop run with per-request deadlines produces
// requests that never complete. Recording nothing for them silently deflates
// the tail quantiles (a hung shard would *improve* reported p999), so
// timeouts are first-class: AddTimeout(deadline) counts the request and
// remembers the largest client deadline observed. Quantile()/P99()/... keep
// their historical meaning and EXCLUDE timeouts (quantiles of completed
// requests only); CappedQuantile() INCLUDES each timeout as a sample capped
// at the deadline — a lower bound on the true quantile, which is the honest
// choice for availability reporting. Digest() covers the timeout counters
// only when they are nonzero, so histograms without timeouts keep their
// pre-existing digests bit for bit.
class LatencyHistogram {
 public:
  // Bucket boundaries grow by kGamma per bucket: relative quantile error is
  // at most (kGamma - 1) / (kGamma + 1) one-sided, < 2% reported value.
  static constexpr double kGamma = 1.04;

  void Add(uint64_t value, uint64_t count = 1);
  // Records `count` requests that hit their deadline of `deadline` cycles
  // without completing. Excluded from Quantile(); capped into
  // CappedQuantile(); never touches min/max/mean of completed samples.
  void AddTimeout(uint64_t deadline, uint64_t count = 1);
  void Merge(const LatencyHistogram& other);

  uint64_t count() const { return total_; }
  uint64_t timeout_count() const { return timeouts_; }
  // Largest deadline recorded via AddTimeout (0 when none).
  uint64_t timeout_deadline() const { return timeout_deadline_; }
  uint64_t min() const { return total_ == 0 ? 0 : min_; }
  uint64_t max() const { return total_ == 0 ? 0 : max_; }
  double mean() const { return total_ == 0 ? 0.0 : sum_ / static_cast<double>(total_); }

  // q in [0, 1]. Returns the representative value (geometric bucket
  // midpoint, clamped to observed min/max) of the bucket holding the
  // ceil(q * count)-th smallest sample; 0 for an empty histogram.
  double Quantile(double q) const;

  double P50() const { return Quantile(0.50); }
  double P99() const { return Quantile(0.99); }
  double P999() const { return Quantile(0.999); }

  // Quantile over completed samples PLUS timed-out requests, each counted as
  // a sample at its deadline (the largest recorded one). Reads at or above
  // the timeout mass return the deadline — "p99 >= 111 us (timed out)".
  double CappedQuantile(double q) const;

  // FNV-1a over (bucket index, count) pairs + totals: the digest the farm
  // smoke test pins across worker-thread counts.
  uint64_t Digest() const;

  // Stored bucket of `value`: 0 for zero, else b + 1 for the smallest b with
  // value <= std::pow(kGamma, b). A lookup in a table of those powers.
  static uint32_t BucketOf(uint64_t value);

 private:
  static double BucketRep(uint32_t bucket);

  std::vector<uint64_t> buckets_;  // [0] = exact zeros; [i] = (gamma^(i-2), gamma^(i-1)]
  uint64_t total_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
  double sum_ = 0.0;
  uint64_t timeouts_ = 0;          // requests that never completed
  uint64_t timeout_deadline_ = 0;  // max deadline seen by AddTimeout
};

// Geometric mean of strictly positive values; returns 0 for an empty input.
double GeoMean(const std::vector<double>& values);

// p in [0, 100]; linear interpolation between closest ranks. Sorts a copy.
double Percentile(std::vector<double> values, double p);

// Formats a ratio as the paper does: "1.17x" or "17%" style strings.
std::string FormatRatio(double ratio);
std::string FormatOverheadPercent(double ratio);

// Human-readable byte counts ("71.6 MB").
std::string FormatBytes(uint64_t bytes);

// Fixed-point helper, e.g. FormatDouble(3.14159, 2) -> "3.14".
std::string FormatDouble(double value, int decimals);

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_COMMON_STATS_H_
