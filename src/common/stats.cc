#include "src/common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/check.h"

namespace sgxb {

void RunningStat::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStat::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double RunningStat::stddev() const {
  if (count_ < 2) {
    return 0.0;
  }
  return std::sqrt(m2_ / static_cast<double>(count_ - 1));
}

namespace {

// Upper edges gamma^b of the histogram's buckets, as std::pow computes them,
// up to the first edge past UINT64_MAX, plus first[e] = the smallest b with
// gamma^b >= 2^e, so a value's candidates are the ~18 edges of its octave.
struct BucketEdges {
  std::vector<double> pow;
  uint32_t first[65] = {};

  BucketEdges() {
    const double top = std::ldexp(1.0, 64);
    for (uint32_t b = 0; pow.empty() || pow.back() < top; ++b) {
      pow.push_back(std::pow(LatencyHistogram::kGamma, b));
    }
    for (int e = 0; e <= 64; ++e) {
      first[e] = static_cast<uint32_t>(
          std::lower_bound(pow.begin(), pow.end(), std::ldexp(1.0, e)) - pow.begin());
    }
  }
};

const BucketEdges& Edges() {
  static const BucketEdges edges;
  return edges;
}

}  // namespace

uint32_t LatencyHistogram::BucketOf(uint64_t value) {
  if (value == 0) {
    return 0;
  }
  // Bucket b + 1 for the smallest b with value <= gamma^b, i.e. stored index
  // i >= 1 holds (gamma^(i-2), gamma^(i-1)]. 2^e <= value < 2^(e+1) and the
  // double conversion rounds monotonically, so b lies in
  // [first[e], first[e + 1]].
  const BucketEdges& edges = Edges();
  const int e = 63 - __builtin_clzll(value);
  const double* base = edges.pow.data();
  const double* it = std::lower_bound(base + edges.first[e], base + edges.first[e + 1] + 1,
                                      static_cast<double>(value));
  return static_cast<uint32_t>(it - base) + 1;
}

double LatencyHistogram::BucketRep(uint32_t bucket) {
  if (bucket == 0) {
    return 0.0;
  }
  // Stored index `bucket` holds (gamma^(bucket-2), gamma^(bucket-1)]; the
  // harmonic midpoint 2*gamma^(bucket-1)/(gamma+1) keeps the relative
  // distance to any value in the bucket at most (gamma - 1) / (gamma + 1).
  return 2.0 * std::pow(kGamma, bucket - 1) / (kGamma + 1.0);
}

void LatencyHistogram::Add(uint64_t value, uint64_t count) {
  if (count == 0) {
    return;
  }
  const uint32_t b = BucketOf(value);
  if (buckets_.size() <= b) {
    buckets_.resize(b + 1, 0);
  }
  buckets_[b] += count;
  if (total_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  total_ += count;
  sum_ += static_cast<double>(value) * static_cast<double>(count);
}

void LatencyHistogram::AddTimeout(uint64_t deadline, uint64_t count) {
  timeouts_ += count;
  timeout_deadline_ = std::max(timeout_deadline_, deadline);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  timeouts_ += other.timeouts_;
  timeout_deadline_ = std::max(timeout_deadline_, other.timeout_deadline_);
  if (other.total_ == 0) {
    return;
  }
  if (buckets_.size() < other.buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (total_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  total_ += other.total_;
  sum_ += other.sum_;
}

double LatencyHistogram::Quantile(double q) const {
  if (total_ == 0) {
    return 0.0;
  }
  q = std::min(1.0, std::max(0.0, q));
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(total_)));
  if (rank == 0) {
    rank = 1;
  }
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      const double rep = BucketRep(static_cast<uint32_t>(i));
      return std::min(static_cast<double>(max_),
                      std::max(static_cast<double>(min_), rep));
    }
  }
  return static_cast<double>(max_);
}

double LatencyHistogram::CappedQuantile(double q) const {
  const uint64_t all = total_ + timeouts_;
  if (all == 0) {
    return 0.0;
  }
  if (timeouts_ == 0) {
    return Quantile(q);
  }
  q = std::min(1.0, std::max(0.0, q));
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(all)));
  if (rank == 0) {
    rank = 1;
  }
  // Timeouts sort above every completed sample (they lasted at least the
  // deadline, which exceeds any completion the client accepted).
  if (rank > total_) {
    return static_cast<double>(timeout_deadline_);
  }
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      const double rep = BucketRep(static_cast<uint32_t>(i));
      return std::min(static_cast<double>(max_),
                      std::max(static_cast<double>(min_), rep));
    }
  }
  return static_cast<double>(max_);
}

uint64_t LatencyHistogram::Digest() const {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix64 = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] != 0) {
      mix64(i);
      mix64(buckets_[i]);
    }
  }
  mix64(total_);
  mix64(min_);
  mix64(max_);
  // Timeout counters join the digest only when present, so every histogram
  // recorded before timeouts existed keeps its exact digest.
  if (timeouts_ != 0) {
    mix64(0x7107u);  // domain separator: timeout block follows
    mix64(timeouts_);
    mix64(timeout_deadline_);
  }
  return h;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double log_sum = 0.0;
  for (double v : values) {
    CHECK_GT(v, 0.0);
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Percentile(std::vector<double> values, double p) {
  CHECK(!values.empty());
  CHECK_GE(p, 0.0);
  CHECK_LE(p, 100.0);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) {
    return values[0];
  }
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

std::string FormatRatio(double ratio) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", ratio);
  return buf;
}

std::string FormatOverheadPercent(double ratio) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", (ratio - 1.0) * 100.0);
  return buf;
}

std::string FormatBytes(uint64_t bytes) {
  char buf[32];
  const double b = static_cast<double>(bytes);
  if (bytes >= 1024ULL * 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.2f GB", b / (1024.0 * 1024.0 * 1024.0));
  } else if (bytes >= 1024ULL * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f MB", b / (1024.0 * 1024.0));
  } else if (bytes >= 1024ULL) {
    std::snprintf(buf, sizeof(buf), "%.1f KB", b / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B", static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::string FormatDouble(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

}  // namespace sgxb
