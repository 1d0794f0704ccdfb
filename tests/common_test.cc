// Tests for src/common: PRNG determinism and distributions, statistics,
// table rendering, flag parsing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/ir_engine.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/units.h"

namespace sgxb {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  RunningStat stat;
  for (int i = 0; i < 20000; ++i) {
    stat.Add(rng.NextGaussian());
  }
  EXPECT_NEAR(stat.mean(), 0.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 1.0, 0.05);
}

TEST(RngTest, ZipfIsSkewed) {
  Rng rng(17);
  uint64_t low_ranks = 0;
  const uint64_t n = 1000;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t r = rng.NextZipf(n, 0.9);
    EXPECT_LT(r, n);
    if (r < n / 10) {
      ++low_ranks;
    }
  }
  // Zipf(0.9): the top decile should receive well over half the draws.
  EXPECT_GT(low_ranks, 5000u);
}

TEST(RngTest, NextKeyHasRequestedLength) {
  Rng rng(23);
  const std::string key = rng.NextKey(16);
  EXPECT_EQ(key.size(), 16u);
  for (char c : key) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(StatsTest, RunningStatBasics) {
  RunningStat s;
  s.Add(1.0);
  s.Add(2.0);
  s.Add(3.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_NEAR(s.stddev(), 1.0, 1e-12);
}

TEST(StatsTest, GeoMean) {
  EXPECT_DOUBLE_EQ(GeoMean({1.0, 4.0}), 2.0);
  EXPECT_DOUBLE_EQ(GeoMean({}), 0.0);
  EXPECT_NEAR(GeoMean({1.17, 1.17, 1.17}), 1.17, 1e-12);
}

TEST(StatsTest, Percentile) {
  std::vector<double> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
}

TEST(StatsTest, Formatters) {
  EXPECT_EQ(FormatRatio(1.175), "1.18x");
  EXPECT_EQ(FormatOverheadPercent(1.17), "+17.0%");
  EXPECT_EQ(FormatBytes(71 * kMiB), "71.0 MB");
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
}

TEST(TableTest, RendersAlignedRows) {
  Table t({"bench", "SGX", "SGXBounds"});
  t.AddRow({"kmeans", "1.00x", "1.17x"});
  t.AddSeparator();
  t.AddRow({"gmean", "1.00x", "1.17x"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("kmeans"), std::string::npos);
  EXPECT_NE(out.find("1.17x"), std::string::npos);
  // Header separator plus separator row -> at least 4 horizontal rules.
  size_t rules = 0;
  for (size_t pos = out.find('+'); pos != std::string::npos; pos = out.find('+', pos + 1)) {
    if (pos == 0 || out[pos - 1] == '\n') {
      ++rules;
    }
  }
  EXPECT_GE(rules, 4u);
}

TEST(FlagsTest, ParsesTypedFlags) {
  FlagParser parser;
  int64_t threads = 1;
  uint64_t epc = 0;
  double theta = 0.0;
  bool verbose = false;
  std::string name;
  parser.AddInt("threads", &threads, "");
  parser.AddUint("epc", &epc, "");
  parser.AddDouble("theta", &theta, "");
  parser.AddBool("verbose", &verbose, "");
  parser.AddString("name", &name, "");

  const char* argv[] = {"prog",      "--threads=8", "--epc", "94", "--theta=0.99",
                        "--verbose", "--name=fig7", "pos"};
  auto positional = parser.Parse(8, const_cast<char**>(argv));
  EXPECT_EQ(threads, 8);
  EXPECT_EQ(epc, 94u);
  EXPECT_DOUBLE_EQ(theta, 0.99);
  EXPECT_TRUE(verbose);
  EXPECT_EQ(name, "fig7");
  ASSERT_EQ(positional.size(), 1u);
  EXPECT_EQ(positional[0], "pos");
}

TEST(FlagsTest, ParseUintAcceptsOnlyPlainDecimal) {
  struct Case {
    const char* text;
    bool ok;
    uint64_t value;
  };
  const Case cases[] = {
      {"0", true, 0},
      {"94", true, 94},
      {"007", true, 7},
      {"18446744073709551615", true, UINT64_MAX},
      {"18446744073709551616", false, 0},
      {"99999999999999999999", false, 0},
      {"", false, 0},
      {"-1", false, 0},
      {"+1", false, 0},
      {" 1", false, 0},
      {"1 ", false, 0},
      {"0x10", false, 0},
      {"1e3", false, 0},
      {"1.0", false, 0},
      {"3x2", false, 0},
  };
  for (const Case& c : cases) {
    uint64_t v = 12345;
    EXPECT_EQ(ParseUint(c.text, &v), c.ok) << "'" << c.text << "'";
    EXPECT_EQ(v, c.ok ? c.value : 12345u) << "'" << c.text << "'";
  }
}

TEST(FlagsTest, SplitCsvDirected) {
  std::vector<std::string> v;
  ASSERT_TRUE(SplitCsv("kmeans,matrixmul", &v));
  EXPECT_EQ(v, (std::vector<std::string>{"kmeans", "matrixmul"}));
  ASSERT_TRUE(SplitCsv(" a ,b", &v)) << "items are taken verbatim, spaces included";
  EXPECT_EQ(v, (std::vector<std::string>{" a ", "b"}));
  ASSERT_TRUE(SplitCsv("x", &v));
  EXPECT_EQ(v, std::vector<std::string>{"x"});
  const std::vector<std::string> kept = v;
  for (const char* bad : {"", ",", ",,", "a,", ",a", "a,,b", "a,b,"}) {
    EXPECT_FALSE(SplitCsv(bad, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, kept) << "a rejected list must leave the output alone: '" << bad << "'";
  }
}

// Independent reference for SplitCsv: walks the characters once, closing an
// item at every comma and at the end.
bool ReferenceSplitCsv(const std::string& csv, std::vector<std::string>* out) {
  std::vector<std::string> items;
  std::string item;
  for (size_t i = 0; i <= csv.size(); ++i) {
    if (i == csv.size() || csv[i] == ',') {
      if (item.empty()) {
        return false;
      }
      items.push_back(item);
      item.clear();
    } else {
      item += csv[i];
    }
  }
  *out = items;
  return true;
}

// Seeded mutants of well-formed lists: SplitCsv accepts exactly what the
// reference accepts, with the same items, and leaves the output alone
// otherwise. The splitter is shared by every list-valued flag (--policies,
// --opts, --workloads, --traces, --apps, --recoveries and the numeric lists).
TEST(FlagsTest, SplitCsvMatchesReferenceOnSeededMutants) {
  const std::string seeds[] = {"native,sgxbounds,l4ptr", "kmeans", "safe,hoist",
                               "failover,failover+hedge", "a,b,c,d"};
  const std::string alphabet("ab,,, +\0", 8);
  Rng rng(1701);
  size_t accepted = 0;
  size_t rejected = 0;
  for (int round = 0; round < 4000; ++round) {
    std::string m = seeds[rng.NextBounded(std::size(seeds))];
    const uint64_t ops = 1 + rng.NextBounded(3);
    for (uint64_t op = 0; op < ops; ++op) {
      const size_t at = rng.NextBounded(m.size() + 1);
      const char c = alphabet[rng.NextBounded(alphabet.size())];
      switch (rng.NextBounded(3)) {
        case 0:
          m.insert(m.begin() + at, c);
          break;
        case 1:
          if (at < m.size()) {
            m.erase(at, 1);
          }
          break;
        default:
          if (at < m.size()) {
            m[at] = c;
          }
          break;
      }
    }
    std::vector<std::string> got = {"sentinel"};
    std::vector<std::string> want;
    const bool ok = SplitCsv(m, &got);
    ASSERT_EQ(ok, ReferenceSplitCsv(m, &want)) << "mutant '" << m << "'";
    if (ok) {
      EXPECT_EQ(got, want) << "mutant '" << m << "'";
      ++accepted;
    } else {
      EXPECT_EQ(got, std::vector<std::string>{"sentinel"}) << "mutant '" << m << "'";
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 500u);
  EXPECT_GT(rejected, 500u);
}

TEST(FlagsTest, ParseUintListDirected) {
  std::vector<uint64_t> v;
  ASSERT_TRUE(ParseUintList("8,16,94", 1, &v));
  EXPECT_EQ(v, (std::vector<uint64_t>{8, 16, 94}));
  ASSERT_TRUE(ParseUintList("0,2", 0, &v));
  EXPECT_EQ(v, (std::vector<uint64_t>{0, 2}));
  const std::vector<uint64_t> kept = v;
  for (const char* bad : {"", ",", "8,", ",8", "8,,16", "abc", "8,3x2", "8,-1", "8, 16",
                          "8,18446744073709551616"}) {
    EXPECT_FALSE(ParseUintList(bad, 0, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, kept) << "a rejected list must leave the output alone: '" << bad << "'";
  }
  EXPECT_FALSE(ParseUintList("0,2", 1, &v)) << "values below min are rejected";
  EXPECT_EQ(v, kept);
}

// Independent reference for ParseUintList: a character scanner that collects
// each item as a digit string and range-checks it by string comparison.
bool ReferenceUintList(const std::string& csv, uint64_t min, std::vector<uint64_t>* out) {
  std::vector<std::string> items(1);
  for (const char c : csv) {
    if (c == ',') {
      items.emplace_back();
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      items.back() += c;
    } else {
      return false;
    }
  }
  std::vector<uint64_t> values;
  for (const std::string& item : items) {
    if (item.empty()) {
      return false;
    }
    const size_t first = item.find_first_not_of('0');
    const std::string digits = first == std::string::npos ? "0" : item.substr(first);
    if (digits.size() > 20 || (digits.size() == 20 && digits > "18446744073709551615")) {
      return false;
    }
    values.push_back(std::stoull(digits));
    if (values.back() < min) {
      return false;
    }
  }
  *out = values;
  return true;
}

// Seeded mutants of well-formed lists (inserted, deleted, replaced and
// duplicated characters, including signs, whitespace and NUL): every mutant
// is either rejected, leaving the output alone, or parsed to exactly the
// reference's values. Nothing is accepted with different contents.
TEST(FlagsTest, ParseUintListMatchesReferenceOnSeededMutants) {
  const std::string seeds[] = {"8,16,94", "1,4,94", "0", "50000,200000,800000",
                               "18446744073709551615", "18446744073709551616,1"};
  const std::string alphabet("0123456789,,-+ \tx.e\0", 20);
  Rng rng(2017);
  size_t accepted = 0;
  size_t rejected = 0;
  for (int round = 0; round < 4000; ++round) {
    std::string m = seeds[rng.NextBounded(std::size(seeds))];
    const uint64_t ops = 1 + rng.NextBounded(3);
    for (uint64_t op = 0; op < ops; ++op) {
      const size_t at = rng.NextBounded(m.size() + 1);
      const char c = alphabet[rng.NextBounded(alphabet.size())];
      switch (rng.NextBounded(4)) {
        case 0:
          m.insert(m.begin() + at, c);
          break;
        case 1:
          if (at < m.size()) {
            m.erase(at, 1);
          }
          break;
        case 2:
          if (at < m.size()) {
            m[at] = c;
          }
          break;
        default:
          m.insert(at, m.substr(at, rng.NextBounded(4)));
          break;
      }
    }
    for (const uint64_t min : {uint64_t{0}, uint64_t{1}}) {
      std::vector<uint64_t> got = {424242};
      std::vector<uint64_t> want;
      const bool ok = ParseUintList(m, min, &got);
      ASSERT_EQ(ok, ReferenceUintList(m, min, &want)) << "mutant '" << m << "'";
      if (ok) {
        EXPECT_EQ(got, want) << "mutant '" << m << "'";
        ++accepted;
      } else {
        EXPECT_EQ(got, std::vector<uint64_t>{424242}) << "mutant '" << m << "'";
        ++rejected;
      }
      if (m.find(',') == std::string::npos) {
        uint64_t one = 0;
        ASSERT_EQ(ParseUint(m, &one), ReferenceUintList(m, 0, &want)) << "'" << m << "'";
      }
    }
  }
  // The mutation mix must exercise both outcomes.
  EXPECT_GT(accepted, 500u);
  EXPECT_GT(rejected, 500u);
}

TEST(FlagsTest, MalformedUnsignedFlagsExitNamingTheFlag) {
  for (const char* arg : {"--epc=", "--epc=-1", "--epc=abc", "--epc=18446744073709551616"}) {
    FlagParser parser;
    uint64_t epc = 94;
    parser.AddUint("epc", &epc, "");
    const char* argv[] = {"prog", arg};
    EXPECT_EXIT(parser.Parse(2, const_cast<char**>(argv)), ::testing::ExitedWithCode(2),
                "invalid value '.*' for flag --epc")
        << arg;
  }
  // A floor set with AddUint rejects smaller values on the same path (the
  // EPC-size flags take min 1: an empty EPC aborts the simulator).
  for (const char* arg : {"--epc_mb=0", "--epc_mb=", "--epc_mb=-1"}) {
    FlagParser parser;
    uint64_t epc = 94;
    parser.AddUint("epc_mb", &epc, "", /*min=*/1);
    const char* argv[] = {"prog", arg};
    EXPECT_EXIT(parser.Parse(2, const_cast<char**>(argv)), ::testing::ExitedWithCode(2),
                "invalid value '.*' for flag --epc_mb")
        << arg;
  }
  {
    FlagParser parser;
    uint64_t epc = 94;
    parser.AddUint("epc_mb", &epc, "", /*min=*/1);
    const char* argv[] = {"prog", "--epc_mb=1"};
    parser.Parse(2, const_cast<char**>(argv));
    EXPECT_EQ(epc, 1u);
  }
  for (const char* arg : {"--mibs=", "--mibs=abc", "--mibs=8,3x2", "--mibs=8,0", "--mibs=-1"}) {
    FlagParser parser;
    std::vector<uint64_t> mibs;
    parser.AddCallback(
        "mibs", [&](const std::string& v) { return ParseUintList(v, 1, &mibs); }, "", "");
    const char* argv[] = {"prog", arg};
    EXPECT_EXIT(parser.Parse(2, const_cast<char**>(argv)), ::testing::ExitedWithCode(2),
                "invalid value '.*' for flag --mibs")
        << arg;
  }
}

TEST(FlagsTest, IrEngineNamesRoundTrip) {
  const std::vector<std::string> names = IrEngineNames();
  EXPECT_EQ(names, (std::vector<std::string>{"reference", "threaded"}));
  for (const std::string& name : names) {
    IrEngine engine = IrEngine::kDefault;
    ASSERT_TRUE(ParseIrEngine(name, &engine)) << name;
    EXPECT_EQ(IrEngineName(engine), name);
  }
  IrEngine engine = IrEngine::kThreaded;
  EXPECT_FALSE(ParseIrEngine("jit", &engine));
  EXPECT_FALSE(ParseIrEngine("", &engine));
  EXPECT_EQ(engine, IrEngine::kThreaded);
}

TEST(FlagsTest, IrEngineFlagRejectsUnknownEngine) {
  FlagParser parser;
  AddIrEngineFlag(parser);
  const char* argv[] = {"prog", "--ir_engine=jit"};
  EXPECT_EXIT(parser.Parse(2, const_cast<char**>(argv)), ::testing::ExitedWithCode(2),
              "invalid value 'jit' for flag --ir_engine \\(valid: reference.threaded\\)");
}

TEST(LatencyHistogramTest, EmptyAndExactZeroBucket) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  h.Add(0, 5);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.max(), 0u);
}

TEST(LatencyHistogramTest, QuantileRelativeErrorWithinTwoPercent) {
  // Lognormal-ish latency stream from the house PRNG; exact quantiles via
  // Percentile, sketched quantiles must land within the advertised 2%.
  Rng rng(7);
  LatencyHistogram h;
  std::vector<uint64_t> samples;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = 100 + rng.NextBounded(1000) * rng.NextBounded(1000);
    h.Add(v);
    samples.push_back(v);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.10, 0.50, 0.90, 0.99, 0.999}) {
    // Exact order statistic at the sketch's own rank definition
    // (ceil(q * count)-th smallest); the sketch may only add bucket error.
    const size_t rank = static_cast<size_t>(std::ceil(q * samples.size()));
    const double want = static_cast<double>(samples[rank == 0 ? 0 : rank - 1]);
    const double got = h.Quantile(q);
    EXPECT_NEAR(got, want, want * 0.02) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, BucketOfIsSmallestPowerAtOrAbove) {
  // The bucket table must reproduce the defining rule exactly: value v lands
  // in b + 1 for the smallest b with v <= std::pow(kGamma, b). Probe every
  // edge (rounded down, exact, rounded up), octave boundaries, and a seeded
  // spread of values up to UINT64_MAX.
  auto edge = [](uint32_t b) { return std::pow(LatencyHistogram::kGamma, b); };
  auto check = [&](uint64_t v) {
    const uint32_t got = LatencyHistogram::BucketOf(v);
    ASSERT_GE(got, 1u) << v;
    const double dv = static_cast<double>(v);
    EXPECT_LE(dv, edge(got - 1)) << v;
    if (got > 1) {
      EXPECT_GT(dv, edge(got - 2)) << v;
    }
  };
  EXPECT_EQ(LatencyHistogram::BucketOf(0), 0u);
  for (uint32_t b = 0; edge(b) < 1.8e19; ++b) {
    const uint64_t near = static_cast<uint64_t>(edge(b));
    for (uint64_t v = near > 2 ? near - 2 : 1; v <= near + 2; ++v) {
      check(v);
    }
  }
  for (int e = 0; e < 64; ++e) {
    const uint64_t p = uint64_t{1} << e;
    check(p);
    check(p + 1);
    if (p > 1) {
      check(p - 1);
    }
  }
  check(~uint64_t{0});
  Rng rng(3);
  for (int i = 0; i < 100000; ++i) {
    check(std::max<uint64_t>(1, rng.Next() >> rng.NextBounded(64)));
  }
}

TEST(LatencyHistogramTest, QuantilesClampedToObservedRange) {
  LatencyHistogram h;
  h.Add(1000);
  h.Add(1001);
  EXPECT_GE(h.Quantile(0.0), 1000.0);
  EXPECT_LE(h.Quantile(1.0), 1001.0);
}

TEST(LatencyHistogramTest, MergeEqualsCombinedStream) {
  Rng rng(11);
  LatencyHistogram whole, left, right;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = rng.NextBounded(1u << 20);
    whole.Add(v);
    (i % 2 == 0 ? left : right).Add(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
  EXPECT_EQ(left.Digest(), whole.Digest());
  EXPECT_EQ(left.P99(), whole.P99());
}

TEST(LatencyHistogramTest, AddWithCountMatchesRepeatedAdd) {
  LatencyHistogram a, b;
  a.Add(777, 42);
  for (int i = 0; i < 42; ++i) {
    b.Add(777);
  }
  EXPECT_EQ(a.Digest(), b.Digest());
}

TEST(UnitsTest, AlignAndPageHelpers) {
  EXPECT_EQ(AlignUp(1u, 16u), 16u);
  EXPECT_EQ(AlignUp(16u, 16u), 16u);
  EXPECT_EQ(PagesFor(1), 1u);
  EXPECT_EQ(PagesFor(kPageSize), 1u);
  EXPECT_EQ(PagesFor(kPageSize + 1), 2u);
  EXPECT_EQ(PageOf(kPageSize), 1u);
  EXPECT_EQ(LineOf(64), 1u);
}

}  // namespace
}  // namespace sgxb
