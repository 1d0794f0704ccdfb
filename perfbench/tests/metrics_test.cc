// Unit tests of the benchmark's metric arithmetic (perfbench/metrics.h).

#include "perfbench/metrics.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(GeomeanOverhead, ExcludesCrashedPairs) {
  // 2x and 8x give a geomean of 4x; the crashed pair would drag it to 1x.
  const std::vector<OverheadPair> pairs = {
      {200.0, 100.0, false}, {800.0, 100.0, false}, {1.0, 4096.0, true}};
  EXPECT_DOUBLE_EQ(GeomeanOverhead(pairs), 4.0);
}

TEST(GeomeanOverhead, NoUsablePairIsZero) {
  EXPECT_EQ(GeomeanOverhead({}), 0.0);
  EXPECT_EQ(GeomeanOverhead({{200.0, 100.0, true}}), 0.0);
}

TEST(CappedP99, FailuresCountAtTheDeadline) {
  sgxb::LatencyHistogram h;
  h.Add(1000, 990);  // every completed request is fast
  // Without failures the p99 is a completed latency.
  EXPECT_LT(CappedP99Cycles(h, 0, 400000), 1100.0);
  // Fifteen app failures in 1005 requests are more than 1%: the p99 lands
  // on the deadline, though no completed request is slow.
  EXPECT_DOUBLE_EQ(CappedP99Cycles(h, 15, 400000), 400000.0);
}

TEST(CappedP99, TimeoutsAlreadyInTheHistogramCount) {
  sgxb::LatencyHistogram h;
  h.Add(1000, 985);
  h.AddTimeout(400000, 15);
  EXPECT_DOUBLE_EQ(CappedP99Cycles(h, 0, 400000), 400000.0);
}

TEST(CompletedWithin, CountsSamplesUnderTheLimit) {
  sgxb::LatencyHistogram h;
  h.Add(1000, 70);
  h.Add(100000, 30);
  EXPECT_EQ(CompletedWithin(h, 5000.0), 70u);
  EXPECT_EQ(CompletedWithin(h, 1e9), 100u);
  EXPECT_EQ(CompletedWithin(h, 10.0), 0u);
  EXPECT_EQ(CompletedWithin(sgxb::LatencyHistogram(), 5000.0), 0u);
}

TEST(MaxRateAtSlo, HighestPassingRungOfTheLadder) {
  const std::vector<LadderPoint> ladder = {
      {100, 20, false}, {200, 30, false}, {300, 45, false}, {400, 80, false}};
  EXPECT_DOUBLE_EQ(MaxRateAtSlo(ladder, 50.0), 300.0);
  EXPECT_DOUBLE_EQ(MaxRateAtSlo(ladder, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(MaxRateAtSlo(ladder, 100.0), 400.0);
}

TEST(MaxRateAtSlo, GrowingBacklogFailsTheRungEvenWithinTheLimit) {
  // A saturated open loop can report a low p99 over the requests it did
  // complete; the backlog test still rejects the rung, and every rung above.
  const std::vector<LadderPoint> ladder = {
      {100, 20, false}, {200, 30, true}, {300, 25, false}};
  EXPECT_DOUBLE_EQ(MaxRateAtSlo(ladder, 50.0), 100.0);
}

TEST(BacklogGrows, ComparesMakespanWithTheArrivalWindow) {
  // 1000 requests at 100 krps arrive over 10 ms = 36e6 cycles at 3.6 GHz.
  EXPECT_FALSE(BacklogGrows(1000, 1e5, 36'500'000, 3.6));
  EXPECT_TRUE(BacklogGrows(1000, 1e5, 60'000'000, 3.6));
}

TEST(SelfSeconds, SubtractsPartsAndFloorsAtZero) {
  EXPECT_DOUBLE_EQ(SelfSeconds(10.0, {3.0, 1.5}), 5.5);
  EXPECT_DOUBLE_EQ(SelfSeconds(10.0, {}), 10.0);
  EXPECT_DOUBLE_EQ(SelfSeconds(1.0, {0.8, 0.5}), 0.0);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

}  // namespace
}  // namespace perfbench
