// Tests for the EPC residency/paging simulator.

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/sim/epc.h"

namespace sgxb {
namespace {

TEST(EpcTest, FirstTouchFaults) {
  EpcSim epc(16 * kPageSize);
  EXPECT_TRUE(epc.Touch(3));
  EXPECT_FALSE(epc.Touch(3));
  EXPECT_EQ(epc.faults(), 1u);
  EXPECT_EQ(epc.resident_pages(), 1u);
}

TEST(EpcTest, EvictsLruWhenFull) {
  EpcSim epc(4 * kPageSize);
  for (uint32_t p = 0; p < 4; ++p) {
    EXPECT_TRUE(epc.Touch(p));
  }
  // Touch page 0 so page 1 becomes LRU.
  EXPECT_FALSE(epc.Touch(0));
  EXPECT_TRUE(epc.Touch(100));  // evicts page 1
  EXPECT_TRUE(epc.Resident(0));
  EXPECT_FALSE(epc.Resident(1));
  EXPECT_EQ(epc.evictions(), 1u);
}

TEST(EpcTest, SequentialSweepFaultsOncePerPage) {
  EpcSim epc(8 * kPageSize);
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (uint32_t p = 0; p < 8; ++p) {
      epc.Touch(p);
    }
  }
  EXPECT_EQ(epc.faults(), 8u);  // fits: only cold faults
}

TEST(EpcTest, ThrashingWorkingSet) {
  EpcSim epc(8 * kPageSize);
  // Working set of 16 pages touched round-robin: every touch faults after
  // warmup because LRU always evicted the page 8 touches ago.
  uint64_t faults_before = 0;
  for (int sweep = 0; sweep < 4; ++sweep) {
    for (uint32_t p = 0; p < 16; ++p) {
      epc.Touch(p);
    }
    if (sweep == 0) {
      faults_before = epc.faults();
      EXPECT_EQ(faults_before, 16u);
    }
  }
  EXPECT_EQ(epc.faults(), 64u);  // all touches fault
}

TEST(EpcTest, InvalidateRemovesResidency) {
  EpcSim epc(4 * kPageSize);
  epc.Touch(7);
  EXPECT_TRUE(epc.Resident(7));
  epc.Invalidate(7);
  EXPECT_FALSE(epc.Resident(7));
  EXPECT_EQ(epc.resident_pages(), 0u);
  // Invalidating a non-resident page is a no-op.
  epc.Invalidate(7);
  EXPECT_EQ(epc.resident_pages(), 0u);
}

TEST(EpcTest, ResetClearsEverything) {
  EpcSim epc(4 * kPageSize);
  epc.Touch(1);
  epc.Touch(2);
  epc.Reset();
  EXPECT_EQ(epc.resident_pages(), 0u);
  EXPECT_EQ(epc.faults(), 0u);
  EXPECT_FALSE(epc.Resident(1));
  EXPECT_TRUE(epc.Touch(1));  // faults again after reset
}

TEST(EpcTest, ZeroFilledTableStartsEmpty) {
  // The node table is a fresh zero mapping: every page, including the first
  // and the last of the 32-bit space, starts non-resident and links into the
  // LRU list like any other.
  constexpr uint32_t kLast = (1u << 20) - 1;
  EpcSim epc(2 * kPageSize);
  EXPECT_FALSE(epc.Resident(0));
  EXPECT_FALSE(epc.Resident(kLast));
  EXPECT_TRUE(epc.Touch(kLast));
  EXPECT_TRUE(epc.Touch(0));
  EXPECT_FALSE(epc.Touch(kLast));  // kLast is MRU, page 0 the LRU
  EXPECT_TRUE(epc.Touch(kLast - 1));  // evicts page 0
  EXPECT_FALSE(epc.Resident(0));
  EXPECT_TRUE(epc.Resident(kLast));
  EXPECT_TRUE(epc.Resident(kLast - 1));
  EXPECT_EQ(epc.evictions(), 1u);
  epc.Reset();
  EXPECT_FALSE(epc.Resident(kLast));
  EXPECT_TRUE(epc.Touch(0));
}

TEST(EpcTest, CapacityPagesMatchesConfig) {
  EpcSim epc(94 * kMiB);
  EXPECT_EQ(epc.capacity_pages(), 94u * 1024 / 4);
}

}  // namespace
}  // namespace sgxb
