// Tests for src/farm/resilience: the fault-tolerant farm layer. Pins the
// bit-identity contract (host thread count never changes a resilient result
// byte, every recovery mode produces a distinct pinned digest for the same
// fault campaign), literal phase-B digests per recovery mode, ring
// failover's bounded key movement, phase-A fault containment/classification,
// and the seeded retry-backoff schedule.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/farm/farm.h"
#include "src/farm/resilience.h"
#include "src/farm/ring.h"

namespace sgxb {
namespace {

// Small faulted fleet used by the digest tests: one crash, one hang, one
// poison event against 4 shards, open-loop at moderate utilization.
FarmConfig FaultedConfig(RecoveryMode mode) {
  FarmConfig cfg;
  cfg.app = FarmApp::kKvStore;
  cfg.policy = PolicyKind::kSgxBounds;
  cfg.shards = 4;
  cfg.load.requests = 4000;
  cfg.open_loop = true;
  cfg.offered_rps = 600000;
  cfg.machine.recovery.enabled = true;
  cfg.resilience.enabled = true;
  cfg.resilience.mode = mode;
  std::string error;
  EXPECT_TRUE(ShardFaultPlan::Parse("crash@1:500,hang@2:1200,poison@0:300;seed=9",
                                    &cfg.resilience.shard_faults, &error))
      << error;
  return cfg;
}

TEST(FarmResilienceTest, DigestInvariantAcrossHostThreads) {
  for (uint32_t m = 0; m < kRecoveryModeCount; ++m) {
    FarmConfig cfg = FaultedConfig(static_cast<RecoveryMode>(m));
    cfg.host_threads = 1;
    const FarmResult ref = RunFarm(cfg);
    EXPECT_TRUE(ref.resilience.enabled);
    for (const uint32_t threads : {4u, 16u}) {
      cfg.host_threads = threads;
      const FarmResult r = RunFarm(cfg);
      EXPECT_EQ(r.digest, ref.digest)
          << RecoveryModeName(cfg.resilience.mode) << " at " << threads
          << " host threads";
      EXPECT_EQ(r.resilience.digest, ref.resilience.digest);
      EXPECT_EQ(r.resilience.completed, ref.resilience.completed);
      EXPECT_EQ(r.makespan_cycles, ref.makespan_cycles);
    }
  }
}

TEST(FarmResilienceTest, RecoveryModesProduceDistinctOutcomes) {
  // The same fault campaign under different recovery policies must not
  // collapse to one timeline: each mode gets its own digest.
  std::set<uint64_t> digests;
  for (uint32_t m = 0; m < kRecoveryModeCount; ++m) {
    const FarmResult r = RunFarm(FaultedConfig(static_cast<RecoveryMode>(m)));
    digests.insert(r.digest);
  }
  EXPECT_EQ(digests.size(), static_cast<size_t>(kRecoveryModeCount));
}

TEST(FarmResilienceTest, RepeatedRunsBitIdentical) {
  const FarmConfig cfg = FaultedConfig(RecoveryMode::kFailoverHedge);
  const FarmResult a = RunFarm(cfg);
  const FarmResult b = RunFarm(cfg);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.resilience.digest, b.resilience.digest);
  EXPECT_EQ(a.resilience.retries, b.resilience.retries);
  EXPECT_EQ(a.resilience.hedges, b.resilience.hedges);
}

TEST(FarmResilienceTest, SupervisorActsPerMode) {
  // Crash + hang: failstop never reacts; restart restarts; failover removes.
  const FarmResult stop = RunFarm(FaultedConfig(RecoveryMode::kFailStop));
  EXPECT_EQ(stop.resilience.detections, 0u);
  EXPECT_EQ(stop.resilience.restarts, 0u);
  EXPECT_EQ(stop.resilience.failovers, 0u);
  EXPECT_GT(stop.resilience.failed_timeout, 0u) << "dead shard with no recovery";

  const FarmResult restart = RunFarm(FaultedConfig(RecoveryMode::kRestart));
  EXPECT_GT(restart.resilience.detections, 0u);
  EXPECT_GT(restart.resilience.restarts, 0u);
  EXPECT_EQ(restart.resilience.failovers, 0u);

  const FarmResult failover = RunFarm(FaultedConfig(RecoveryMode::kFailover));
  EXPECT_GT(failover.resilience.detections, 0u);
  EXPECT_EQ(failover.resilience.restarts, 0u);
  EXPECT_GT(failover.resilience.failovers, 0u);
  EXPECT_GT(failover.resilience.completed, stop.resilience.completed);
}

// Literal phase-B results for the faulted fleet under every recovery mode,
// open loop at ~80% utilisation and closed loop. Two extra restart rows use
// a warm-up shorter than the hung shard's backlog, so the restart lands while
// completions of the old incarnation are still queued. The other tests
// compare runs with each other; this one pins the event order itself, so a
// scheduler change that reorders simultaneous events, or drops one that was
// not a no-op, fails here even if it stays self-consistent across thread
// counts.
TEST(FarmResilienceTest, PinnedDigests) {
  struct Pinned {
    RecoveryMode mode;
    bool open_loop;
    uint64_t warmup;  // restart_warmup_cycles; 0 = derived from the cost model
    uint64_t digest;
    uint64_t resilience_digest;
    uint64_t attempts;
    uint64_t retries;
    uint64_t hedges;
  };
  constexpr Pinned kPinned[] = {
      {RecoveryMode::kFailStop, true, 0, 0x8af1bce1f1240ad2ull, 0x6dbd8c701f4fb3a8ull,
       6475, 2475, 0},
      {RecoveryMode::kRestart, true, 0, 0x4e3093f959ebf697ull, 0xddf7b5fc7cbf7903ull,
       5620, 1620, 0},
      {RecoveryMode::kFailover, true, 0, 0xeac9f0628ce48c8full, 0x1a26bc22f451a79eull,
       4317, 317, 0},
      {RecoveryMode::kFailoverHedge, true, 0, 0x5bb164e3404f80d9ull, 0x00a5a2e0d7f65723ull,
       4246, 0, 246},
      {RecoveryMode::kFailStop, false, 0, 0x9ecbfdd94253f028ull, 0xbab116693019e59aull,
       6664, 2664, 0},
      {RecoveryMode::kRestart, false, 0, 0x5efe87e47a309ce6ull, 0x41c4abfaee49f830ull,
       4910, 910, 0},
      {RecoveryMode::kFailover, false, 0, 0x40a8ae3334dc6e3cull, 0x2f5c983fd7ed7f36ull,
       4429, 429, 0},
      {RecoveryMode::kFailoverHedge, false, 0, 0x35c1f2f57749b22dull, 0xff53891f8d7d3237ull,
       5078, 11, 1067},
      {RecoveryMode::kRestart, true, 100000, 0x873576e0d845bf59ull, 0x9b2dde1ae842f1ddull,
       4227, 227, 0},
      {RecoveryMode::kRestart, false, 100000, 0x3aeefc7ce7dea72bull, 0x3d85c84e149da976ull,
       4384, 384, 0},
  };
  for (const Pinned& p : kPinned) {
    FarmConfig cfg = FaultedConfig(p.mode);
    cfg.open_loop = p.open_loop;
    cfg.offered_rps = 1400000;
    cfg.resilience.restart_warmup_cycles = p.warmup;
    const FarmResult r = RunFarm(cfg);
    const ResilienceReport& rr = r.resilience;
    const std::string what = std::string(RecoveryModeName(p.mode)) +
                             (p.open_loop ? " open loop" : " closed loop");
    EXPECT_EQ(r.digest, p.digest) << what;
    EXPECT_EQ(rr.digest, p.resilience_digest) << what;
    EXPECT_EQ(rr.attempts, p.attempts) << what;
    EXPECT_EQ(rr.retries, p.retries) << what;
    EXPECT_EQ(rr.hedges, p.hedges) << what;
  }
}

TEST(FarmResilienceTest, FailoverMovesOnlyVictimKeys) {
  // Ring rebalance on shard removal: keys the victim did not own keep their
  // owner, and every key the victim owned lands on a survivor.
  ConsistentHashRing before(8, 64);
  ConsistentHashRing after(8, 64);
  constexpr uint32_t kVictim = 3;
  ASSERT_TRUE(after.RemoveShard(kVictim));
  EXPECT_EQ(after.live_shards(), 7u);
  uint64_t moved = 0;
  for (uint64_t key = 0; key < 50000; ++key) {
    const uint32_t s0 = before.Route(key);
    const uint32_t s1 = after.Route(key);
    if (s0 != kVictim) {
      EXPECT_EQ(s1, s0) << "key " << key << " moved without owning the victim";
    } else {
      EXPECT_NE(s1, kVictim);
      ++moved;
    }
  }
  EXPECT_GT(moved, 0u);
}

TEST(FarmResilienceTest, PhaseAFaultContainedAndClassified) {
  // A poisoned-metadata event is a real phase-A injection into the victim
  // shard's enclave: the per-request recovery layer contains the trap,
  // classifies it, and the farm survives to report it. memcached re-reads
  // cached objects, so a flipped LB footer reliably trips bounds checks on
  // later requests (kvstore rewrites values too often to keep the victim
  // object live).
  FarmConfig cfg;
  cfg.app = FarmApp::kMemcached;
  cfg.policy = PolicyKind::kSgxBounds;
  cfg.shards = 2;
  cfg.load.requests = 4000;
  cfg.load.keyspace = 16;
  cfg.machine.recovery.enabled = true;
  cfg.resilience.enabled = true;
  cfg.resilience.mode = RecoveryMode::kFailover;
  // Poison only trips requests touching the corrupted keys, so suspect drops
  // interleave with successes; convict on the first one rather than waiting
  // for a consecutive run that key mixing never produces.
  cfg.resilience.sick_threshold = 1;
  std::string error;
  ASSERT_TRUE(ShardFaultPlan::Parse(
      "poison@0:100,poison@0:200,poison@0:300,poison@1:500;seed=5",
      &cfg.resilience.shard_faults, &error))
      << error;
  const FarmResult r = RunFarm(cfg);
  EXPECT_GT(r.fault_totals.total_injected(), 0u) << "injection never fired";
  EXPECT_GT(r.recovery_totals.total_traps(), 0u) << "trap not observed";
  EXPECT_GT(r.recovery_totals.contained, 0u) << "trap not contained";
  // Suspect drops feed the supervisor's conviction counter; a persistently
  // poisoned shard gets convicted and failed over.
  EXPECT_GT(r.resilience.convictions, 0u);
  EXPECT_GT(r.resilience.failovers, 0u);
  // The faulted requests surface as suspect drops in the phase-A view, never
  // as a simulator crash.
  uint64_t dropped = 0;
  for (const FarmShardStats& s : r.shards) {
    EXPECT_FALSE(s.crashed);
    dropped += s.dropped;
  }
  EXPECT_GT(dropped, 0u);
}

TEST(FarmResilienceTest, RetryBackoffReproducibleFromSeed) {
  ResilienceConfig rc;
  // Same (seed, request, attempt) -> same delay, always.
  for (uint32_t req = 0; req < 64; ++req) {
    for (uint32_t attempt = 1; attempt <= rc.max_retries; ++attempt) {
      EXPECT_EQ(RetryBackoffCycles(rc, 42, req, attempt),
                RetryBackoffCycles(rc, 42, req, attempt));
    }
  }
  // Different seeds or requests decorrelate the jitter.
  EXPECT_NE(RetryBackoffCycles(rc, 42, 7, 1), RetryBackoffCycles(rc, 43, 7, 1));
  // Exponential base: attempt k sits in [base<<(k-1), base<<(k-1) + jitter).
  const uint64_t jitter_span = rc.backoff_cycles / 4 + 1;
  for (uint32_t attempt = 1; attempt <= 3; ++attempt) {
    const uint64_t base = rc.backoff_cycles << (attempt - 1);
    const uint64_t d = RetryBackoffCycles(rc, 42, 11, attempt);
    EXPECT_GE(d, base);
    EXPECT_LT(d, base + jitter_span);
  }
  // The exponential growth caps.
  const uint64_t deep = RetryBackoffCycles(rc, 42, 11, 30);
  EXPECT_GE(deep, rc.backoff_cap_cycles);
  EXPECT_LT(deep, rc.backoff_cap_cycles + jitter_span);
}

TEST(FarmResilienceTest, FairWeatherReportStaysZero) {
  // Resilience off: the report must stay inert and the digest must not mix
  // any resilience state (zero-cost-when-off).
  FarmConfig cfg;
  cfg.app = FarmApp::kKvStore;
  cfg.policy = PolicyKind::kSgxBounds;
  cfg.shards = 2;
  cfg.load.requests = 1000;
  const FarmResult r = RunFarm(cfg);
  EXPECT_FALSE(r.resilience.enabled);
  EXPECT_EQ(r.resilience.attempts, 0u);
  EXPECT_EQ(r.resilience.digest, 0u);
  EXPECT_EQ(r.fault_totals.total_injected(), 0u);
  EXPECT_EQ(r.served, 1000u);
}

}  // namespace
}  // namespace sgxb
