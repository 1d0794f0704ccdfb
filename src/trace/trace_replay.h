// Trace replay: re-drives the cache + EPC + cost-model stack from a recorded
// event stream, without re-executing the workload.
//
// The replay machine is a bare MemorySystem plus one Cpu per recorded
// hardware thread — no enclave arena, no host data movement, no policy
// logic. Memory events go through the exact same Cpu::MemAccess /
// CommitPages code the live run used, so replaying under the recording
// configuration reproduces the live PerfCounters and cycle totals
// bit-for-bit; replaying under a different SimConfig (EPC size, cache
// geometry, cost table, enclave mode) yields the counters that configuration
// WOULD have produced, which is what turns one execution into an arbitrary
// configuration sweep.
//
// Two tiers over a shared DecodedTrace, fastest first:
//   ConfigSweeper::Replay   — structural capture re-pricing (EPC size, cost
//                             table, enclave mode; cache geometry fixed)
//   ReplayDecoded           — full replay (any config; decode amortized
//                             across replays)
// ReplayTrace is the one-shot convenience that decodes, then runs
// ReplayDecoded. Every path produces bit-identical results for the
// configurations it covers; tests/trace_test.cc asserts the equivalences.

#ifndef SGXBOUNDS_SRC_TRACE_TRACE_REPLAY_H_
#define SGXBOUNDS_SRC_TRACE_TRACE_REPLAY_H_

#include "src/sim/machine.h"
#include "src/trace/decoded_trace.h"
#include "src/trace/trace_format.h"

namespace sgxb {

// The recording machine configuration; mutate fields to sweep.
SimConfig SimConfigFromHeader(const TraceHeader& header);

struct ReplayResult {
  uint64_t cycles = 0;       // main-cpu cycle total (the figures' time axis)
  PerfCounters counters;     // summed over all replayed cpus
  uint32_t cpu_count = 0;
  uint64_t events_replayed = 0;
  // Copied through from the recording (configuration-independent outcomes).
  uint64_t peak_vm_bytes = 0;
  uint32_t mpx_bt_count = 0;
  bool crashed = false;
  uint8_t trap_kind = 0;
};

// Full replay over a decoded stream. The DecodedTrace is read-only here, so
// any number of configs can replay the same decode concurrently.
ReplayResult ReplayDecoded(const DecodedTrace& trace, const SimConfig& config);

// One-shot convenience: decodes, then replays. A truncated prefix trace
// replays as far as it goes (useful for diffing, not for totals).
ReplayResult ReplayTrace(const Trace& trace, const SimConfig& config);

// Convenience: replay under the recording configuration.
inline ReplayResult ReplayTrace(const Trace& trace) {
  return ReplayTrace(trace, SimConfigFromHeader(trace.header));
}

// Structural-capture sweeps over every config axis that cannot disturb the
// cache model. The constructor runs ONE full replay under `base`, capturing
// (a) the EPC page touched by each enclave LLC miss, in order, (b) per
// "segment" (everything one cpu did between two structural boundaries) the
// count of every priced event category, and (c) the parallel-region /
// decommit structure. Replay(cfg) then re-prices the capture under any
// SimConfig sharing base's cache geometry in microseconds, bit-identical to
// a full ReplayDecoded at that config.
//
// Soundness of the capture axes (asserted by tests/trace_test.cc):
//   * EPC size: EpcSim::Touch only counts and charges — faults never alter
//     cache behaviour, so the LLC-miss page stream is EPC-size-independent.
//   * Cost table: prices only scale charges; every counter is price-blind.
//   * Enclave mode: ServiceL2Miss routes misses identically; the mode only
//     selects pricing (MEE/EPC surcharge, syscall exit cost). A capture
//     taken with enclave mode ON carries the page stream needed for both
//     modes; a capture taken with it OFF has no page stream and covers only
//     out-of-enclave configs.
//   * Cache geometry (l1/l2/l3 size or ways) changes hit/miss outcomes —
//     NOT coverable; Covers() returns false and callers (the sweep engine)
//     fall back to full replay.
class ConfigSweeper {
 public:
  ConfigSweeper(const DecodedTrace& trace, const SimConfig& base);

  // True when `cfg` is derivable from a capture under `base`.
  static bool CaptureCovers(const SimConfig& base, const SimConfig& cfg);
  bool Covers(const SimConfig& cfg) const { return CaptureCovers(config_, cfg); }

  // Re-prices the capture under `cfg`; requires Covers(cfg). Equivalent to
  // ReplayDecoded(trace, cfg), bit-identical counters included.
  ReplayResult Replay(const SimConfig& cfg) const;

  // The structural replay's own result (at `base`).
  const ReplayResult& base_result() const { return base_; }

 private:
  friend struct SweepCapture;
  enum OpType : uint8_t { kSegment, kParallelBegin, kWorkerEnd, kParallelEnd, kDecommit };
  struct Op {
    OpType type;
    uint32_t cpu = 0;   // segment owner / worker / region caller
    uint32_t seg = 0;   // kSegment: index into segs_
    uint64_t value = 0; // kParallelEnd: spawn cycles; kDecommit: page | count<<32
  };
  // Per-segment priced-event counts. `resid` is the segment's
  // configuration-independent cycle remainder (raw Cpu::Charge sums),
  // derived by subtracting every priced component under `base` from the
  // observed segment cycles.
  struct SegCounts {
    uint64_t alu = 0, branches = 0, fp = 0, calls = 0, syscalls = 0;
    uint64_t l1_hits = 0, l2_hits = 0, l3_hits = 0, dram = 0;
    uint64_t minor_faults = 0;
    uint64_t ecalls = 0;
    uint64_t resid = 0;
    uint32_t misses = 0;  // miss-stream entries consumed by this segment

    // Total segment cycles under `cfg` when its miss slice produced
    // `faults` EPC faults.
    uint64_t Price(const SimConfig& cfg, uint64_t faults) const;
  };

  SimConfig config_;
  ReplayResult base_;
  uint64_t total_ecalls_ = 0;  // event-derived; repriced under any config
  std::vector<uint32_t> miss_pages_;  // EPC page per enclave LLC miss, in order
  std::vector<SegCounts> segs_;
  std::vector<Op> ops_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_TRACE_TRACE_REPLAY_H_
