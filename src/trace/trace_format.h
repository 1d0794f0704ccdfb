// On-the-wire format of the .sgxtrace record/replay streams.
//
// A trace is the complete simulated-machine input of one policy run: every
// memory access (with AccessClass), page commit/decommit, parallel-region
// boundary, and an aggregate of the config-independent compute charges. It
// deliberately excludes everything the machine configuration *produces*
// (cache hits, EPC faults, cycle costs): replaying the stream through a
// fresh Cpu/MemorySystem stack under any EPC size, cache geometry, cost
// table or enclave mode re-derives those, so one execution can be simulated
// under every configuration.
//
// Encoding: a byte-oriented stream of events. The first byte packs the
// event kind in bits 0-2 and kind-specific payload bits above; operands are
// LEB128 varints, with addresses and page numbers delta-encoded (zigzag)
// against a running context shared by encoder and decoder. Monotone access
// runs (constant stride, same class/size) collapse into one kAccessRun
// event, which is what keeps streaming workloads' traces small and replay
// decode off the critical path.
//
// The format is versioned; golden-trace tests pin both the stream content
// and this encoding, so bump kTraceVersion on any change to either.

#ifndef SGXBOUNDS_SRC_TRACE_TRACE_FORMAT_H_
#define SGXBOUNDS_SRC_TRACE_TRACE_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/cost_model.h"

namespace sgxb {

inline constexpr uint32_t kTraceVersion = 1;
// Version 2 streams are byte-identical to version 1 except the header cost
// table carries four extra fields (ecall/ocall/switchless_ocall/switchless).
// Recordings use v2 only when the transition axis is on, so every
// transitions-off trace — including the checked-in goldens — stays v1.
inline constexpr uint32_t kTraceVersionTransitions = 2;
inline constexpr char kTraceMagic[8] = {'S', 'G', 'X', 'T', 'R', 'A', 'C', 'E'};
inline constexpr uint32_t kTraceFooterMagic = 0x53545246u;  // "FRTS"

// --- event kinds (first byte, bits 0-2) ---

enum class TraceEventKind : uint8_t {
  kAccess = 0,     // bits 3-4: AccessClass, bits 5-7: size tag
  kAccessRun = 1,  // same payload bits; + stride + count operands
  kCpuDelta = 2,   // aggregated compute/raw-charge deltas for current cpu
  kCommit = 3,     // page-commit run (minor faults) on current cpu
  kDecommit = 4,   // decommit range: EPC residency invalidation
  kParallel = 5,   // bits 3-4: ParallelSub
  kMarker = 6,     // bits 3-4: MarkerSub (annotations; ignored by replay)
  kControl = 7,    // bits 3-7: ControlSub
};

enum class ParallelSub : uint8_t {
  kBegin = 0,        // operand: nthreads
  kWorkerBegin = 1,  // operand: cpu id (becomes current cpu)
  kWorkerEnd = 2,    // current worker done; replay samples its cycle total
  kEnd = 3,          // operand: spawn/join cycles; current cpu reverts to caller
};

enum class MarkerSub : uint8_t {
  kAlloc = 0,  // operands: addr delta, size
  kFree = 1,   // operand: addr delta
  kEpoch = 2,  // operand: epoch/phase id
};

enum class ControlSub : uint8_t {
  kEnd = 0,        // end of stream
  kSwitchCpu = 1,  // operand: cpu id
  // Periodic access pattern: P phases repeated N times. Instrumented loops
  // (data access + bounds/shadow accesses per element) emit one of these per
  // loop instead of millions of per-access events; this is what makes traces
  // compact and replay faster than live execution.
  // Operands: P, N, then per phase: a shape byte (klass | size-tag<<2 |
  // has-run<<5), zigzag addr0 delta (phase 0 vs the running address context,
  // later phases vs the previous phase's addr0), zigzag per-iteration
  // address step, [zigzag intra-run stride + varint intra-run count when
  // has-run], [varint size when size-tag 0].
  kLoopRun = 2,
  // Aggregated ECALL count for the current cpu since its last kEcall event
  // (operand: varint count). Structural like syscalls-in-deltas: the count is
  // config-independent, and replay prices it only when the replay config is
  // enclave-mode with the transition axis enabled.
  kEcall = 3,
};

// Phase count cap for kLoopRun events (covers the patterns real
// instrumented loops produce; larger periods simply don't coalesce).
inline constexpr uint32_t kMaxLoopPeriod = 8;

// Size tag in kAccess/kAccessRun bits 5-7: common power-of-two access sizes
// encode in the opcode byte, everything else (tag 0) as a trailing varint.
inline uint8_t SizeTagOf(uint32_t size) {
  switch (size) {
    case 1: return 1;
    case 2: return 2;
    case 4: return 3;
    case 8: return 4;
    case 16: return 5;
    case 32: return 6;
    case 64: return 7;
    default: return 0;
  }
}
inline uint32_t SizeOfTag(uint8_t tag) {
  return tag == 0 ? 0 : 1u << (tag - 1);
}

// kCpuDelta field presence mask (one varint per set bit, in this order).
enum CpuDeltaField : uint8_t {
  kDeltaAlu = 1u << 0,
  kDeltaBranch = 1u << 1,
  kDeltaFp = 1u << 2,
  kDeltaCall = 1u << 3,
  kDeltaSyscall = 1u << 4,
  kDeltaBoundsChecks = 1u << 5,
  kDeltaBoundsViolations = 1u << 6,
  kDeltaRawCycles = 1u << 7,
};

struct CpuDelta {
  uint64_t alu = 0;
  uint64_t branches = 0;
  uint64_t fp = 0;
  uint64_t calls = 0;
  uint64_t syscalls = 0;
  uint64_t bounds_checks = 0;
  uint64_t bounds_violations = 0;
  uint64_t raw_cycles = 0;  // constant-cost Cpu::Charge sums (heap, libc, ...)

  bool Empty() const {
    return (alu | branches | fp | calls | syscalls | bounds_checks | bounds_violations |
            raw_cycles) == 0;
  }
};

// --- varints ---

inline void PutVarint(std::vector<uint8_t>& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<uint8_t>(v));
}

inline uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

inline void PutZigZag(std::vector<uint8_t>& out, int64_t v) { PutVarint(out, ZigZag(v)); }

// Decode-side varint: advances *p; returns 0 and pins *p to end on overrun
// (the caller detects truncation by position). Bits past the 64th of an
// over-long (corrupt) varint are dropped.
inline uint64_t GetVarint(const uint8_t** p, const uint8_t* end) {
  uint64_t v = 0;
  uint32_t shift = 0;
  while (*p < end) {
    const uint8_t byte = *(*p)++;
    if (shift < 64) {
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    }
    if ((byte & 0x80) == 0) {
      return v;
    }
    shift += 7;
  }
  return v;
}

// --- stream hashing (FNV-1a 64) ---

inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;

inline uint64_t FnvUpdate(uint64_t h, const uint8_t* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ data[i]) * kFnvPrime;
  }
  return h;
}

// Stable id of a cost table (reported in headers and repro banners so two
// result sets are comparable at a glance).
inline uint64_t CostTableId(const CostModel& c) {
  const uint32_t fields[] = {c.alu,       c.branch,     c.fp,          c.call,
                             c.l1_hit,    c.l2_hit,     c.l3_hit,      c.dram,
                             c.mee_line,  c.epc_fault,  c.minor_fault, c.syscall_exit,
                             c.syscall_native};
  uint64_t h = kFnvOffset;
  for (uint32_t f : fields) {
    uint8_t bytes[4];
    bytes[0] = static_cast<uint8_t>(f);
    bytes[1] = static_cast<uint8_t>(f >> 8);
    bytes[2] = static_cast<uint8_t>(f >> 16);
    bytes[3] = static_cast<uint8_t>(f >> 24);
    h = FnvUpdate(h, bytes, 4);
  }
  // The transition fields join the hash only when the axis is on: every
  // transitions-off table (including the default) keeps its pre-transition
  // id, which the golden-trace regression pins.
  if (c.TransitionsEnabled()) {
    const uint32_t extra[] = {c.ecall, c.ocall, c.switchless_ocall, c.switchless};
    for (uint32_t f : extra) {
      uint8_t bytes[4];
      bytes[0] = static_cast<uint8_t>(f);
      bytes[1] = static_cast<uint8_t>(f >> 8);
      bytes[2] = static_cast<uint8_t>(f >> 16);
      bytes[3] = static_cast<uint8_t>(f >> 24);
      h = FnvUpdate(h, bytes, 4);
    }
  }
  return h;
}

// --- header / summary ---

// Everything needed to rebuild the recording machine configuration, plus
// identification of what was recorded.
struct TraceHeader {
  uint32_t version = kTraceVersion;
  uint8_t policy = 0;  // PolicyKind
  uint8_t enclave_mode = 1;
  uint32_t threads = 1;
  uint64_t seed = 0;
  uint64_t space_bytes = 0;
  uint64_t heap_reserve = 0;
  // SimConfig of the recording machine.
  uint64_t l1_bytes = 0;
  uint32_t l1_ways = 0;
  uint64_t l2_bytes = 0;
  uint32_t l2_ways = 0;
  uint64_t l3_bytes = 0;
  uint32_t l3_ways = 0;
  uint64_t epc_bytes = 0;
  CostModel costs;
  uint64_t cost_table_id = 0;
  // Identification (free-form; set by the recording driver).
  std::string workload;
  std::string note;
};

// Written after the event stream: the live run's outcome, used to validate
// same-config replays and to carry the config-independent result fields
// (peak VM, crash status) that replay cannot re-derive.
struct TraceSummary {
  uint64_t event_count = 0;  // total events, including any not retained
  uint64_t stream_hash = 0;  // FNV-1a over ALL encoded event bytes
  uint32_t cpu_count = 0;
  uint8_t truncated = 0;  // event bytes cut at the recorder's event limit
  uint8_t crashed = 0;
  uint8_t trap_kind = 0;  // TrapKind, valid when crashed
  uint64_t live_cycles = 0;       // main-cpu cycle total of the live run
  uint64_t peak_vm_bytes = 0;     // config-independent; copied into replays
  uint32_t mpx_bt_count = 0;      // config-independent; copied into replays
  std::string trap_message;
};

// A complete in-memory trace.
struct Trace {
  TraceHeader header;
  TraceSummary summary;
  std::vector<uint8_t> events;  // encoded stream (possibly a truncated prefix)
};

const char* TraceEventKindName(TraceEventKind kind);

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_TRACE_TRACE_FORMAT_H_
