// TraceRecorder: the record half of the record/replay subsystem.
//
// Attached to an Enclave (see Enclave::AttachTrace / MachineSpec::trace), it
// observes the simulation at its choke points — Cpu::MemAccess, raw cycle
// charges, page commits/decommits, parallel-region boundaries — and encodes
// a compact event stream (trace_format.h). Detach is the default: every tap
// is a single `if (trace_ != nullptr)` test on a pointer that is null unless
// a recording was explicitly requested, so the PR-1 fast paths keep their
// speed when tracing is off.
//
// Two aggregation strategies keep recorded streams small and recording
// overhead low:
//   * compute charges (Alu/Branch/Fp/Call/Syscall and constant-cost raw
//     Charge calls) are order-independent within a thread, so they are not
//     recorded per call: the recorder snapshots each Cpu's PerfCounters and
//     emits one kCpuDelta event per flush point (parallel-region boundaries
//     and finalize);
//   * consecutive accesses with equal class/size and constant stride
//     coalesce into one kAccessRun event;
//   * periodic sequences of access events (what instrumented loops produce:
//     a fixed cadence of data + bounds/shadow accesses per element, each
//     phase advancing by its own constant per-iteration step) coalesce into
//     one kLoopRun event per loop. A small window of not-yet-emitted access
//     events feeds the detector; marker and commit events bypass it (their
//     replay effect commutes with accesses), so allocation loops coalesce
//     across their per-iteration markers.
//
// Buffering never reorders access events relative to each other, and only
// reorders replay-commutative events (markers, page commits) relative to
// accesses — replayed cache/EPC state transitions are exactly the live ones.
//
// This header must stay independent of src/sim/machine.h (machine.h includes
// it to inline the taps), so access classes travel as raw uint8_t here.

#ifndef SGXBOUNDS_SRC_TRACE_TRACE_RECORDER_H_
#define SGXBOUNDS_SRC_TRACE_TRACE_RECORDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/perf_counters.h"
#include "src/trace/trace_format.h"

namespace sgxb {

class TraceRecorder {
 public:
  explicit TraceRecorder(std::string workload = "", std::string note = "");

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Called once by the run harness before any event: fills the machine
  // fields of the header (workload/note identification is preserved).
  void BeginRun(const TraceHeader& machine_fields);

  // Registers a hardware thread; returns its trace cpu id. The pointer must
  // stay valid until Finalize (the recorder reads counters at flush points).
  // Ids are handed out in order and a cpu registers when it starts running,
  // so id k never precedes the k-th event (checked; the reader relies on it).
  uint32_t RegisterCpu(const PerfCounters* counters);

  // Retain only the first `n` events in the buffer (hash and count still
  // cover the full stream; the summary marks the trace truncated). Golden
  // prefix traces use this to stay checked-in sized.
  void set_event_limit(uint64_t n) { event_limit_ = n; }

  // --- hot taps ---

  void OnAccess(uint32_t cpu, uint32_t addr, uint32_t size, uint8_t klass) {
    if (cpu != current_cpu_) {
      FlushAccessStream();
      EmitSwitch(cpu);
    }
    if (run_count_ > 0 && klass == run_klass_ && size == run_size_) {
      if (run_count_ == 1) {
        run_stride_ = static_cast<int64_t>(addr) - static_cast<int64_t>(run_addr_);
        run_count_ = 2;
        return;
      }
      if (static_cast<int64_t>(addr) ==
          static_cast<int64_t>(run_addr_) + run_stride_ * static_cast<int64_t>(run_count_)) {
        ++run_count_;
        return;
      }
    }
    FlushRun();
    run_addr_ = addr;
    run_size_ = size;
    run_klass_ = klass;
    run_count_ = 1;
  }

  void OnRawCharge(uint32_t cpu, uint64_t cycles) { tracks_[cpu].pending_raw += cycles; }

  // ECALL tap (Cpu::Ecall). Counts are order-independent within a thread, so
  // they aggregate like compute deltas and flush as one kEcall control event
  // per flush point.
  void OnEcall(uint32_t cpu) { ++tracks_[cpu].pending_ecalls; }

  // --- structural events ---

  void OnCommit(uint32_t cpu, uint32_t first_page, uint32_t count);
  void OnDecommit(uint32_t first_page, uint32_t count);
  void OnParallelBegin(uint32_t caller_cpu, uint32_t nthreads);
  void OnWorkerBegin(uint32_t cpu);
  void OnWorkerEnd(uint32_t cpu);
  void OnParallelEnd(uint32_t caller_cpu, uint64_t spawn_cycles);
  void OnAlloc(uint32_t cpu, uint32_t addr, uint32_t size);
  void OnFree(uint32_t cpu, uint32_t addr);
  void OnEpoch(uint32_t cpu, uint32_t id);

  // Flushes everything, emits the end-of-stream event and fills the summary
  // outcome fields. Idempotent wiring is the harness's job: call once.
  struct Outcome {
    uint64_t live_cycles = 0;
    uint64_t peak_vm_bytes = 0;
    uint32_t mpx_bt_count = 0;
    bool crashed = false;
    uint8_t trap_kind = 0;
    std::string trap_message;
  };
  void Finalize(const Outcome& outcome);

  bool finalized() const { return finalized_; }

  // Moves the finished trace out of the recorder (valid after Finalize).
  Trace TakeTrace();

 private:
  struct CounterSnap {
    uint64_t alu = 0, branches = 0, fp = 0, calls = 0, syscalls = 0;
    uint64_t bounds_checks = 0, bounds_violations = 0;
  };
  struct CpuTrack {
    const PerfCounters* counters = nullptr;
    CounterSnap snap;
    uint64_t pending_raw = 0;
    uint64_t pending_ecalls = 0;
  };

  // One access event awaiting emission: a single access (count 1) or an
  // already-coalesced constant-stride run.
  struct AccessDesc {
    uint32_t addr = 0;
    uint32_t size = 0;
    uint8_t klass = 0;
    int64_t stride = 0;  // intra-run stride; 0 for singles
    uint64_t count = 1;
    bool SameShape(const AccessDesc& o) const {
      return klass == o.klass && size == o.size && stride == o.stride && count == o.count;
    }
  };

  // The detector needs three full iterations before committing to a period.
  static constexpr size_t kWindowCap = 3 * kMaxLoopPeriod;

  // Closes the pending first-level run, if any, and feeds it downstream.
  void FlushRun();
  // Second stage: extend the active loop / detect a new one / buffer.
  void PushDesc(const AccessDesc& d);
  bool TryDetectLoop();
  // Emits the active kLoopRun event plus any partial-iteration leftovers.
  void FlushLoop();
  // Encodes one access/run event against the emission-order address context.
  void EmitDesc(const AccessDesc& d);
  // Hard barrier: emits everything buffered, in arrival order.
  void FlushAccessStream();
  // Emits the kCpuDelta event for `cpu` if it has non-zero pending deltas
  // (caller has already made `cpu` current).
  void FlushCpuDeltas(uint32_t cpu);
  void EmitSwitch(uint32_t cpu);
  void SwitchTo(uint32_t cpu) {
    if (cpu != current_cpu_) {
      FlushAccessStream();
      EmitSwitch(cpu);
    }
  }
  // Appends one encoded event: hashes and counts it always, retains the
  // bytes only while under the event limit.
  void EmitEvent(const std::vector<uint8_t>& scratch);

  Trace trace_;
  std::vector<CpuTrack> tracks_;
  bool begun_ = false;
  bool finalized_ = false;
  uint64_t event_limit_ = ~0ull;
  uint64_t event_count_ = 0;
  uint64_t hash_ = kFnvOffset;
  bool truncated_ = false;

  // Encoder context (mirrored by the decoder).
  uint32_t current_cpu_ = 0;
  uint32_t last_addr_ = 0;
  uint32_t last_page_ = 0;

  // Open parallel regions (caller cpu ids), mirroring the decoder's stack.
  std::vector<uint32_t> parallel_callers_;

  // Pending access run.
  uint32_t run_addr_ = 0;
  uint32_t run_size_ = 0;
  uint8_t run_klass_ = 0;
  int64_t run_stride_ = 0;
  uint32_t run_count_ = 0;

  // Periodic-pattern detector. While a loop is active the window is empty:
  // matching descs are consumed phase by phase, anything else flushes the
  // loop. Otherwise descs buffer in `window_` (FIFO, emitted on overflow)
  // until three consecutive iterations of some period <= kMaxLoopPeriod
  // line up.
  bool loop_active_ = false;
  uint32_t loop_period_ = 0;
  uint32_t loop_phase_ = 0;
  uint64_t loop_iters_ = 0;
  AccessDesc loop_base_[kMaxLoopPeriod];   // iteration-0 descs
  int64_t loop_delta_[kMaxLoopPeriod] = {};  // per-iteration address steps
  std::vector<AccessDesc> window_;

  std::vector<uint8_t> scratch_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_TRACE_TRACE_RECORDER_H_
