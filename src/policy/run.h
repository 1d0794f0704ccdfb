// Experiment harness: build a machine, pick a policy, run a workload body,
// collect the paper's metrics (cycles, peak virtual memory, counters, crash).
//
// Usage:
//   MachineSpec spec;
//   spec.threads = 8;
//   RunResult r = RunPolicyKind(PolicyKind::kSgxBounds, spec, PolicyOptions{},
//                               [](auto& env) { MyKernel(env); });
//
// The body receives Env<P>& where P is the concrete policy class; workload
// kernels are templates over that type, which is the moral equivalent of
// compiling the same C source under four different instrumentations.

#ifndef SGXBOUNDS_SRC_POLICY_RUN_H_
#define SGXBOUNDS_SRC_POLICY_RUN_H_

#include <optional>
#include <string>

#include "src/common/rng.h"
#include "src/fault/fault.h"
#include "src/ir/opt/pipeline.h"
#include "src/policy/recovery.h"
#include "src/policy/scheme_list.h"
#include "src/runtime/thread_pool.h"

namespace sgxb {

struct MachineSpec {
  bool enclave_mode = true;
  uint64_t epc_bytes = 94 * kMiB;
  uint64_t space_bytes = 4 * kGiB;
  // 3 GiB: large enough for every workload's data; the remaining ~1 GiB of
  // address space is what Intel MPX's on-demand 4 MiB bounds tables compete
  // for - pointer-heavy workloads with >~250 MiB of pointer-bearing heap
  // exhaust it and die with kOutOfMemory, reproducing the paper's MPX
  // crashes (dedup, SQLite, astar, mcf, xalanc).
  uint64_t heap_reserve = 3 * kGiB;
  uint32_t threads = 1;
  uint64_t seed = 42;
  // Cost table for the simulated machine. Defaults leave every axis at the
  // calibrated values with enclave transitions off; call
  // costs.EnableTransitions() to charge ECALL/OCALL world switches.
  CostModel costs;
  // Optional: record this run's event stream (src/trace). The recorder must
  // outlive the run; the harness calls BeginRun/Finalize around the body.
  TraceRecorder* trace = nullptr;
  // Optional: a deterministic fault campaign (src/fault) armed on the
  // enclave before the body runs. The plan must outlive the run.
  const FaultPlan* faults = nullptr;
  // Trap-recovery configuration for env.Serve() request containment;
  // disabled by default (traps propagate as before).
  RecoveryConfig recovery;
};

struct RunResult {
  PolicyKind kind = PolicyKind::kNative;
  uint64_t cycles = 0;
  uint64_t peak_vm_bytes = 0;
  PerfCounters counters;
  bool crashed = false;
  TrapKind trap = TrapKind::kSegFault;
  std::string trap_message;
  // MPX-specific (Table 3).
  uint32_t mpx_bt_count = 0;
  // Check-pipeline statistics accumulated over every IR function the body
  // instrumented (zero for non-IR workloads).
  CheckPassStats pass_stats;
  // Fault campaign + recovery accounting (zero when neither was configured).
  FaultStats fault_stats;
  RecoveryStats recovery_stats;

  double CyclesRatioOver(const RunResult& base) const {
    return base.cycles == 0 ? 0.0 : static_cast<double>(cycles) / base.cycles;
  }
  double VmRatioOver(const RunResult& base) const {
    return base.peak_vm_bytes == 0
               ? 0.0
               : static_cast<double>(peak_vm_bytes) / base.peak_vm_bytes;
  }
};

template <typename P>
struct Env {
  Enclave& enclave;
  Heap& heap;
  P& policy;
  Cpu& cpu;
  uint32_t threads;
  Rng rng;
  // The options this run was configured with; interpreter-driven workload
  // bodies read ir_engine from here.
  PolicyOptions options;
  // Trap-recovery control (always present; pass-through when disabled).
  RecoveryControl* recovery = nullptr;
  // Armed fault injector, when the spec carried a FaultPlan (null otherwise).
  // Service harnesses (src/farm) use it to land shard-scoped injections at
  // request positions via InjectNow.
  FaultInjector* faults = nullptr;
  // Check-pipeline statistics; IR-driven bodies accumulate the stats returned
  // by policy.LowerIr here and the harness copies them into
  // RunResult.pass_stats.
  CheckPassStats pass_stats{};

  using Ptr = typename P::Ptr;

  // Convenience: run a parallel region with this env's enclave.
  template <typename Body>
  ParallelResult Parallel(const Body& body) {
    return RunParallel(enclave, cpu, threads, body);
  }

  // Runs `fn` as one contained request under the recovery policy: true when
  // served, false when the request trapped and was dropped. With recovery
  // disabled (the default spec), traps propagate unchanged.
  template <typename Fn>
  bool Serve(Fn&& fn) {
    return recovery->Serve(cpu, std::forward<Fn>(fn));
  }
};

template <typename P, typename Fn>
RunResult RunWithPolicy(const MachineSpec& spec, const PolicyOptions& options, Fn&& fn) {
  EnclaveConfig cfg;
  cfg.sim.enclave_mode = spec.enclave_mode;
  cfg.sim.epc_bytes = spec.epc_bytes;
  cfg.sim.costs = spec.costs;
  cfg.space_bytes = spec.space_bytes;
  Enclave enclave(cfg);
  if (spec.trace != nullptr) {
    TraceHeader machine;
    machine.policy = static_cast<uint8_t>(P::kKind);
    machine.enclave_mode = spec.enclave_mode ? 1 : 0;
    machine.threads = spec.threads;
    machine.seed = spec.seed;
    machine.space_bytes = spec.space_bytes;
    machine.heap_reserve = spec.heap_reserve;
    const SimConfig& sim = enclave.memsys().config();
    machine.l1_bytes = sim.l1_bytes;
    machine.l1_ways = sim.l1_ways;
    machine.l2_bytes = sim.l2_bytes;
    machine.l2_ways = sim.l2_ways;
    machine.l3_bytes = sim.l3_bytes;
    machine.l3_ways = sim.l3_ways;
    machine.epc_bytes = sim.epc_bytes;
    machine.costs = sim.costs;
    if (sim.costs.TransitionsEnabled()) {
      machine.version = kTraceVersionTransitions;
    }
    spec.trace->BeginRun(machine);
    enclave.AttachTrace(spec.trace);
  }
  Heap heap(&enclave, spec.heap_reserve);

  // Fault campaign + recovery wiring. The injector arms the enclave's access
  // tap before the policy is constructed so even runtime-setup accesses
  // advance the deterministic access counter.
  // An empty (but non-null) plan still arms the injector: the farm needs one
  // for shard-scoped InjectNow events even when no per-enclave triggers are
  // scheduled. The empty injector's polls never fire, so simulated results
  // are untouched.
  std::optional<FaultInjector> injector;
  if (spec.faults != nullptr) {
    injector.emplace(*spec.faults);
    injector->Arm(&enclave, &heap);
  }
  RecoveryControl recovery(spec.recovery);

  RunResult result;
  result.kind = P::kKind;
  try {
    P policy(&enclave, &heap, options);
    if (injector.has_value()) {
      policy.AttachFaults(&*injector);
    }
    Env<P> env{enclave, heap, policy, enclave.main_cpu(), spec.threads, Rng(spec.seed),
               options, &recovery, injector.has_value() ? &*injector : nullptr};
    fn(env);
    result.pass_stats = env.pass_stats;
    // Scheme-specific RunResult metrics (e.g. MPX's bounds-table count) are
    // collected through an optional policy hook instead of naming schemes.
    if constexpr (requires { policy.CollectRunMetrics(result); }) {
      policy.CollectRunMetrics(result);
    }
  } catch (const SimTrap& trap) {
    result.crashed = true;
    result.trap = trap.kind();
    result.trap_message = trap.what();
  }
  if (injector.has_value()) {
    result.fault_stats = injector->stats();
    injector->Disarm();
  }
  result.recovery_stats = recovery.stats();
  result.cycles = enclave.main_cpu().cycles();
  result.peak_vm_bytes = enclave.PeakVirtualBytes();
  result.counters = enclave.TotalCounters();
  if (spec.trace != nullptr) {
    TraceRecorder::Outcome outcome;
    outcome.live_cycles = result.cycles;
    outcome.peak_vm_bytes = result.peak_vm_bytes;
    outcome.mpx_bt_count = result.mpx_bt_count;
    outcome.crashed = result.crashed;
    outcome.trap_kind = static_cast<uint8_t>(result.trap);
    outcome.trap_message = result.trap_message;
    spec.trace->Finalize(outcome);
    enclave.AttachTrace(nullptr);
  }
  return result;
}

// Dynamic kind -> concrete policy type: fold over the registered scheme
// list instead of a switch, so a new scheme needs no edit here.
template <typename Fn>
RunResult RunPolicyKind(PolicyKind kind, const MachineSpec& spec, const PolicyOptions& options,
                        Fn&& fn) {
  RunResult result;
  const bool found = SchemePolicies::ForEach([&]<typename P>() {
    if (P::kKind != kind) {
      return false;
    }
    result = RunWithPolicy<P>(spec, options, fn);
    return true;
  });
  (void)found;
  return result;
}

// The paper's four default schemes in presentation order (Figure 7 et al.);
// plugged-in schemes are opt-in via --policies (registry.h PaperSchemes()).
inline constexpr PolicyKind kAllPolicies[] = {PolicyKind::kNative, PolicyKind::kMpx,
                                              PolicyKind::kAsan, PolicyKind::kSgxBounds};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_RUN_H_
