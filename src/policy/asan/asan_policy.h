// AddressSanitizer as a workload policy: raw pointers, shadow-memory check
// before every access, redzone-padded allocation, quarantined frees. Spans
// cannot hoist shadow checks (there is no per-object bound to compare
// against), so loop bodies pay the per-access shadow load - the locality
// cost the paper measures on matrixmul (SS6.4). Field accesses are checked
// too: ASan has no static in-bounds proof for heap objects.

#ifndef SGXBOUNDS_SRC_POLICY_ASAN_ASAN_POLICY_H_
#define SGXBOUNDS_SRC_POLICY_ASAN_ASAN_POLICY_H_

#include "src/asan/asan_runtime.h"
#include "src/policy/front_end.h"

namespace sgxb {

class AsanPolicy final : public PolicyFrontEnd<AsanPolicy, RawPtr> {
 public:
  static constexpr PolicyKind kKind = PolicyKind::kAsan;

  // Registry entry (defined in this scheme's scheme.cc).
  static const SchemeDescriptor& Descriptor();

  AsanPolicy(Enclave* enclave, Heap* heap, const PolicyOptions& options)
      : PolicyFrontEnd(enclave, options), rt_(enclave, heap) {}

  static uint32_t Addr(Ptr p) { return p.addr; }
  static Ptr Add(Ptr p, int64_t delta) { return Ptr{static_cast<uint32_t>(p.addr + delta)}; }
  static uint64_t ToSlot(Ptr p) { return p.addr; }
  static Ptr FromSlot(uint64_t raw) { return Ptr{static_cast<uint32_t>(raw)}; }

  Ptr Malloc(Cpu& cpu, uint32_t size) { return Ptr{rt_.Malloc(cpu, size)}; }

  // ASan's interceptor serves aligned requests from the redzone allocator;
  // alignment beyond the redzone granularity is not preserved (matches the
  // interceptor's behaviour for pool allocators).
  Ptr AlignedAlloc(Cpu& cpu, uint32_t size, uint32_t align) {
    (void)align;
    return Ptr{rt_.Malloc(cpu, size)};
  }

  void Free(Cpu& cpu, Ptr p) { rt_.Free(cpu, p.addr); }

  Ptr Offset(Cpu& cpu, Ptr p, int64_t delta) {
    cpu.Alu(1);
    return Add(p, delta);
  }

  // Shadow check of [addr, addr+size): the interceptor's first+last granule
  // fast path and full poison scan for ranges. Reports trap.
  ResolvedAccess Check(Cpu& cpu, Ptr p, uint32_t size, AccessType type) {
    rt_.CheckAccess(cpu, p.addr, size, /*is_write=*/type == AccessType::kWrite);
    return ResolvedAccess{p.addr, false, false};
  }

  // Shadow-check instrumentation (kAsanCheck opcodes). ASan's lowering checks
  // every access unconditionally (matching the paper's baseline tooling);
  // only redundant-check elimination is legal on top, and it defaults off.
  static CheckSchemeLowering IrLowering() { return AsanCheckLowering(); }
  void AttachIr(Interpreter& interp) { interp.AttachAsan(&rt_); }

  // Fault campaigns: metadata flips land in the shadow memory.
  void AttachFaults(FaultInjector* faults) {
    faults->RegisterMetadataCorruptor(
        [this](Cpu& cpu, Rng& rng) { return rt_.CorruptShadow(cpu, rng); });
  }

  AsanRuntime& runtime() { return rt_; }

 private:
  AsanRuntime rt_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_ASAN_ASAN_POLICY_H_
