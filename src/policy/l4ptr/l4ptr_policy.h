// l4ptr as a workload policy: both bounds ride in the pointer's upper 32
// bits, so checks are register-only (no LB footer load) while pointer
// arithmetic and allocation pay for the power-of-two encoding. The tag
// rides in the 64-bit pointer slot, and the SS4.4 optimizations apply
// exactly as for SGXBounds.
//
// The whole scheme lives in this directory; the rest of the repo sees it
// only through the registry (scheme_list.h is the single registration line).

#ifndef SGXBOUNDS_SRC_POLICY_L4PTR_L4PTR_POLICY_H_
#define SGXBOUNDS_SRC_POLICY_L4PTR_L4PTR_POLICY_H_

#include "src/policy/front_end.h"
#include "src/policy/l4ptr/l4ptr_runtime.h"

namespace sgxb {

class L4PtrPolicy final : public PolicyFrontEnd<L4PtrPolicy, L4Ptr> {
 public:
  static constexpr PolicyKind kKind = PolicyKind::kL4Ptr;
  static constexpr bool kElidesAndHoists = true;

  // Registry entry (defined in this scheme's scheme.cc).
  static const SchemeDescriptor& Descriptor();

  L4PtrPolicy(Enclave* enclave, Heap* heap, const PolicyOptions& options)
      : PolicyFrontEnd(enclave, options), rt_(enclave, heap) {}

  static uint32_t Addr(Ptr p) { return L4Addr(p); }
  static Ptr Add(Ptr p, int64_t delta) { return L4Add(p, delta); }
  static uint64_t ToSlot(Ptr p) { return p; }
  static Ptr FromSlot(uint64_t raw) { return raw; }

  Ptr Malloc(Cpu& cpu, uint32_t size) { return rt_.Malloc(cpu, size); }
  Ptr AlignedAlloc(Cpu& cpu, uint32_t size, uint32_t align) {
    return rt_.MallocAligned(cpu, size, align);
  }
  Ptr Calloc(Cpu& cpu, uint32_t count, uint32_t elem) { return rt_.Calloc(cpu, count, elem); }
  void Free(Cpu& cpu, Ptr p) { rt_.Free(cpu, p); }
  Ptr Offset(Cpu& cpu, Ptr p, int64_t delta) { return rt_.PtrAdd(cpu, p, delta); }

  // Register-only check: both bounds decode from the tag.
  ResolvedAccess Check(Cpu& cpu, Ptr p, uint32_t size, AccessType type) {
    return ResolvedAccess{rt_.CheckAccess(cpu, p, size, type), false, false};
  }
  void CheckRange(Cpu& cpu, Ptr p, uint64_t extent_bytes) {
    rt_.CheckRange(cpu, p, extent_bytes);
  }

  // The generic scheme pass (kSchemeCheck opcodes, "scheme" allocation
  // symbol) with the runtime attached through the interpreter's pluggable
  // IrSchemeRuntime hook. Every allocation pads to a power of two >= 32
  // bytes (kL4Granule), so in-field elision is legal with a 32-byte floor.
  static CheckSchemeLowering IrLowering() { return TaggedSchemeCheckLowering(kL4Granule); }
  void AttachIr(Interpreter& interp) { interp.AttachScheme(&rt_); }

  // No in-memory metadata to corrupt: bounds live in pointer registers, so
  // the front-end's no-op AttachFaults applies (the descriptor claims no
  // corruptor).

  L4PtrRuntime& runtime() { return rt_; }

 private:
  L4PtrRuntime rt_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_L4PTR_L4PTR_POLICY_H_
