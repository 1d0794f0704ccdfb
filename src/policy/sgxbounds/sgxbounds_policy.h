// SGXBounds as a workload policy: tagged pointers travel through the program,
// every access is bounds-checked, pointer-in-memory needs nothing special
// (the tag rides in the 64-bit slot), and the SS4.4 optimizations apply:
// field accesses elide provably-safe checks, spans hoist one range check.
// Under OobPolicy::kBoundless an out-of-bounds load is served from the
// overlay or zero-filled (SS4.2).

#ifndef SGXBOUNDS_SRC_POLICY_SGXBOUNDS_SGXBOUNDS_POLICY_H_
#define SGXBOUNDS_SRC_POLICY_SGXBOUNDS_SGXBOUNDS_POLICY_H_

#include "src/policy/front_end.h"
#include "src/sgxbounds/bounds_runtime.h"

namespace sgxb {

class SgxBoundsPolicy final : public PolicyFrontEnd<SgxBoundsPolicy, TaggedPtr> {
 public:
  static constexpr PolicyKind kKind = PolicyKind::kSgxBounds;
  static constexpr bool kElidesAndHoists = true;

  // Registry entry (defined in this scheme's scheme.cc).
  static const SchemeDescriptor& Descriptor();

  SgxBoundsPolicy(Enclave* enclave, Heap* heap, const PolicyOptions& options)
      : PolicyFrontEnd(enclave, options), rt_(enclave, heap, options.oob) {
    rt_.boundless().set_exhaust_policy(options.overlay_exhaust);
  }

  static uint32_t Addr(Ptr p) { return ExtractPtr(p); }
  static Ptr Add(Ptr p, int64_t delta) { return TaggedAdd(p, delta); }
  static uint64_t ToSlot(Ptr p) { return p; }
  static Ptr FromSlot(uint64_t raw) { return raw; }

  Ptr Malloc(Cpu& cpu, uint32_t size) { return rt_.Malloc(cpu, size); }
  Ptr AlignedAlloc(Cpu& cpu, uint32_t size, uint32_t align) {
    return rt_.MallocAligned(cpu, size, align);
  }
  Ptr Calloc(Cpu& cpu, uint32_t count, uint32_t elem) { return rt_.Calloc(cpu, count, elem); }
  void Free(Cpu& cpu, Ptr p) { rt_.Free(cpu, p); }
  Ptr Offset(Cpu& cpu, Ptr p, int64_t delta) { return rt_.PtrAdd(cpu, p, delta); }

  // The full SS3.2 sequence: extract, LB footer load, two compares.
  ResolvedAccess Check(Cpu& cpu, Ptr p, uint32_t size, AccessType type) {
    return rt_.CheckAccess(cpu, p, size, type);
  }
  void CheckRange(Cpu& cpu, Ptr p, uint64_t extent_bytes) {
    rt_.CheckRange(cpu, p, extent_bytes);
  }

  // Tagged-pointer lowering (kSgxCheck opcodes, "sgx" allocation symbol),
  // runtime attached via the interpreter's dedicated SGXBounds hook. LB/UB
  // are exact (no allocation padding floor), so in-field elision is not
  // legal here; every other pass is.
  static CheckSchemeLowering IrLowering() { return SgxBoundsCheckLowering(); }
  void AttachIr(Interpreter& interp) { interp.AttachSgx(&rt_); }

  // Fault campaigns: metadata flips land in a live object's LB footer.
  void AttachFaults(FaultInjector* faults) {
    rt_.set_track_objects(true);
    faults->RegisterMetadataCorruptor(
        [this](Cpu& cpu, Rng& rng) { return rt_.CorruptLbFooter(cpu, rng); });
  }

  SgxBoundsRuntime& runtime() { return rt_; }

 private:
  SgxBoundsRuntime rt_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_SGXBOUNDS_SGXBOUNDS_POLICY_H_
