// ShadowBound-style scheme as a workload policy: bounds live in 8-byte-
// granule shadow memory as {distance-to-start, distance-to-end} pairs, so a
// check is one dependent shadow load (both bounds reconstructed from it)
// instead of SGXBounds' pointer decode + LB footer load, and free() clears
// the entries - adding use-after-free detection the paper's three schemes
// lack. The anchor rides in the 64-bit pointer slot; the SS4.4
// optimizations apply as for SGXBounds, and the scheme's registry defaults
// additionally switch on the three new pipeline passes (redundant /
// pattern-loop / in-field elision).
//
// The whole scheme lives in this directory; the rest of the repo sees it
// only through the registry (scheme_list.h is the single registration line).

#ifndef SGXBOUNDS_SRC_POLICY_SHADOW_SHADOW_POLICY_H_
#define SGXBOUNDS_SRC_POLICY_SHADOW_SHADOW_POLICY_H_

#include "src/policy/front_end.h"
#include "src/policy/shadow/shadow_runtime.h"

namespace sgxb {

class ShadowPolicy final : public PolicyFrontEnd<ShadowPolicy, ShadowPtr> {
 public:
  static constexpr PolicyKind kKind = PolicyKind::kShadow;
  static constexpr bool kElidesAndHoists = true;

  // Registry entry (defined in this scheme's scheme.cc).
  static const SchemeDescriptor& Descriptor();

  ShadowPolicy(Enclave* enclave, Heap* heap, const PolicyOptions& options)
      : PolicyFrontEnd(enclave, options), rt_(enclave, heap) {}

  static uint32_t Addr(Ptr p) { return ShAddr(p); }
  static Ptr Add(Ptr p, int64_t delta) { return ShAdd(p, delta); }
  static uint64_t ToSlot(Ptr p) { return p; }
  static Ptr FromSlot(uint64_t raw) { return raw; }

  Ptr Malloc(Cpu& cpu, uint32_t size) { return rt_.Malloc(cpu, size); }
  Ptr AlignedAlloc(Cpu& cpu, uint32_t size, uint32_t align) {
    return rt_.MallocAligned(cpu, size, align);
  }
  Ptr Calloc(Cpu& cpu, uint32_t count, uint32_t elem) { return rt_.Calloc(cpu, count, elem); }
  void Free(Cpu& cpu, Ptr p) { rt_.Free(cpu, p); }
  Ptr Offset(Cpu& cpu, Ptr p, int64_t delta) { return rt_.PtrAdd(cpu, p, delta); }

  // One dependent shadow load at the anchor's granule.
  ResolvedAccess Check(Cpu& cpu, Ptr p, uint32_t size, AccessType type) {
    return ResolvedAccess{rt_.CheckAccess(cpu, p, size, type), false, false};
  }
  void CheckRange(Cpu& cpu, Ptr p, uint64_t extent_bytes) {
    rt_.CheckRange(cpu, p, extent_bytes);
  }

  // Anchor-tagged pointers (kMaskPtr arithmetic, exactly as SGXBounds) with
  // kSchemeCheck/kSchemeCheckRange dispatched to ShadowRuntime. The 8-byte
  // granule is the in-field elision floor: a constant offset below the
  // object's rounded footprint can never trap.
  static CheckSchemeLowering IrLowering() {
    return TaggedSchemeCheckLowering(kShadowGranule);
  }
  void AttachIr(Interpreter& interp) { interp.AttachScheme(&rt_); }

  // Shadow entries are in-memory metadata: the fault injector's
  // kMetadataFlip events hit them, like ASan's shadow bytes and MPX's
  // bounds tables.
  void AttachFaults(FaultInjector* faults) {
    faults->RegisterMetadataCorruptor(
        [this](Cpu& cpu, Rng& rng) { return rt_.CorruptShadowEntry(cpu, rng); });
  }

  ShadowRuntime& runtime() { return rt_; }

 private:
  ShadowRuntime rt_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_SHADOW_SHADOW_POLICY_H_
