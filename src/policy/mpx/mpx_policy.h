// Intel MPX as a workload policy: a pointer travels with its bounds "in a
// register" (part of Ptr); every access pays bndcl/bndcu; storing or loading
// a pointer through memory pays the bndstx/bndldx two-level table walk unless
// the 4-register file still holds that slot's bounds. Allocation itself is
// uninstrumented (bounds live in the disjoint tables). GCC's instrumentation
// has no elision or hoisting pass, so field and span accesses keep their
// per-access bndcl/bndcu.

#ifndef SGXBOUNDS_SRC_POLICY_MPX_MPX_POLICY_H_
#define SGXBOUNDS_SRC_POLICY_MPX_MPX_POLICY_H_

#include "src/mpx/mpx_runtime.h"
#include "src/policy/front_end.h"

namespace sgxb {

struct MpxPtr {
  uint32_t addr = 0;
  MpxBounds bounds;  // INIT bounds for untagged pointers
};

class MpxPolicy final : public PolicyFrontEnd<MpxPolicy, MpxPtr> {
 public:
  static constexpr PolicyKind kKind = PolicyKind::kMpx;

  // Registry entry (defined in this scheme's scheme.cc).
  static const SchemeDescriptor& Descriptor();

  MpxPolicy(Enclave* enclave, Heap* heap, const PolicyOptions& options)
      : PolicyFrontEnd(enclave, options), heap_(heap), rt_(enclave) {}

  static uint32_t Addr(Ptr p) { return p.addr; }
  // Bounds stay in the register across arithmetic.
  static Ptr Add(Ptr p, int64_t delta) {
    return Ptr{static_cast<uint32_t>(p.addr + delta), p.bounds};
  }

  Ptr Malloc(Cpu& cpu, uint32_t size) {
    const uint32_t addr = heap_->Alloc(cpu, size);
    return Ptr{addr, rt_.BndMk(cpu, addr, size)};
  }

  Ptr AlignedAlloc(Cpu& cpu, uint32_t size, uint32_t align) {
    const uint32_t addr = heap_->Alloc(cpu, size, align);
    return Ptr{addr, rt_.BndMk(cpu, addr, size)};
  }

  void Free(Cpu& cpu, Ptr p) { heap_->Free(cpu, p.addr); }

  Ptr Offset(Cpu& cpu, Ptr p, int64_t delta) {
    cpu.Alu(1);
    return Add(p, delta);
  }

  // bndcl + bndcu against the register bounds.
  ResolvedAccess Check(Cpu& cpu, Ptr p, uint32_t size, AccessType type) {
    (void)type;
    rt_.BndCheck(cpu, p.bounds, p.addr, size);
    return ResolvedAccess{p.addr, false, false};
  }

  // Pointer-in-memory: this is where MPX hurts. A pointer load must also
  // bndldx its bounds (2 dependent metadata loads); a pointer store must
  // bndstx (metadata store + possible BT allocation).
  Ptr LoadPtr(Cpu& cpu, Ptr slot) {
    const uint32_t value = static_cast<uint32_t>(Load<uint64_t>(cpu, slot));
    MpxBounds bounds;
    if (!rt_.RegLookup(slot.addr, &bounds)) {
      bounds = rt_.BndLdx(cpu, slot.addr, value);
    }
    return Ptr{value, bounds};
  }

  void StorePtr(Cpu& cpu, Ptr slot, Ptr value) {
    Store<uint64_t>(cpu, slot, value.addr);
    rt_.BndStx(cpu, slot.addr, value.addr, value.bounds);
  }

  // bndcl/bndcu instrumentation plus bndldx/bndstx at pointer-in-memory
  // sites (kMpx* opcodes). Redundant-check elimination is legal (bndldx/
  // bndstx traffic is preserved even where a check is deleted) and defaults
  // off.
  static CheckSchemeLowering IrLowering() { return MpxCheckLowering(); }
  void AttachIr(Interpreter& interp) { interp.AttachMpx(&rt_); }

  // Fault campaigns: metadata flips land in a populated bounds-table entry.
  void AttachFaults(FaultInjector* faults) {
    rt_.set_track_entries(true);
    faults->RegisterMetadataCorruptor(
        [this](Cpu& cpu, Rng& rng) { return rt_.CorruptBoundsTable(cpu, rng); });
  }

  // Optional harness hook (run.h): Table 3's bounds-table count rides in the
  // RunResult. Templated so this header needs no RunResult definition.
  template <typename Result>
  void CollectRunMetrics(Result& result) {
    result.mpx_bt_count = rt_.bt_count();
  }

  MpxRuntime& runtime() { return rt_; }

 private:
  Heap* heap_;
  MpxRuntime rt_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_MPX_MPX_POLICY_H_
