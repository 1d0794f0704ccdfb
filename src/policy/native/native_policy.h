// The uninstrumented baseline ("SGX" bars in the paper's figures): plain
// allocation and direct accesses, charged only for the application's own
// traffic and addressing arithmetic.

#ifndef SGXBOUNDS_SRC_POLICY_NATIVE_NATIVE_POLICY_H_
#define SGXBOUNDS_SRC_POLICY_NATIVE_NATIVE_POLICY_H_

#include "src/policy/front_end.h"
#include "src/runtime/heap.h"

namespace sgxb {

class NativePolicy final : public PolicyFrontEnd<NativePolicy, RawPtr> {
 public:
  static constexpr PolicyKind kKind = PolicyKind::kNative;

  // Registry entry (defined in this scheme's scheme.cc).
  static const SchemeDescriptor& Descriptor();

  NativePolicy(Enclave* enclave, Heap* heap, const PolicyOptions& options)
      : PolicyFrontEnd(enclave, options), heap_(heap) {}

  static uint32_t Addr(Ptr p) { return p.addr; }
  static Ptr Add(Ptr p, int64_t delta) { return Ptr{static_cast<uint32_t>(p.addr + delta)}; }
  static uint64_t ToSlot(Ptr p) { return p.addr; }
  static Ptr FromSlot(uint64_t raw) { return Ptr{static_cast<uint32_t>(raw)}; }

  Ptr Malloc(Cpu& cpu, uint32_t size) { return Ptr{heap_->Alloc(cpu, size)}; }

  Ptr AlignedAlloc(Cpu& cpu, uint32_t size, uint32_t align) {
    return Ptr{heap_->Alloc(cpu, size, align)};
  }

  void Free(Cpu& cpu, Ptr p) { heap_->Free(cpu, p.addr); }

  Ptr Offset(Cpu& cpu, Ptr p, int64_t delta) {
    cpu.Alu(1);
    return Add(p, delta);
  }

  // No check: the access goes straight to the address.
  ResolvedAccess Check(Cpu& cpu, Ptr p, uint32_t size, AccessType type) {
    (void)cpu;
    (void)size;
    (void)type;
    return ResolvedAccess{p.addr, false, false};
  }

 private:
  Heap* heap_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_NATIVE_NATIVE_POLICY_H_
