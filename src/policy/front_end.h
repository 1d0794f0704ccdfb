// The one access front-end every scheme shares (paper SS3.5: a scheme is its
// pointer encoding plus its check).
//
// Workload kernels are templates over a policy P and call P's access API.
// PolicyFrontEnd<S, Ptr> defines that API once; a scheme S derives from it
// (CRTP, so every call resolves at compile time and inlines into the kernel)
// and supplies only its primitives:
//
//   static constexpr PolicyKind kKind;
//   static const SchemeDescriptor& Descriptor();    // scheme.cc
//   static uint32_t Addr(Ptr);                      // raw enclave address
//   static Ptr Add(Ptr, int64_t);                   // encoding add, uncharged
//   static uint64_t ToSlot(Ptr);                    // 8-byte in-memory image
//   static Ptr FromSlot(uint64_t);                  //   (MPX: not needed)
//   Ptr  Malloc(Cpu&, uint32_t size);
//   Ptr  AlignedAlloc(Cpu&, uint32_t size, uint32_t align);
//   void Free(Cpu&, Ptr);
//   Ptr  Offset(Cpu&, Ptr, int64_t delta);          // charged pointer add
//   ResolvedAccess Check(Cpu&, Ptr, uint32_t size, AccessType);
//
// and, where the scheme has them:
//
//   static constexpr bool kElidesAndHoists = true;  // SS4.4 pair applies
//   void CheckRange(Cpu&, Ptr, uint64_t extent);    //   (hoisted check)
//   static CheckSchemeLowering IrLowering();        // IR pass description
//   void AttachIr(Interpreter&);                    //   + runtime hookup
//   void AttachFaults(FaultInjector*);              // metadata corruptor
//   void CollectRunMetrics(RunResult&);             // run.h, optional
//
// A scheme may also shadow a front-end default by declaring the same member:
// Calloc (runtimes with their own zeroing allocator) and LoadPtr/StorePtr
// (MPX, which pays bndldx/bndstx on pointer slots). Primitives are public so
// the front-end's compile-time checks for the optional ones can see them.
//
// Charge placement is part of the contract, pinned per scheme by the
// conformance battery's digests and trace stream hashes:
//   * LoadAt/StoreAt charge Alu(1), then a checked access at Add(p, off);
//   * field and span accesses of a kElidesAndHoists scheme charge Alu(1) and
//     access Addr(p)+off raw when the check is elided or hoisted, and
//     otherwise do a checked access at Add(p, off) with no extra ALU;
//   * every other scheme charges Alu(1), then a checked access, whatever
//     PolicyOptions ask (its check is empty for native).

#ifndef SGXBOUNDS_SRC_POLICY_FRONT_END_H_
#define SGXBOUNDS_SRC_POLICY_FRONT_END_H_

#include <cstring>

#include "src/fault/fault.h"
#include "src/ir/interp.h"
#include "src/ir/opt/pipeline.h"
#include "src/policy/policy.h"
#include "src/policy/registry.h"

namespace sgxb {

// PolicyOptions -> pass-pipeline toggles (shared by every scheme's lowering).
inline CheckPassConfig CheckConfigFrom(const PolicyOptions& options) {
  CheckPassConfig config;
  config.elide_safe = options.opt_safe_elision;
  config.hoist_loops = options.opt_hoist_checks;
  config.elide_redundant = options.opt_redundant_elision;
  config.pattern_loops = options.opt_pattern_loops;
  config.elide_infield = options.opt_infield_elision;
  return config;
}

// A plain 32-bit address: the pointer of schemes that keep no bounds in it
// (native, ASan).
struct RawPtr {
  uint32_t addr = 0;
};

template <typename S, typename PtrT>
class PolicyFrontEnd {
 public:
  using Ptr = PtrT;

  // Schemes whose bounds make SS4.4's safe-access elision and loop hoisting
  // legal shadow this with true; the others check every access.
  static constexpr bool kElidesAndHoists = false;

  uint32_t AddrOf(Ptr p) const { return S::Addr(p); }

  // --- Checked access ---------------------------------------------------------

  template <typename T>
  T Load(Cpu& cpu, Ptr p) {
    const ResolvedAccess r = self().Check(cpu, p, sizeof(T), AccessType::kRead);
    if (r.zero_fill) {
      return T{};
    }
    return enclave_->Load<T>(cpu, r.addr);
  }

  template <typename T>
  void Store(Cpu& cpu, Ptr p, T value) {
    const ResolvedAccess r = self().Check(cpu, p, sizeof(T), AccessType::kWrite);
    enclave_->Store<T>(cpu, r.addr, value);
  }

  // Dynamic offset (the common a[i] case): the add folds into addressing.
  template <typename T>
  T LoadAt(Cpu& cpu, Ptr p, uint64_t off) {
    cpu.Alu(1);
    return Load<T>(cpu, S::Add(p, static_cast<int64_t>(off)));
  }

  template <typename T>
  void StoreAt(Cpu& cpu, Ptr p, uint64_t off, T value) {
    cpu.Alu(1);
    Store<T>(cpu, S::Add(p, static_cast<int64_t>(off)), value);
  }

  // Provably-safe field access (SS4.4 "safe memory accesses"): with elision
  // on, the compiler proved the offset in-bounds and emits a raw access.
  template <typename T>
  T LoadField(Cpu& cpu, Ptr p, uint32_t off) {
    return LoadOff<T>(cpu, p, off, options_.opt_safe_elision);
  }

  template <typename T>
  void StoreField(Cpu& cpu, Ptr p, uint32_t off, T value) {
    StoreOff(cpu, p, off, options_.opt_safe_elision, value);
  }

  // --- Pointer in memory ------------------------------------------------------
  //
  // An 8-byte slot access: tagged encodings carry their bounds in the slot
  // image (SS4.1), plain ones store the address.

  Ptr LoadPtr(Cpu& cpu, Ptr slot) { return S::FromSlot(Load<uint64_t>(cpu, slot)); }

  void StorePtr(Cpu& cpu, Ptr slot, Ptr value) {
    Store<uint64_t>(cpu, slot, S::ToSlot(value));
  }

  // --- Loop spans (SS4.4 "hoisting checks out of loops") --------------------
  //
  // With hoisting on, one range check covers the whole extent and the body
  // runs unchecked; otherwise every access pays the full check.

  class Span {
   public:
    template <typename T>
    T Load(Cpu& cpu, uint64_t byte_off) {
      return policy_->template LoadOff<T>(cpu, base_, byte_off, hoisted_);
    }

    template <typename T>
    void Store(Cpu& cpu, uint64_t byte_off, T value) {
      policy_->StoreOff(cpu, base_, byte_off, hoisted_, value);
    }

   private:
    friend class PolicyFrontEnd;
    Span(PolicyFrontEnd* policy, Ptr base, bool hoisted)
        : policy_(policy), base_(base), hoisted_(hoisted) {}

    PolicyFrontEnd* policy_;
    Ptr base_;
    bool hoisted_;
  };

  Span OpenSpan(Cpu& cpu, Ptr base, uint64_t extent_bytes) {
    if constexpr (S::kElidesAndHoists) {
      if (options_.opt_hoist_checks) {
        self().CheckRange(cpu, base, extent_bytes);
        return Span(this, base, /*hoisted=*/true);
      }
    } else {
      (void)cpu;
      (void)extent_bytes;
    }
    return Span(this, base, /*hoisted=*/false);
  }

  // --- libc wrappers ----------------------------------------------------------

  // Instrumented-libc semantics: check both ranges once, then bulk move.
  void Memcpy(Cpu& cpu, Ptr dst, Ptr src, uint32_t n) {
    if (n == 0) {
      return;
    }
    const ResolvedAccess rs = self().Check(cpu, src, n, AccessType::kRead);
    const ResolvedAccess rd = self().Check(cpu, dst, n, AccessType::kWrite);
    cpu.MemAccess(rs.addr, n, AccessClass::kAppLoad);
    cpu.MemAccess(rd.addr, n, AccessClass::kAppStore);
    std::memmove(enclave_->space().HostPtr(rd.addr), enclave_->space().HostPtr(rs.addr), n);
  }

  void Memset(Cpu& cpu, Ptr dst, uint8_t value, uint32_t n) {
    if (n == 0) {
      return;
    }
    const ResolvedAccess rd = self().Check(cpu, dst, n, AccessType::kWrite);
    cpu.MemAccess(rd.addr, n, AccessClass::kAppStore);
    std::memset(enclave_->space().HostPtr(rd.addr), value, n);
  }

  // Default zeroing allocator: malloc, then one bulk store of zeros.
  Ptr Calloc(Cpu& cpu, uint32_t count, uint32_t elem) {
    const uint64_t total = static_cast<uint64_t>(count) * elem;
    const Ptr p = self().Malloc(cpu, static_cast<uint32_t>(total));
    std::memset(enclave_->space().HostPtr(S::Addr(p)), 0, total);
    cpu.MemAccess(S::Addr(p), static_cast<uint32_t>(total), AccessClass::kAppStore);
    return p;
  }

  // --- Harness hooks ----------------------------------------------------------

  // Fault campaigns: without in-memory metadata there is nothing to corrupt,
  // so kMetadataFlip events are counted as skipped.
  void AttachFaults(FaultInjector* faults) { (void)faults; }

  // The IR analog of the paper's LLVM pass: instruments `fn` for this scheme
  // under this policy's options and attaches the scheme's runtime to
  // `interp`. A scheme without IrLowering() (native) leaves `fn` bare.
  CheckPassStats LowerIr(Interpreter& interp, IrFunction& fn) {
    if constexpr (requires { S::IrLowering(); }) {
      const CheckPassStats stats =
          RunCheckPipeline(fn, S::IrLowering(), CheckConfigFrom(options_));
      self().AttachIr(interp);
      return stats;
    } else {
      (void)interp;
      (void)fn;
      return {};
    }
  }

  Enclave* enclave() { return enclave_; }

 protected:
  PolicyFrontEnd(Enclave* enclave, const PolicyOptions& options)
      : enclave_(enclave), options_(options) {}

  Enclave* enclave_;
  PolicyOptions options_;

 private:
  S& self() { return static_cast<S&>(*this); }

  // The shared body of field and span accesses; `unchecked` is the
  // elision/hoisting verdict, which only a kElidesAndHoists scheme acts on.
  template <typename T>
  T LoadOff(Cpu& cpu, Ptr p, uint64_t off, bool unchecked) {
    if constexpr (S::kElidesAndHoists) {
      if (unchecked) {
        cpu.Alu(1);
        return enclave_->Load<T>(cpu, S::Addr(p) + static_cast<uint32_t>(off));
      }
    } else {
      (void)unchecked;
      cpu.Alu(1);
    }
    return Load<T>(cpu, S::Add(p, static_cast<int64_t>(off)));
  }

  template <typename T>
  void StoreOff(Cpu& cpu, Ptr p, uint64_t off, bool unchecked, T value) {
    if constexpr (S::kElidesAndHoists) {
      if (unchecked) {
        cpu.Alu(1);
        enclave_->Store<T>(cpu, S::Addr(p) + static_cast<uint32_t>(off), value);
        return;
      }
    } else {
      (void)unchecked;
      cpu.Alu(1);
    }
    Store<T>(cpu, S::Add(p, static_cast<int64_t>(off)), value);
  }
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_FRONT_END_H_
