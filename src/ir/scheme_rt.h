// Runtime hooks a registry-plugged scheme exposes to the IR pipeline.
//
// The four paper schemes have dedicated opcodes and runtime pointers in the
// interpreter (kSgxCheck/kAsanCheck/kMpxCheck); a plugged-in scheme instead
// lowers through the generic kSchemeCheck/kSchemeCheckRange opcodes and the
// "scheme" allocation symbol (TaggedSchemeCheckLowering, opt/pipeline.h),
// which the reference interpreter and the threaded engine both dispatch to
// this interface (Interpreter::AttachScheme). Implementations charge their
// own simulated costs and throw SimTrap on violations, exactly like the
// built-in runtimes.

#ifndef SGXBOUNDS_SRC_IR_SCHEME_RT_H_
#define SGXBOUNDS_SRC_IR_SCHEME_RT_H_

#include <cstdint>

#include "src/enclave/enclave.h"
#include "src/runtime/stack.h"
#include "src/sgxbounds/metadata.h"

namespace sgxb {

class IrSchemeRuntime {
 public:
  virtual ~IrSchemeRuntime() = default;

  // kAlloca with symbol "scheme": stack allocation, returns the scheme's
  // pointer representation (64-bit SSA value).
  virtual uint64_t IrAlloca(Cpu& cpu, StackAllocator& stack, uint32_t bytes) = 0;

  // kMalloc / kFree with symbol "scheme".
  virtual uint64_t IrMalloc(Cpu& cpu, uint32_t bytes) = 0;
  virtual void IrFree(Cpu& cpu, uint64_t ptr) = 0;

  // kSchemeCheck: access check before a load/store of `bytes` at `ptr`.
  virtual void IrCheck(Cpu& cpu, uint64_t ptr, uint32_t bytes, AccessType type) = 0;

  // kSchemeCheckRange: hoisted loop check over [ptr, ptr + extent).
  virtual void IrCheckRange(Cpu& cpu, uint64_t ptr, uint64_t extent) = 0;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_IR_SCHEME_RT_H_
