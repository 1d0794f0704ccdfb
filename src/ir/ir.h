// A miniature SSA IR standing in for LLVM in this reproduction.
//
// The paper's artifact is an LLVM 3.8 pass (SS5.1): it rewrites allocations
// to tagged-pointer wrappers, inserts bounds checks before loads/stores,
// masks pointer arithmetic to the low 32 bits, and runs two optimizations -
// safe-access elision and scalar-evolution check hoisting (SS4.4). This IR
// is small enough to interpret over the simulated enclave but rich enough to
// express those transformations as real passes over real code:
//
//   * SSA values (uint64), basic blocks with phis, structured loops;
//   * integer arithmetic, comparisons, branches;
//   * memory: alloca (stack), malloc/free (heap), typed load/store, gep;
//   * instrumentation opcodes that passes insert (checks, masks, bndldx/stx).
//
// Programs are built with IrBuilder, optionally instrumented by
// RunCheckPipeline (opt/pipeline.h), and executed by the Interpreter in
// interp.h, which charges every instruction and memory access into the cycle
// simulator.

#ifndef SGXBOUNDS_SRC_IR_IR_H_
#define SGXBOUNDS_SRC_IR_IR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sgxb {

enum class IrType : uint8_t { kI8, kI16, kI32, kI64, kPtr };

uint32_t IrTypeSize(IrType type);
const char* IrTypeName(IrType type);

enum class IrOp : uint8_t {
  // Values.
  kConst,  // imm
  kArg,    // imm = argument index
  // Integer arithmetic/logic (args: a, b).
  kAdd,
  kSub,
  kMul,
  kUDiv,
  kURem,
  kAnd,
  kOr,
  kXor,
  kShl,
  kLShr,
  // Comparison (args: a, b; imm = IrCmp).
  kICmp,
  // Control flow.
  kPhi,     // args: one value per predecessor, aligned with Block::preds
  kBr,      // imm = target block
  kCondBr,  // args: cond; imm = true block, imm2 = false block
  kRet,     // args: optional value
  // Memory.
  kAlloca,  // imm = byte size; yields a pointer
  kMalloc,  // args: size; yields a pointer (rewritten by hardening passes)
  kFree,    // args: ptr
  kGep,     // args: base, index; imm = scale, imm2 = byte offset
  kLoad,    // args: ptr; type = loaded type
  kStore,   // args: value, ptr; type = stored type
  // Instrumentation (inserted by RunCheckPipeline; see opt/pipeline.h).
  kSgxCheck,       // args: ptr; imm = access size  (full LB+UB check)
  kSgxCheckUpper,  // args: ptr; imm = access size  (UB-only, LB hoisted)
  kSgxCheckRange,  // args: ptr, extent-in-bytes    (hoisted loop check)
  kMaskPtr,        // args: ptr-after-arith, ptr-before; reapplies the tag
  kAsanCheck,      // args: ptr; imm = access size
  kMpxCheck,       // args: ptr; imm = access size (bounds from side table)
  kMpxLdx,         // args: loaded-ptr, slot-ptr   (attach bounds to value)
  kMpxStx,         // args: stored-ptr, slot-ptr   (write bounds table entry)
  // Generic registry-scheme instrumentation: dispatched to the attached
  // IrSchemeRuntime (Interpreter::AttachScheme). Emitted by RunCheckPipeline
  // for schemes plugged in via src/policy/<scheme>/ (e.g. l4ptr); the four
  // paper schemes keep their dedicated opcodes above.
  kSchemeCheck,       // args: ptr; imm = access size, imm2 = is-write
  kSchemeCheckRange,  // args: ptr, extent-in-bytes  (hoisted loop check)
  // Misc.
  kCall,  // symbol = runtime function; args passed through (see interp)
};

const char* IrOpName(IrOp op);

enum class IrCmp : uint8_t { kEq, kNe, kULt, kULe, kUGt, kUGe, kSLt, kSLe, kSGt, kSGe };

// An SSA value id. Value 0 is reserved/invalid.
using ValueId = uint32_t;

struct IrInstr {
  ValueId id = 0;  // 0 for instructions that produce no value
  IrOp op;
  IrType type = IrType::kI64;
  std::vector<ValueId> args;
  int64_t imm = 0;
  int64_t imm2 = 0;
  std::string symbol{};
};

struct IrBlock {
  std::vector<uint32_t> preds;   // predecessor block ids (phi operand order)
  std::vector<IrInstr> instrs;   // phis first; last instr is the terminator
};

struct IrFunction {
  std::string name;
  uint32_t num_args = 0;
  uint32_t num_values = 1;  // next SSA id (0 reserved)
  std::vector<IrBlock> blocks;

  // Printable listing for debugging and golden tests.
  std::string ToString() const;

  // Structural validation: terminator presence, phi arity, operand
  // dominance is NOT checked (builder discipline), returns problem text or
  // empty string.
  std::string Verify() const;

  // Total instruction count (for instrumentation-blowup assertions).
  size_t InstrCount() const;
  size_t CountOp(IrOp op) const;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_IR_IR_H_
