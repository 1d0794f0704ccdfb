// IR interpreter executing over the simulated enclave.
//
// Every instruction charges its cost on the Cpu; loads/stores move real bytes
// through Enclave::Load/Store (cache + EPC + MEE charged); instrumentation
// opcodes call into the attached hardening runtimes. Violations surface as
// SimTrap, exactly like the policy layer.
//
// Pointer values follow the instrumentation mode: an uninstrumented program
// holds raw 32-bit addresses in 64-bit SSA values; an SGXBounds-instrumented
// program holds tagged pointers (the pass rewrites allocations, masks
// arithmetic, and inserts checks).
//
// Two execution engines produce bit-identical simulated results:
//
//   * reference - the original per-instruction switch over IrInstr vectors
//     (RunReference); kept as the differential-testing oracle;
//   * threaded  - functions are pre-decoded once into a flat micro-op stream
//     (src/ir/exec/) and executed with direct-threaded dispatch; decoded
//     programs are cached per (function, instrumentation) pair.
//
// Run() routes according to set_engine(); the default follows the process
// default (--ir_engine flag; threaded unless overridden).

#ifndef SGXBOUNDS_SRC_IR_INTERP_H_
#define SGXBOUNDS_SRC_IR_INTERP_H_

#include <vector>

#include "src/asan/asan_runtime.h"
#include "src/common/ir_engine.h"
#include "src/ir/exec/decode_cache.h"
#include "src/ir/ir.h"
#include "src/ir/scheme_rt.h"
#include "src/mpx/mpx_runtime.h"
#include "src/runtime/stack.h"
#include "src/sgxbounds/bounds_runtime.h"

namespace sgxb {

struct InterpStats {
  uint64_t steps = 0;
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t checks = 0;
};

class Interpreter {
 public:
  Interpreter(Enclave* enclave, Heap* heap, StackAllocator* stack);

  // Attach hardening runtimes (required iff the program contains the
  // corresponding instrumentation opcodes).
  void AttachSgx(SgxBoundsRuntime* rt) { sgx_ = rt; }
  void AttachAsan(AsanRuntime* rt) { asan_ = rt; }
  void AttachMpx(MpxRuntime* rt) { mpx_ = rt; }
  // Generic hook for registry-plugged schemes (kSchemeCheck/"scheme" opcodes
  // emitted by RunCheckPipeline under TaggedSchemeCheckLowering).
  void AttachScheme(IrSchemeRuntime* rt) { scheme_ = rt; }

  // Selects the execution engine for subsequent Run() calls. kDefault
  // resolves to the process default (see src/common/ir_engine.h).
  void set_engine(IrEngine engine) { engine_ = engine; }
  IrEngine engine() const { return engine_; }

  // Executes `fn`; returns the kRet value (0 if none). Throws SimTrap on
  // memory-safety violations and on exceeding `max_steps` (runaway loop).
  uint64_t Run(const IrFunction& fn, Cpu& cpu, const std::vector<uint64_t>& args = {},
               uint64_t max_steps = 200 * 1000 * 1000);

  // The oracle: always interprets IrInstr vectors directly, regardless of
  // the selected engine.
  uint64_t RunReference(const IrFunction& fn, Cpu& cpu,
                        const std::vector<uint64_t>& args = {},
                        uint64_t max_steps = 200 * 1000 * 1000);

  const InterpStats& stats() const { return stats_; }
  const DecodeCache& decode_cache() const { return cache_; }

 private:
  // Direct-threaded execution of a decoded program (src/ir/exec/engine.cc).
  uint64_t RunDecoded(const DecodedFunction& df, Cpu& cpu,
                      const std::vector<uint64_t>& args, uint64_t max_steps);

  Enclave* enclave_;
  Heap* heap_;
  StackAllocator* stack_;
  SgxBoundsRuntime* sgx_ = nullptr;
  AsanRuntime* asan_ = nullptr;
  MpxRuntime* mpx_ = nullptr;
  IrSchemeRuntime* scheme_ = nullptr;
  InterpStats stats_;
  IrEngine engine_ = IrEngine::kDefault;
  DecodeCache cache_;

  // Scratch buffers reused across Run() calls (sized to fn.num_values each
  // call; capacity persists so steady-state runs allocate nothing). The MPX
  // side table is a flat array indexed by SSA id — the "register" association
  // a compiler tracks for pointer temps — with a validity byte instead of a
  // hash lookup. Only populated when an MPX runtime is attached.
  std::vector<uint64_t> values_;
  std::vector<MpxBounds> mpx_bounds_;
  std::vector<uint8_t> mpx_valid_;
  std::vector<std::pair<ValueId, uint64_t>> phi_scratch_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_IR_INTERP_H_
