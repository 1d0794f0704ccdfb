// The scheme-generic check-optimization pipeline (paper SS4.4 + SS5.1,
// extended with ShadowBound-style whole-program optimizations).
//
// Every registry scheme's IR lowering (PolicyFrontEnd::LowerIr) runs
// RunCheckPipeline with two inputs:
//
//   CheckSchemeLowering - WHAT the scheme's instrumentation looks like
//     (check opcodes, allocation symbol, gep masking, MPX's pointer-bounds
//     table traffic) and WHICH passes are legal for its bounds encoding
//     (the supports_* mask plus the in-field footprint floor).
//   CheckPassConfig - WHICH passes this run asked for (from PolicyOptions).
//
// A pass runs only when both the run asked for it and the scheme supports
// it, so a scheme that ignores an optimization today keeps bit-identical
// instrumentation no matter what the run requests. Pass order per access:
//
//   1. safe-access elision     (static object size proves in-bounds)
//   2. in-field elision        (const offset within the footprint floor)
//   3. SCEV loop hoisting      (affine IV, stride <= max_hoist_stride)
//   4. pattern loop hoisting   (over-stride kSLt / monotonic kNe loops)
//   5. insert the check
//   6. redundant-check elimination (post-pass: a check dominated by an
//      equal-or-wider check on the same SSA pointer is deleted)
//
// With every optional pass disabled, the SGXBounds/ASan/MPX output is pinned
// byte for byte, including value-numbering order, by trace_golden_test and
// the fig07/fig10 stdout goldens in CI.

#ifndef SGXBOUNDS_SRC_IR_OPT_PIPELINE_H_
#define SGXBOUNDS_SRC_IR_OPT_PIPELINE_H_

#include "src/ir/opt/analysis.h"

namespace sgxb {

// Per-run pass toggles (mirrors the opt_* fields of PolicyOptions).
struct CheckPassConfig {
  bool elide_safe = true;
  bool hoist_loops = true;
  bool elide_redundant = false;
  bool pattern_loops = false;
  bool elide_infield = false;
  // SS4.4: hoisting applies only to loops with increments up to 1024 bytes.
  // Pattern loop hoisting is exempt (that is its point).
  uint32_t max_hoist_stride = 1024;
};

// Per-scheme lowering description + pass legality mask.
struct CheckSchemeLowering {
  IrOp check_op = IrOp::kSchemeCheck;
  IrOp range_check_op = IrOp::kSchemeCheckRange;
  bool has_range_check = true;
  // Symbol stamped on kMalloc/kAlloca/kFree so the interpreter routes the
  // allocation to this scheme's runtime; nullptr leaves allocations alone
  // (MPX instruments accesses only).
  const char* alloc_symbol = nullptr;
  // Tagged-pointer schemes re-tag after every gep (kMaskPtr).
  bool mask_geps = false;
  // Whether check.imm2 carries the is-store bit.
  bool set_store_imm2 = false;
  // MPX: bndldx after pointer loads, bndstx after pointer stores.
  bool instrument_ptr_mem = false;
  // Pass legality. A scheme only honors a pass when its encoding makes the
  // transform detection-neutral; see DESIGN.md "the optimization pipeline".
  bool supports_elide_safe = false;
  bool supports_hoist = false;
  bool supports_elide_redundant = false;
  bool supports_pattern = false;
  // In-field elision floor: the scheme's minimum object footprint in bytes
  // (allocator granule/padding). 0 = exact bounds, in-field elision illegal.
  uint32_t min_object_bytes = 0;
};

// Canned lowerings for the built-in schemes.
CheckSchemeLowering SgxBoundsCheckLowering();
CheckSchemeLowering TaggedSchemeCheckLowering(uint32_t min_object_bytes);
CheckSchemeLowering AsanCheckLowering();
CheckSchemeLowering MpxCheckLowering();

struct CheckPassStats {
  uint32_t checks_inserted = 0;
  uint32_t checks_elided_safe = 0;
  uint32_t checks_elided_redundant = 0;
  uint32_t checks_elided_infield = 0;
  uint32_t checks_hoisted = 0;
  uint32_t checks_pattern_hoisted = 0;
  uint32_t geps_masked = 0;
  uint32_t ptr_loads_instrumented = 0;   // MPX bndldx
  uint32_t ptr_stores_instrumented = 0;  // MPX bndstx

  void Accumulate(const CheckPassStats& o) {
    checks_inserted += o.checks_inserted;
    checks_elided_safe += o.checks_elided_safe;
    checks_elided_redundant += o.checks_elided_redundant;
    checks_elided_infield += o.checks_elided_infield;
    checks_hoisted += o.checks_hoisted;
    checks_pattern_hoisted += o.checks_pattern_hoisted;
    geps_masked += o.geps_masked;
    ptr_loads_instrumented += o.ptr_loads_instrumented;
    ptr_stores_instrumented += o.ptr_stores_instrumented;
  }
  bool Any() const {
    return checks_inserted != 0 || checks_elided_safe != 0 ||
           checks_elided_redundant != 0 || checks_elided_infield != 0 ||
           checks_hoisted != 0 || checks_pattern_hoisted != 0 ||
           geps_masked != 0 || ptr_loads_instrumented != 0 ||
           ptr_stores_instrumented != 0;
  }
};

// Instruments `fn` for `scheme`, running the passes enabled by both `config`
// and the scheme's legality mask.
CheckPassStats RunCheckPipeline(IrFunction& fn, const CheckSchemeLowering& scheme,
                                const CheckPassConfig& config);

// Redundant-check elimination: deletes every `check_op` instruction that is
// dominated by a check of the same opcode on the same SSA pointer with an
// equal-or-wider access size. Returns the number of checks deleted.
// Exposed for directed tests; RunCheckPipeline calls it as a post-pass.
uint32_t EliminateRedundantChecks(IrFunction& fn, IrOp check_op);

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_IR_OPT_PIPELINE_H_
