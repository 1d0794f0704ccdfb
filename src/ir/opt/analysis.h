// Reusable IR analyses shared by every check-optimization pass (src/ir/opt):
//
//   BuildIrDefs / ResolveIrPtrDef - SSA definition map, looking through the
//     kMaskPtr re-tagging that tagged-pointer schemes insert after geps.
//   StaticIrObjectSize / IsSafeIrAccess - the SizeOffsetVisitor-style
//     object-size analysis behind safe-access elision (paper SS4.4).
//   IsInFieldIrAccess - field-extent analysis: a constant offset from an
//     allocation base that stays inside the scheme's minimum object
//     footprint (granule/padding floor) needs no re-check even when the
//     allocation size is only known at run time.
//   FindCountedLoops - canonical `icmp slt` counted loops (affine IV), the
//     input to SCEV-style hoisting.
//   FindMonotonicNeLoops - `icmp ne` monotonic loops with a provable final
//     IV value; their trip count is not affine-closed under the kSLt SCEV
//     model, but pattern-based loop optimization can still hoist one range
//     check per array (ShadowBound's PatternOpt).
//   DominatorTree - iterative idom computation over reverse post-order,
//     the backbone of redundant-check elimination.
//
// All analyses are pure: they never mutate the function.

#ifndef SGXBOUNDS_SRC_IR_OPT_ANALYSIS_H_
#define SGXBOUNDS_SRC_IR_OPT_ANALYSIS_H_

#include <unordered_map>
#include <vector>

#include "src/ir/ir.h"

namespace sgxb {

using IrDefMap = std::unordered_map<ValueId, IrInstr>;

// Definition map: value id -> copy of the defining instruction.
IrDefMap BuildIrDefs(const IrFunction& fn);

// Resolves through kMaskPtr to the original pointer definition.
const IrInstr* ResolveIrPtrDef(const IrDefMap& defs, ValueId v);

// Statically known object size for a pointer-producing value, or 0.
uint32_t StaticIrObjectSize(const IrDefMap& defs, ValueId v);

// True if the load/store `access` is provably in bounds: its address is an
// allocation (or gep(object, const index)) with const offset+size within the
// object's statically known size.
bool IsSafeIrAccess(const IrDefMap& defs, const IrInstr& access);

// True if the load/store `access` touches a provably constant byte range
// [offset, offset+size) from an allocation base (the allocation size need
// not be static), with offset+size <= min_object_bytes. For schemes whose
// allocator rounds every object footprint up to min_object_bytes, such an
// access is exactly as in-bounds as the first access through the same base,
// so the per-field re-check is redundant.
bool IsInFieldIrAccess(const IrDefMap& defs, const IrInstr& access,
                       uint32_t min_object_bytes);

// A natural counted loop in canonical builder form.
struct LoopInfo {
  uint32_t preheader = 0;
  uint32_t header = 0;
  ValueId iv = 0;     // the induction phi
  ValueId start = 0;  // incoming from preheader
  ValueId bound = 0;  // loop-invariant bound (icmp slt iv, bound)
  int64_t step = 0;   // constant increment
  std::vector<uint32_t> body_blocks;
};

std::vector<LoopInfo> FindCountedLoops(const IrFunction& fn);

// Monotonic `icmp ne iv, bound` loops where the final IV value is provable:
// constant start and bound, bound > start, and (bound - start) divisible by
// the (positive, constant) step, so the IV hits `bound` exactly and the last
// executed iteration uses iv = bound - step. Loops failing any of those
// conditions are skipped (a non-divisible `ne` bound would wrap around).
std::vector<LoopInfo> FindMonotonicNeLoops(const IrFunction& fn);

// Immediate-dominator tree over a function's blocks (entry = block 0),
// computed with the Cooper-Harvey-Kennedy iterative algorithm over reverse
// post-order. Unreachable blocks dominate nothing and are dominated by
// nothing (except themselves).
class DominatorTree {
 public:
  explicit DominatorTree(const IrFunction& fn);

  static constexpr uint32_t kNone = 0xffffffffu;

  // Immediate dominator of `b`, kNone for the entry and unreachable blocks.
  uint32_t idom(uint32_t b) const { return idom_[b]; }
  bool reachable(uint32_t b) const { return rpo_index_[b] != kNone; }
  // True if every path from entry to `b` passes through `a` (reflexive).
  bool Dominates(uint32_t a, uint32_t b) const;
  // Blocks in reverse post-order; every block's idom precedes it here.
  const std::vector<uint32_t>& rpo() const { return rpo_; }

 private:
  std::vector<uint32_t> idom_;
  std::vector<uint32_t> rpo_;
  std::vector<uint32_t> rpo_index_;
};

// Successor block ids of a block's terminator (kBr/kCondBr; empty for kRet).
std::vector<uint32_t> IrBlockSuccessors(const IrBlock& block);

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_IR_OPT_ANALYSIS_H_
