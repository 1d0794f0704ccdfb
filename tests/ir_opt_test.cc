// Directed tests for the scheme-generic check-optimization pipeline
// (src/ir/opt): dominator tree, redundant-check elimination across blocks,
// pattern-loop recognition on non-affine trip counts, in-field elision
// against actually-out-of-bounds fields, and engine invariance of optimized
// functions (reference/threaded bit-identical).

#include <gtest/gtest.h>

#include <memory>

#include "src/enclave/trap.h"
#include "src/ir/builder.h"
#include "src/ir/interp.h"
#include "src/ir/opt/analysis.h"
#include "src/ir/opt/pipeline.h"
#include "src/policy/shadow/shadow_runtime.h"

namespace sgxb {
namespace {

// --- dominator tree ---------------------------------------------------------

// entry -> {left, right} -> join, plus an unreachable block 4.
IrFunction BuildDiamond() {
  IrFunction fn;
  fn.name = "diamond";
  fn.num_values = 2;
  IrBlock entry;
  entry.instrs.push_back({1, IrOp::kConst, IrType::kI64, {}, 1});
  entry.instrs.push_back({0, IrOp::kCondBr, IrType::kI64, {1}, 1, 2});
  IrBlock left;
  left.preds = {0};
  left.instrs.push_back({0, IrOp::kBr, IrType::kI64, {}, 3});
  IrBlock right;
  right.preds = {0};
  right.instrs.push_back({0, IrOp::kBr, IrType::kI64, {}, 3});
  IrBlock join;
  join.preds = {1, 2};
  join.instrs.push_back({0, IrOp::kRet, IrType::kI64, {1}});
  IrBlock dead;
  dead.instrs.push_back({0, IrOp::kRet, IrType::kI64, {1}});
  fn.blocks = {entry, left, right, join, dead};
  return fn;
}

TEST(DominatorTree, DiamondIdomsAndUnreachable) {
  const IrFunction fn = BuildDiamond();
  const DominatorTree dom(fn);
  EXPECT_EQ(dom.idom(0), DominatorTree::kNone);
  EXPECT_EQ(dom.idom(1), 0u);
  EXPECT_EQ(dom.idom(2), 0u);
  EXPECT_EQ(dom.idom(3), 0u);  // join's idom is the branch, not a side
  EXPECT_TRUE(dom.Dominates(0, 3));
  EXPECT_TRUE(dom.Dominates(3, 3));  // reflexive
  EXPECT_FALSE(dom.Dominates(1, 3));
  EXPECT_FALSE(dom.Dominates(2, 1));
  EXPECT_FALSE(dom.reachable(4));
  EXPECT_FALSE(dom.Dominates(0, 4));
}

// --- redundant-check elimination --------------------------------------------

IrInstr Check(ValueId ptr, int64_t size) {
  IrInstr instr;
  instr.id = 0;
  instr.op = IrOp::kSchemeCheck;
  instr.args = {ptr};
  instr.imm = size;
  return instr;
}

uint32_t CountChecks(const IrFunction& fn) {
  uint32_t n = 0;
  for (const IrBlock& block : fn.blocks) {
    for (const IrInstr& instr : block.instrs) {
      n += instr.op == IrOp::kSchemeCheck ? 1 : 0;
    }
  }
  return n;
}

// entry: check(p,8); condbr -> b1, b2
// b1:    check(p,8)  dominated, equal     -> deleted
//        check(p,4)  dominated, narrower  -> deleted
//        check(p,16) wider                -> kept
//        check(q,8)  different pointer    -> kept
// b2:    (no checks)
// b3:    check(p,8)  dominated by entry's -> deleted (through the join:
//        neither b1 nor b2 dominates b3, but entry does)
TEST(RedundantChecks, DominatedEqualOrNarrowerDeletedAcrossBlocks) {
  IrFunction fn;
  fn.name = "rce";
  fn.num_values = 4;
  IrBlock entry;
  entry.instrs.push_back({1, IrOp::kConst, IrType::kI64, {}, 100});  // p
  entry.instrs.push_back({2, IrOp::kConst, IrType::kI64, {}, 200});  // q
  entry.instrs.push_back({3, IrOp::kConst, IrType::kI64, {}, 1});
  entry.instrs.push_back(Check(1, 8));
  entry.instrs.push_back({0, IrOp::kCondBr, IrType::kI64, {3}, 1, 2});
  IrBlock b1;
  b1.preds = {0};
  b1.instrs.push_back(Check(1, 8));
  b1.instrs.push_back(Check(1, 4));
  b1.instrs.push_back(Check(1, 16));
  b1.instrs.push_back(Check(2, 8));
  b1.instrs.push_back({0, IrOp::kBr, IrType::kI64, {}, 3});
  IrBlock b2;
  b2.preds = {0};
  b2.instrs.push_back({0, IrOp::kBr, IrType::kI64, {}, 3});
  IrBlock b3;
  b3.preds = {1, 2};
  b3.instrs.push_back(Check(1, 8));
  b3.instrs.push_back({0, IrOp::kRet, IrType::kI64, {3}});
  fn.blocks = {entry, b1, b2, b3};

  EXPECT_EQ(CountChecks(fn), 6u);
  EXPECT_EQ(EliminateRedundantChecks(fn, IrOp::kSchemeCheck), 3u);
  EXPECT_EQ(CountChecks(fn), 3u);
}

// Sibling branches do not dominate each other: a check in b1 must not
// license deleting the same check in b2 or in the join.
TEST(RedundantChecks, NonDominatingCheckDoesNotLicenseDeletion) {
  IrFunction fn;
  fn.name = "rce_neg";
  fn.num_values = 3;
  IrBlock entry;
  entry.instrs.push_back({1, IrOp::kConst, IrType::kI64, {}, 100});
  entry.instrs.push_back({2, IrOp::kConst, IrType::kI64, {}, 1});
  entry.instrs.push_back({0, IrOp::kCondBr, IrType::kI64, {2}, 1, 2});
  IrBlock b1;
  b1.preds = {0};
  b1.instrs.push_back(Check(1, 8));
  b1.instrs.push_back({0, IrOp::kBr, IrType::kI64, {}, 3});
  IrBlock b2;
  b2.preds = {0};
  b2.instrs.push_back(Check(1, 8));
  b2.instrs.push_back({0, IrOp::kBr, IrType::kI64, {}, 3});
  IrBlock b3;
  b3.preds = {1, 2};
  b3.instrs.push_back(Check(1, 8));
  b3.instrs.push_back({0, IrOp::kRet, IrType::kI64, {2}});
  fn.blocks = {entry, b1, b2, b3};

  EXPECT_EQ(EliminateRedundantChecks(fn, IrOp::kSchemeCheck), 0u);
  EXPECT_EQ(CountChecks(fn), 3u);
}

// --- pattern-loop recognition -----------------------------------------------

// Rewrites the last `icmp slt` into `icmp ne` - the exit-test shape a front
// end commonly emits for `for (i = start; i != bound; i += step)`. The trip
// count is unchanged when step divides (bound - start).
void FlipLastCmpToNe(IrFunction& fn) {
  IrInstr* last = nullptr;
  for (IrBlock& block : fn.blocks) {
    for (IrInstr& instr : block.instrs) {
      if (instr.op == IrOp::kICmp &&
          instr.imm == static_cast<int64_t>(IrCmp::kSLt)) {
        last = &instr;
      }
    }
  }
  ASSERT_NE(last, nullptr);
  last->imm = static_cast<int64_t>(IrCmp::kNe);
}

IrFunction BuildLoopKernel(uint32_t n, int64_t step) {
  IrBuilder b("loop");
  const ValueId a = b.Malloc(b.Const(static_cast<int64_t>(n) * 8));
  auto loop = b.BeginCountedLoop(b.Const(0), b.Const(n), step);
  b.Store(IrType::kI64, loop.iv, b.Gep(a, loop.iv, 8));
  b.EndLoop(loop);
  b.Ret();
  return b.Finish();
}

TEST(PatternLoops, NeLoopRecognizedOnlyWhenFinalIvProvable) {
  IrFunction slt = BuildLoopKernel(64, 1);
  EXPECT_EQ(FindCountedLoops(slt).size(), 1u);
  EXPECT_EQ(FindMonotonicNeLoops(slt).size(), 0u);

  FlipLastCmpToNe(slt);
  EXPECT_EQ(FindCountedLoops(slt).size(), 0u);
  ASSERT_EQ(FindMonotonicNeLoops(slt).size(), 1u);
  EXPECT_EQ(FindMonotonicNeLoops(slt)[0].step, 1);

  // (bound - start) not divisible by step: the IV would step over the bound
  // and wrap, so the loop must be rejected.
  IrFunction wrap = BuildLoopKernel(64, 3);
  FlipLastCmpToNe(wrap);
  EXPECT_EQ(FindMonotonicNeLoops(wrap).size(), 0u);
}

TEST(PatternLoops, OverStrideLoopPatternHoistedNotScevHoisted) {
  CheckPassConfig hoist_only;
  hoist_only.elide_safe = false;
  hoist_only.hoist_loops = true;
  hoist_only.pattern_loops = false;
  // 256 elements * 8-byte scale = 2048-byte stride: beyond the SS4.4 window,
  // so SCEV hoisting must refuse and the per-iteration check stays.
  IrFunction fn = BuildLoopKernel(65536, 256);
  CheckPassStats stats = RunCheckPipeline(fn, SgxBoundsCheckLowering(), hoist_only);
  EXPECT_EQ(stats.checks_hoisted, 0u);
  EXPECT_EQ(stats.checks_pattern_hoisted, 0u);
  EXPECT_EQ(stats.checks_inserted, 1u);

  // Pattern-based loop optimization has no stride window: the extent comes
  // from the provable final IV value, not an affine closure.
  CheckPassConfig pattern = hoist_only;
  pattern.pattern_loops = true;
  IrFunction fn2 = BuildLoopKernel(65536, 256);
  stats = RunCheckPipeline(fn2, SgxBoundsCheckLowering(), pattern);
  EXPECT_EQ(stats.checks_hoisted, 0u);
  EXPECT_EQ(stats.checks_pattern_hoisted, 1u);
  EXPECT_EQ(stats.checks_inserted, 0u);

  // The `i != n` flavor: invisible to SCEV hoisting (non-affine exit test),
  // caught by the pattern pass via FindMonotonicNeLoops.
  IrFunction fn3 = BuildLoopKernel(4096, 1);
  FlipLastCmpToNe(fn3);
  stats = RunCheckPipeline(fn3, SgxBoundsCheckLowering(), pattern);
  EXPECT_EQ(stats.checks_hoisted, 0u);
  EXPECT_EQ(stats.checks_pattern_hoisted, 1u);
  EXPECT_EQ(stats.checks_inserted, 0u);
}

// --- in-field elision + runtime agreement -----------------------------------

// Field accesses at constant offsets on a RUNTIME-sized record (the size is
// loaded from memory, so static object-size analysis is blind). Writes 3 and
// 4 into two i32 fields at offsets 0/4 and returns their sum; `oob_field`
// adds an i64 store at offset 8 - past an 8-byte record's footprint.
IrFunction BuildFieldsKernel(int64_t record_size, bool oob_field) {
  IrBuilder b("fields");
  const ValueId cell = b.Malloc(b.Const(8));
  b.Store(IrType::kI64, b.Const(record_size), cell);
  const ValueId sz = b.Load(IrType::kI64, cell);
  const ValueId rec = b.Malloc(sz);
  b.Store(IrType::kI32, b.Const(3), b.Gep(rec, b.Const(0), 1, /*offset=*/0));
  b.Store(IrType::kI32, b.Const(4), b.Gep(rec, b.Const(0), 1, /*offset=*/4));
  const ValueId lo = b.Load(IrType::kI32, b.Gep(rec, b.Const(0), 1, /*offset=*/0));
  const ValueId hi = b.Load(IrType::kI32, b.Gep(rec, b.Const(0), 1, /*offset=*/4));
  if (oob_field) {
    b.Store(IrType::kI64, b.Add(lo, hi), b.Gep(rec, b.Const(0), 1, /*offset=*/8));
  }
  b.Ret(b.Add(lo, hi));
  return b.Finish();
}

CheckPassConfig InFieldOnly() {
  CheckPassConfig config;
  config.elide_safe = false;
  config.hoist_loops = false;
  config.elide_infield = true;
  return config;
}

struct ShadowRig {
  ShadowRig() {
    EnclaveConfig cfg;
    cfg.space_bytes = 64 * kMiB;
    enclave = std::make_unique<Enclave>(cfg);
    heap = std::make_unique<Heap>(enclave.get(), 16 * kMiB);
    stack = std::make_unique<StackAllocator>(enclave.get(), 1 * kMiB);
    rt = std::make_unique<ShadowRuntime>(enclave.get(), heap.get());
    interp = std::make_unique<Interpreter>(enclave.get(), heap.get(), stack.get());
    interp->AttachScheme(rt.get());
  }
  std::unique_ptr<Enclave> enclave;
  std::unique_ptr<Heap> heap;
  std::unique_ptr<StackAllocator> stack;
  std::unique_ptr<ShadowRuntime> rt;
  std::unique_ptr<Interpreter> interp;
};

TEST(InFieldElision, SubFloorFieldsElidedAndStillSafe) {
  IrFunction fn = BuildFieldsKernel(/*record_size=*/8, /*oob_field=*/false);
  const CheckPassStats stats =
      RunCheckPipeline(fn, TaggedSchemeCheckLowering(kShadowGranule), InFieldOnly());
  // Six accesses (cell store/load at offset 0 size 8; two i32 field stores
  // and two i32 field loads at offsets 0/4) all fit the 8-byte floor.
  EXPECT_EQ(stats.checks_elided_infield, 6u);
  EXPECT_EQ(stats.checks_inserted, 0u);
  ASSERT_EQ(fn.Verify(), "");

  ShadowRig rig;
  EXPECT_EQ(rig.interp->Run(fn, rig.enclave->main_cpu()), 7u);
}

TEST(InFieldElision, FieldBeyondFloorStaysCheckedAndTraps) {
  // offset 8 + size 8 = 16 > the 8-byte floor: the pass must keep that one
  // check, and on an 8-byte record the runtime must trap on it.
  IrFunction fn = BuildFieldsKernel(/*record_size=*/8, /*oob_field=*/true);
  const CheckPassStats stats =
      RunCheckPipeline(fn, TaggedSchemeCheckLowering(kShadowGranule), InFieldOnly());
  EXPECT_EQ(stats.checks_elided_infield, 6u);
  EXPECT_EQ(stats.checks_inserted, 1u);

  ShadowRig rig;
  EXPECT_THROW(rig.interp->Run(fn, rig.enclave->main_cpu()), SimTrap);

  // The same field on a 16-byte record is in bounds: the kept check passes.
  IrFunction ok = BuildFieldsKernel(/*record_size=*/16, /*oob_field=*/true);
  RunCheckPipeline(ok, TaggedSchemeCheckLowering(kShadowGranule), InFieldOnly());
  ShadowRig rig2;
  EXPECT_EQ(rig2.interp->Run(ok, rig2.enclave->main_cpu()), 7u);
}

// A scheme with exact bounds (no footprint floor) must never see in-field
// elision, whatever the config asks for.
TEST(InFieldElision, ExactBoundsSchemeIgnoresInFieldFlag) {
  IrFunction fn = BuildFieldsKernel(/*record_size=*/8, /*oob_field=*/false);
  const CheckPassStats stats =
      RunCheckPipeline(fn, SgxBoundsCheckLowering(), InFieldOnly());
  EXPECT_EQ(stats.checks_elided_infield, 0u);
  EXPECT_EQ(stats.checks_inserted, 6u);
}

// --- engine invariance on optimized functions --------------------------------

struct SgxRig {
  SgxRig() {
    EnclaveConfig cfg;
    cfg.space_bytes = 64 * kMiB;
    enclave = std::make_unique<Enclave>(cfg);
    heap = std::make_unique<Heap>(enclave.get(), 16 * kMiB);
    stack = std::make_unique<StackAllocator>(enclave.get(), 1 * kMiB);
    sgx = std::make_unique<SgxBoundsRuntime>(enclave.get(), heap.get());
    interp = std::make_unique<Interpreter>(enclave.get(), heap.get(), stack.get());
    interp->AttachSgx(sgx.get());
  }
  std::unique_ptr<Enclave> enclave;
  std::unique_ptr<Heap> heap;
  std::unique_ptr<StackAllocator> stack;
  std::unique_ptr<SgxBoundsRuntime> sgx;
  std::unique_ptr<Interpreter> interp;
};

struct Outcome {
  uint64_t result = 0;
  uint64_t steps = 0;
  PerfCounters counters;
};

Outcome RunOn(IrEngine engine, const IrFunction& fn) {
  SgxRig rig;
  rig.interp->set_engine(engine);
  Outcome out;
  out.result = rig.interp->Run(fn, rig.enclave->main_cpu());
  out.steps = rig.interp->stats().steps;
  out.counters = rig.enclave->main_cpu().counters();
  return out;
}

// Init loop (t[i] = i), then a read-modify-write loop through one gep per
// iteration, then a read-back of t[3]: trips SCEV hoisting, and - with the
// kNe flip on the RMW loop - the pattern pass. Expected result 3 + 7 = 10.
IrFunction BuildRmwKernel(uint32_t n) {
  IrBuilder b("rmw");
  const ValueId t = b.Malloc(b.Const(static_cast<int64_t>(n) * 8));
  auto init = b.BeginCountedLoop(b.Const(0), b.Const(n), 1);
  b.Store(IrType::kI64, init.iv, b.Gep(t, init.iv, 8));
  b.EndLoop(init);
  auto loop = b.BeginCountedLoop(b.Const(0), b.Const(n), 1);
  const ValueId slot = b.Gep(t, loop.iv, 8);
  b.Store(IrType::kI64, b.Add(b.Load(IrType::kI64, slot), b.Const(7)), slot);
  b.EndLoop(loop);
  b.Ret(b.Load(IrType::kI64, b.Gep(t, b.Const(3), 8)));
  return b.Finish();
}

TEST(EngineInvariance, OptimizedFunctionsBitIdenticalAcrossEngines) {
  for (const bool flip : {false, true}) {
    IrFunction fn = BuildRmwKernel(512);
    if (flip) {
      FlipLastCmpToNe(fn);  // the RMW loop's exit test becomes `i != n`
    }
    CheckPassConfig all;
    all.elide_redundant = true;
    all.pattern_loops = true;
    all.elide_infield = true;
    const CheckPassStats stats = RunCheckPipeline(fn, SgxBoundsCheckLowering(), all);
    EXPECT_GT(stats.checks_hoisted + stats.checks_pattern_hoisted, 0u)
        << "flip=" << flip;
    if (flip) {
      EXPECT_GT(stats.checks_pattern_hoisted, 0u);
    }
    ASSERT_EQ(fn.Verify(), "");

    const Outcome ref = RunOn(IrEngine::kReference, fn);
    EXPECT_EQ(ref.result, 10u);
    const Outcome out = RunOn(IrEngine::kThreaded, fn);
    EXPECT_EQ(out.result, ref.result) << "flip=" << flip;
    EXPECT_EQ(out.steps, ref.steps) << "flip=" << flip;
    EXPECT_TRUE(out.counters == ref.counters) << "flip=" << flip;
  }
}

}  // namespace
}  // namespace sgxb
