// Tests for the mini IR: builder/verifier, interpreter semantics, the
// instrumentation passes, and the SS4.4 analyses (safe-access elision,
// scalar-evolution check hoisting).

#include <gtest/gtest.h>

#include <memory>

#include "src/ir/builder.h"
#include "src/ir/interp.h"
#include "src/ir/opt/pipeline.h"

namespace sgxb {
namespace {

struct IrFixture : public ::testing::Test {
  IrFixture() {
    EnclaveConfig cfg;
    cfg.space_bytes = 256 * kMiB;
    enclave = std::make_unique<Enclave>(cfg);
    heap = std::make_unique<Heap>(enclave.get(), 64 * kMiB);
    stack = std::make_unique<StackAllocator>(enclave.get(), 1 * kMiB);
    sgx = std::make_unique<SgxBoundsRuntime>(enclave.get(), heap.get());
    asan = std::make_unique<AsanRuntime>(enclave.get(), heap.get());
    mpx = std::make_unique<MpxRuntime>(enclave.get());
    interp = std::make_unique<Interpreter>(enclave.get(), heap.get(), stack.get());
    interp->AttachSgx(sgx.get());
    interp->AttachAsan(asan.get());
    interp->AttachMpx(mpx.get());
  }

  uint64_t Run(const IrFunction& fn, const std::vector<uint64_t>& args = {}) {
    return interp->Run(fn, enclave->main_cpu(), args);
  }

  std::unique_ptr<Enclave> enclave;
  std::unique_ptr<Heap> heap;
  std::unique_ptr<StackAllocator> stack;
  std::unique_ptr<SgxBoundsRuntime> sgx;
  std::unique_ptr<AsanRuntime> asan;
  std::unique_ptr<MpxRuntime> mpx;
  std::unique_ptr<Interpreter> interp;
};

// sum = 0; for (i = 0; i < n; i++) sum += a[i]  over a malloc'd i64 array
// initialized to a[i] = i.
IrFunction BuildSumKernel(uint32_t n) {
  IrBuilder b("sum");
  const ValueId size = b.Const(n * 8);
  const ValueId arr = b.Malloc(size);
  const ValueId zero = b.Const(0);
  const ValueId bound = b.Const(n);
  auto init = b.BeginCountedLoop(zero, bound, 1);
  b.Store(IrType::kI64, init.iv, b.Gep(arr, init.iv, 8));
  b.EndLoop(init);
  const ValueId zero2 = b.Const(0);
  auto loop = b.BeginCountedLoop(zero2, bound, 1);
  const ValueId v = b.Load(IrType::kI64, b.Gep(arr, loop.iv, 8));
  // Accumulate into memory cell to keep the example simple (no reduction phi).
  (void)v;
  b.EndLoop(loop);
  // Return a[n-1].
  const ValueId last = b.Load(IrType::kI64, b.Gep(arr, b.Const(n - 1), 8));
  b.Ret(last);
  return b.Finish();
}

TEST_F(IrFixture, StraightLineArithmetic) {
  IrBuilder b("arith");
  const ValueId a = b.Const(21);
  const ValueId two = b.Const(2);
  const ValueId m = b.Mul(a, two);
  b.Ret(m);
  EXPECT_EQ(Run(b.Finish()), 42u);
}

TEST_F(IrFixture, ArgsArePassedThrough) {
  IrBuilder b("args", 2);
  const ValueId x = b.Arg(0);
  const ValueId y = b.Arg(1);
  b.Ret(b.Add(x, y));
  EXPECT_EQ(Run(b.Finish(), {30, 12}), 42u);
}

TEST_F(IrFixture, LoadStoreRoundTrip) {
  IrBuilder b("mem");
  const ValueId buf = b.Alloca(64);
  const ValueId v = b.Const(0x1122334455667788);
  b.Store(IrType::kI64, v, buf);
  b.Ret(b.Load(IrType::kI64, buf));
  EXPECT_EQ(Run(b.Finish()), 0x1122334455667788u);
}

TEST_F(IrFixture, NarrowTypesTruncate) {
  IrBuilder b("narrow");
  const ValueId buf = b.Alloca(16);
  b.Store(IrType::kI8, b.Const(0x1ff), buf);
  b.Ret(b.Load(IrType::kI8, buf));
  EXPECT_EQ(Run(b.Finish()), 0xffu);
}

TEST_F(IrFixture, CountedLoopComputes) {
  const IrFunction fn = BuildSumKernel(100);
  EXPECT_EQ(Run(fn), 99u);
}

TEST_F(IrFixture, VerifierCatchesMissingTerminator) {
  IrFunction fn;
  fn.name = "bad";
  fn.blocks.emplace_back();
  IrInstr c;
  c.id = 1;
  c.op = IrOp::kConst;
  fn.num_values = 2;
  fn.blocks[0].instrs.push_back(c);
  EXPECT_NE(fn.Verify(), "");
}

TEST_F(IrFixture, ToStringListsInstructions) {
  const IrFunction fn = BuildSumKernel(4);
  const std::string text = fn.ToString();
  EXPECT_NE(text.find("malloc"), std::string::npos);
  EXPECT_NE(text.find("phi"), std::string::npos);
  EXPECT_NE(text.find("condbr"), std::string::npos);
}

TEST_F(IrFixture, SgxPassPreservesSemantics) {
  IrFunction fn = BuildSumKernel(64);
  const uint64_t plain = Run(fn);
  IrFunction hardened = BuildSumKernel(64);
  RunCheckPipeline(hardened, SgxBoundsCheckLowering(), CheckPassConfig{});
  EXPECT_EQ(Run(hardened), plain);
}

TEST_F(IrFixture, AsanPassPreservesSemantics) {
  IrFunction hardened = BuildSumKernel(64);
  RunCheckPipeline(hardened, AsanCheckLowering(), CheckPassConfig{});
  EXPECT_EQ(Run(hardened), 63u);
}

TEST_F(IrFixture, MpxPassPreservesSemantics) {
  IrFunction hardened = BuildSumKernel(64);
  RunCheckPipeline(hardened, MpxCheckLowering(), CheckPassConfig{});
  EXPECT_EQ(Run(hardened), 63u);
}

IrFunction BuildOverflowKernel(uint32_t alloc, uint32_t upto) {
  // for (i = 0; i < upto; i++) a[i] = i  with a = malloc(alloc * 8).
  IrBuilder b("overflow");
  const ValueId arr = b.Malloc(b.Const(alloc * 8));
  auto loop = b.BeginCountedLoop(b.Const(0), b.Const(upto), 1);
  b.Store(IrType::kI64, loop.iv, b.Gep(arr, loop.iv, 8));
  b.EndLoop(loop);
  b.Ret();
  return b.Finish();
}

TEST_F(IrFixture, UninstrumentedOverflowSilentlyCorrupts) {
  IrFunction fn = BuildOverflowKernel(8, 9);
  EXPECT_NO_THROW(Run(fn));
}

TEST_F(IrFixture, SgxPassCatchesOverflow) {
  // With hoisting on, the preheader range check fires before the loop runs;
  // with hoisting off, the per-access check fires at i == 8. Both trap.
  for (bool hoist : {true, false}) {
    IrFunction fn = BuildOverflowKernel(8, 9);
    CheckPassConfig options;
    options.hoist_loops = hoist;
    RunCheckPipeline(fn, SgxBoundsCheckLowering(), options);
    try {
      Run(fn);
      FAIL() << "hoist=" << hoist;
    } catch (const SimTrap& t) {
      EXPECT_EQ(t.kind(), TrapKind::kSgxBoundsViolation);
    }
  }
}

TEST_F(IrFixture, AsanPassCatchesOverflow) {
  IrFunction fn = BuildOverflowKernel(8, 9);
  RunCheckPipeline(fn, AsanCheckLowering(), CheckPassConfig{});
  try {
    Run(fn);
    FAIL();
  } catch (const SimTrap& t) {
    EXPECT_EQ(t.kind(), TrapKind::kAsanReport);
  }
}

TEST_F(IrFixture, MpxPassCatchesOverflow) {
  IrFunction fn = BuildOverflowKernel(8, 9);
  RunCheckPipeline(fn, MpxCheckLowering(), CheckPassConfig{});
  try {
    Run(fn);
    FAIL();
  } catch (const SimTrap& t) {
    EXPECT_EQ(t.kind(), TrapKind::kMpxBoundRange);
  }
}

TEST_F(IrFixture, FindCountedLoopsRecognizesCanonicalForm) {
  const IrFunction fn = BuildSumKernel(16);
  const auto loops = FindCountedLoops(fn);
  ASSERT_EQ(loops.size(), 2u);  // the init loop and the sum loop
  for (const auto& loop : loops) {
    EXPECT_EQ(loop.step, 1);
    EXPECT_FALSE(loop.body_blocks.empty());
  }
}

TEST_F(IrFixture, SafeAccessAnalysisProvesConstantAccesses) {
  IrBuilder b("safe");
  const ValueId buf = b.Alloca(64);
  const ValueId idx = b.Const(3);
  const ValueId p = b.Gep(buf, idx, 8);
  b.Store(IrType::kI64, b.Const(1), p);  // a[3] of 8 slots: safe
  const ValueId idx2 = b.Const(7);
  const ValueId p2 = b.Gep(buf, idx2, 8);
  b.Store(IrType::kI64, b.Const(1), p2);  // a[7]: last slot, safe
  b.Ret();
  IrFunction fn = b.Finish();
  CheckPassStats stats = RunCheckPipeline(fn, SgxBoundsCheckLowering(), CheckPassConfig{});
  EXPECT_EQ(stats.checks_elided_safe, 2u);
  EXPECT_EQ(stats.checks_inserted, 0u);
}

TEST_F(IrFixture, UnsafeConstantAccessStillChecked) {
  IrBuilder b("unsafe");
  const ValueId buf = b.Alloca(64);
  const ValueId idx = b.Const(8);  // one past the end
  const ValueId p = b.Gep(buf, idx, 8);
  b.Store(IrType::kI64, b.Const(1), p);
  b.Ret();
  IrFunction fn = b.Finish();
  CheckPassStats stats = RunCheckPipeline(fn, SgxBoundsCheckLowering(), CheckPassConfig{});
  EXPECT_EQ(stats.checks_elided_safe, 0u);
  EXPECT_EQ(stats.checks_inserted, 1u);
  EXPECT_THROW(Run(fn), SimTrap);
}

TEST_F(IrFixture, HoistingMovesChecksOutOfLoop) {
  IrFunction fn = BuildSumKernel(128);
  CheckPassConfig options;
  options.elide_safe = false;
  CheckPassStats stats = RunCheckPipeline(fn, SgxBoundsCheckLowering(), options);
  // The two loop-body accesses hoist; range checks appear in preheaders.
  EXPECT_GE(stats.checks_hoisted, 2u);
  EXPECT_GE(fn.CountOp(IrOp::kSgxCheckRange), 2u);
  EXPECT_EQ(Run(fn), 127u);
}

TEST_F(IrFixture, HoistingRespectsStrideLimit) {
  // Stride 2048 B/iteration exceeds the SS4.4 limit of 1024: not hoisted.
  IrBuilder b("bigstride");
  const ValueId arr = b.Malloc(b.Const(2048 * 64));
  auto loop = b.BeginCountedLoop(b.Const(0), b.Const(64), 1);
  b.Store(IrType::kI64, loop.iv, b.Gep(arr, loop.iv, 2048));
  b.EndLoop(loop);
  b.Ret();
  IrFunction fn = b.Finish();
  CheckPassStats stats = RunCheckPipeline(fn, SgxBoundsCheckLowering(), CheckPassConfig{});
  EXPECT_EQ(stats.checks_hoisted, 0u);
  EXPECT_EQ(stats.checks_inserted, 1u);
}

TEST_F(IrFixture, HoistingReducesCycles) {
  IrFunction slow_fn = BuildSumKernel(4096);
  IrFunction fast_fn = BuildSumKernel(4096);
  CheckPassConfig no_opt;
  no_opt.elide_safe = false;
  no_opt.hoist_loops = false;
  CheckPassConfig all_opt;
  all_opt.elide_safe = false;
  RunCheckPipeline(slow_fn, SgxBoundsCheckLowering(), no_opt);
  RunCheckPipeline(fast_fn, SgxBoundsCheckLowering(), all_opt);
  Cpu* cpu_slow = enclave->NewCpu();
  Cpu* cpu_fast = enclave->NewCpu();
  interp->Run(slow_fn, *cpu_slow);
  interp->Run(fast_fn, *cpu_fast);
  EXPECT_LT(cpu_fast->cycles(), cpu_slow->cycles());
}

TEST_F(IrFixture, MaskedGepCannotCorruptTag) {
  // A huge index overflows the 32-bit pointer but the mask keeps UB intact,
  // so the check still fires (SS3.2 pointer-arithmetic hardening).
  IrBuilder b("evil");
  const ValueId arr = b.Malloc(b.Const(64));
  // Unmasked, this index would flip UB bits; masked, it wraps within the low
  // 32 bits to +70, which the (intact) bounds check rejects.
  const ValueId evil = b.Const((1LL << 33) + 70);
  const ValueId p = b.Gep(arr, evil, 1);
  b.Store(IrType::kI8, b.Const(1), p);
  b.Ret();
  IrFunction fn = b.Finish();
  RunCheckPipeline(fn, SgxBoundsCheckLowering(), CheckPassConfig{});
  EXPECT_GE(fn.CountOp(IrOp::kMaskPtr), 1u);
  EXPECT_THROW(Run(fn), SimTrap);
}

TEST_F(IrFixture, MpxPassInstrumentsPointerTraffic) {
  // p = malloc; slot = alloca; *slot = p; q = *slot; *q = 1
  IrBuilder b("ptrs");
  const ValueId p = b.Malloc(b.Const(32));
  const ValueId slot = b.Alloca(8);
  b.Store(IrType::kPtr, p, slot);
  const ValueId q = b.Load(IrType::kPtr, slot);
  b.Store(IrType::kI8, b.Const(1), q);
  b.Ret();
  IrFunction fn = b.Finish();
  CheckPassStats stats = RunCheckPipeline(fn, MpxCheckLowering(), CheckPassConfig{});
  EXPECT_EQ(stats.ptr_stores_instrumented, 1u);
  EXPECT_EQ(stats.ptr_loads_instrumented, 1u);
  EXPECT_NO_THROW(Run(fn));
  EXPECT_GT(mpx->stats().bndstx, 0u);
  EXPECT_GT(mpx->stats().bndldx, 0u);
}

TEST_F(IrFixture, MpxBoundsSurviveTableRoundTrip) {
  // Overflow through a pointer that went through memory: MPX still catches
  // it because bndldx restores the bounds.
  IrBuilder b("ptr_oob");
  const ValueId p = b.Malloc(b.Const(32));
  const ValueId slot = b.Alloca(8);
  b.Store(IrType::kPtr, p, slot);
  const ValueId q = b.Load(IrType::kPtr, slot);
  const ValueId oob = b.Gep(q, b.Const(32), 1);
  b.Store(IrType::kI8, b.Const(1), oob);
  b.Ret();
  IrFunction fn = b.Finish();
  RunCheckPipeline(fn, MpxCheckLowering(), CheckPassConfig{});
  EXPECT_THROW(Run(fn), SimTrap);
}

// Bounds must survive a pointer-valued phi and the GEP applied to it: if the
// interpreter dropped the association at the merge point, the OOB store
// would sail through with INIT (unchecked) bounds instead of trapping.
IrFunction BuildPhiPointerKernel(uint32_t idx) {
  // p = arg0 ? &a[0] : &c[0]; p[idx] = 7  with a, c = malloc(8 * 8).
  IrBuilder b("phiptr", 1);
  const ValueId take_a = b.Arg(0);
  const ValueId a = b.Malloc(b.Const(8 * 8));
  const ValueId c = b.Malloc(b.Const(8 * 8));
  const uint32_t left = b.NewBlock();
  const uint32_t right = b.NewBlock();
  const uint32_t join = b.NewBlock();
  b.CondBr(take_a, left, right);
  b.SetBlock(left);
  const ValueId pa = b.Gep(a, b.Const(0), 8);
  b.Br(join);
  b.SetBlock(right);
  const ValueId pc = b.Gep(c, b.Const(0), 8);
  b.Br(join);
  b.SetBlock(join);
  const ValueId p = b.Phi(IrType::kPtr, {pa, pc});
  b.Store(IrType::kI64, b.Const(7), b.Gep(p, b.Const(idx), 8));
  b.Ret(b.Const(1));
  return b.Finish();
}

TEST_F(IrFixture, MpxBoundsPropagateThroughPhiAndGep) {
  for (uint64_t take_a : {0u, 1u}) {
    IrFunction ok = BuildPhiPointerKernel(7);  // last valid element
    RunCheckPipeline(ok, MpxCheckLowering(), CheckPassConfig{});
    EXPECT_EQ(Run(ok, {take_a}), 1u) << "take_a=" << take_a;

    IrFunction oob = BuildPhiPointerKernel(8);  // one past the end
    RunCheckPipeline(oob, MpxCheckLowering(), CheckPassConfig{});
    try {
      Run(oob, {take_a});
      FAIL() << "take_a=" << take_a;
    } catch (const SimTrap& t) {
      EXPECT_EQ(t.kind(), TrapKind::kMpxBoundRange);
    }
  }
}

TEST_F(IrFixture, ArgWithOutOfRangeIndexReadsAsZero) {
  // A malformed kArg (negative or past the argument list) must evaluate to 0
  // rather than read out of bounds of the args vector.
  for (int64_t bad_index : {int64_t{-1}, int64_t{-1000}, int64_t{5}}) {
    IrBuilder b("badarg", 1);
    const ValueId x = b.Arg(0);
    b.Ret(x);
    IrFunction fn = b.Finish();
    for (auto& block : fn.blocks) {
      for (auto& instr : block.instrs) {
        if (instr.op == IrOp::kArg) {
          instr.imm = bad_index;
        }
      }
    }
    EXPECT_EQ(Run(fn, {42}), 0u) << "imm=" << bad_index;
  }
}

TEST_F(IrFixture, StepLimitStopsRunawayLoops) {
  IrBuilder b("forever");
  const uint32_t header = b.NewBlock();
  b.Br(header);
  b.SetBlock(header);
  b.Br(header);
  IrFunction fn = b.Finish();
  EXPECT_THROW(interp->Run(fn, enclave->main_cpu(), {}, 1000), SimTrap);
}

TEST_F(IrFixture, InstrumentationBlowupOrdering) {
  // MPX on pointer-chasing code inserts more memory-touching instructions
  // than SGXBounds (paper: 10x instructions on pca).
  auto build = [] {
    IrBuilder b("chase");
    const ValueId slots = b.Malloc(b.Const(64 * 8));
    const ValueId obj = b.Malloc(b.Const(64));
    auto fill = b.BeginCountedLoop(b.Const(0), b.Const(64), 1);
    b.Store(IrType::kPtr, obj, b.Gep(slots, fill.iv, 8));
    b.EndLoop(fill);
    auto loop = b.BeginCountedLoop(b.Const(0), b.Const(64), 1);
    const ValueId q = b.Load(IrType::kPtr, b.Gep(slots, loop.iv, 8));
    b.Store(IrType::kI8, b.Const(1), q);
    b.EndLoop(loop);
    b.Ret();
    return b.Finish();
  };
  IrFunction sgx_fn = build();
  IrFunction mpx_fn = build();
  CheckPassConfig no_opt;
  no_opt.elide_safe = false;
  no_opt.hoist_loops = false;
  RunCheckPipeline(sgx_fn, SgxBoundsCheckLowering(), no_opt);
  RunCheckPipeline(mpx_fn, MpxCheckLowering(), CheckPassConfig{});
  Cpu* cpu_sgx = enclave->NewCpu();
  Cpu* cpu_mpx = enclave->NewCpu();
  interp->Run(sgx_fn, *cpu_sgx);
  interp->Run(mpx_fn, *cpu_mpx);
  // MPX's table walks generate more metadata traffic than SGXBounds' footer
  // loads on this pointer-dense kernel.
  EXPECT_GT(cpu_mpx->counters().metadata_loads + cpu_mpx->counters().metadata_stores,
            cpu_sgx->counters().metadata_loads + cpu_sgx->counters().metadata_stores);
}

}  // namespace
}  // namespace sgxb
