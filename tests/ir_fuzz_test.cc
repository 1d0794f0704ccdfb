// Differential fuzzing of the instrumentation passes: generate random (but
// memory-safe) canonical IR programs, run them uninstrumented and under each
// of the three passes, and require
//   (1) identical results (passes preserve semantics),
//   (2) zero violations (no false positives on safe programs),
// and for deliberately-broken variants,
//   (3) the SGXBounds pass traps while the uninstrumented run corrupts.

#include <gtest/gtest.h>

#include <memory>

#include "src/common/rng.h"
#include "src/ir/builder.h"
#include "src/ir/interp.h"
#include "src/ir/opt/pipeline.h"

namespace sgxb {
namespace {

struct FuzzRig {
  FuzzRig() {
    EnclaveConfig cfg;
    cfg.space_bytes = 256 * kMiB;
    enclave = std::make_unique<Enclave>(cfg);
    heap = std::make_unique<Heap>(enclave.get(), 64 * kMiB);
    stack = std::make_unique<StackAllocator>(enclave.get(), 4 * kMiB);
    sgx = std::make_unique<SgxBoundsRuntime>(enclave.get(), heap.get());
    asan = std::make_unique<AsanRuntime>(enclave.get(), heap.get());
    mpx = std::make_unique<MpxRuntime>(enclave.get());
    interp = std::make_unique<Interpreter>(enclave.get(), heap.get(), stack.get());
    interp->AttachSgx(sgx.get());
    interp->AttachAsan(asan.get());
    interp->AttachMpx(mpx.get());
  }
  std::unique_ptr<Enclave> enclave;
  std::unique_ptr<Heap> heap;
  std::unique_ptr<StackAllocator> stack;
  std::unique_ptr<SgxBoundsRuntime> sgx;
  std::unique_ptr<AsanRuntime> asan;
  std::unique_ptr<MpxRuntime> mpx;
  std::unique_ptr<Interpreter> interp;
};

// Generates a random program of `n_arrays` arrays, a few counted loops doing
// stores/loads/arithmetic at safe indices, returning a checksum. With
// `overflow`, one loop bound exceeds its array by one element.
IrFunction GenerateProgram(uint64_t seed, bool overflow) {
  Rng rng(seed);
  IrBuilder b("fuzz");
  const uint32_t n_arrays = 2 + rng.NextBounded(3);
  std::vector<ValueId> arrays;
  std::vector<uint32_t> sizes;  // in i64 elements
  for (uint32_t a = 0; a < n_arrays; ++a) {
    const uint32_t elems = 8 + static_cast<uint32_t>(rng.NextBounded(120));
    sizes.push_back(elems);
    if (rng.NextBounded(2) == 0) {
      arrays.push_back(b.Malloc(b.Const(elems * 8)));
    } else {
      arrays.push_back(b.Alloca(elems * 8));
    }
  }
  // Init loops.
  for (uint32_t a = 0; a < n_arrays; ++a) {
    auto loop = b.BeginCountedLoop(b.Const(0), b.Const(sizes[a]), 1);
    const ValueId v = b.Mul(loop.iv, b.Const(static_cast<int64_t>(rng.NextBounded(13) + 1)));
    b.Store(IrType::kI64, v, b.Gep(arrays[a], loop.iv, 8));
    b.EndLoop(loop);
  }
  // Compute loops: read one array, combine, store into another.
  const uint32_t acc_cell = 0;
  const ValueId acc = b.Alloca(8);
  b.Store(IrType::kI64, b.Const(0), acc);
  for (int pass = 0; pass < 3; ++pass) {
    const uint32_t src = static_cast<uint32_t>(rng.NextBounded(n_arrays));
    const uint32_t dst = static_cast<uint32_t>(rng.NextBounded(n_arrays));
    const uint32_t limit = std::min(sizes[src], sizes[dst]);
    const uint32_t bound = overflow && pass == 1 ? limit + 1 : limit;
    auto loop = b.BeginCountedLoop(b.Const(0), b.Const(bound), 1);
    const ValueId v = b.Load(IrType::kI64, b.Gep(arrays[src], loop.iv, 8));
    const ValueId w = b.Add(v, b.Const(static_cast<int64_t>(rng.NextBounded(97))));
    b.Store(IrType::kI64, w, b.Gep(arrays[dst], loop.iv, 8));
    const ValueId old = b.Load(IrType::kI64, acc);
    b.Store(IrType::kI64, b.Add(old, w), acc);
    b.EndLoop(loop);
  }
  (void)acc_cell;
  b.Ret(b.Load(IrType::kI64, acc));
  return b.Finish();
}

class IrFuzz : public ::testing::TestWithParam<int> {};

TEST_P(IrFuzz, PassesPreserveSemanticsOnSafePrograms) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 7919 + 3;
  uint64_t reference = 0;
  {
    FuzzRig rig;
    IrFunction fn = GenerateProgram(seed, /*overflow=*/false);
    reference = rig.interp->Run(fn, rig.enclave->main_cpu());
  }
  {
    FuzzRig rig;
    IrFunction fn = GenerateProgram(seed, false);
    for (const bool elide : {false, true}) {
      for (const bool hoist : {false, true}) {
        FuzzRig inner;
        IrFunction hardened = GenerateProgram(seed, false);
        CheckPassConfig options;
        options.elide_safe = elide;
        options.hoist_loops = hoist;
        RunCheckPipeline(hardened, SgxBoundsCheckLowering(), options);
        EXPECT_EQ(inner.interp->Run(hardened, inner.enclave->main_cpu()), reference)
            << "seed " << seed << " elide " << elide << " hoist " << hoist;
        EXPECT_EQ(inner.sgx->stats().violations, 0u);
      }
    }
  }
  {
    FuzzRig rig;
    IrFunction hardened = GenerateProgram(seed, false);
    RunCheckPipeline(hardened, AsanCheckLowering(), CheckPassConfig{});
    EXPECT_EQ(rig.interp->Run(hardened, rig.enclave->main_cpu()), reference);
    EXPECT_EQ(rig.asan->stats().reports, 0u);
  }
  {
    FuzzRig rig;
    IrFunction hardened = GenerateProgram(seed, false);
    RunCheckPipeline(hardened, MpxCheckLowering(), CheckPassConfig{});
    EXPECT_EQ(rig.interp->Run(hardened, rig.enclave->main_cpu()), reference);
    EXPECT_EQ(rig.mpx->stats().violations, 0u);
  }
}

TEST_P(IrFuzz, SgxPassTrapsOnOverflowingVariant) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 7919 + 3;
  // Uninstrumented: runs to completion (silent corruption).
  {
    FuzzRig rig;
    IrFunction fn = GenerateProgram(seed, /*overflow=*/true);
    EXPECT_NO_THROW(rig.interp->Run(fn, rig.enclave->main_cpu()));
  }
  // Hardened: must trap, with or without the optimizations.
  for (const bool opts : {false, true}) {
    FuzzRig rig;
    IrFunction fn = GenerateProgram(seed, true);
    CheckPassConfig options;
    options.elide_safe = opts;
    options.hoist_loops = opts;
    RunCheckPipeline(fn, SgxBoundsCheckLowering(), options);
    EXPECT_THROW(rig.interp->Run(fn, rig.enclave->main_cpu()), SimTrap)
        << "seed " << seed << " opts " << opts;
  }
}

// --- engine differential coverage ----------------------------------------------
//
// Every random program - safe and overflowing, under every instrumentation
// pass - must behave identically on the reference and threaded engines:
// same return value or same trap, same interpreter stats, and
// bit-identical PerfCounters (the engines' definition of "same simulation").

enum class Hardening { kNone, kSgx, kSgxOpt, kAsan, kMpx };

struct EngineOutcome {
  bool trapped = false;
  std::string trap_detail;
  uint64_t result = 0;
  PerfCounters counters;
  InterpStats stats;
};

EngineOutcome RunUnderEngine(IrEngine engine, uint64_t seed, bool overflow,
                             Hardening hardening) {
  FuzzRig rig;
  rig.interp->set_engine(engine);
  IrFunction fn = GenerateProgram(seed, overflow);
  switch (hardening) {
    case Hardening::kNone:
      break;
    case Hardening::kSgx:
      RunCheckPipeline(fn, SgxBoundsCheckLowering(),
                       CheckPassConfig{/*elide_safe=*/false, /*hoist_loops=*/false});
      break;
    case Hardening::kSgxOpt:
      RunCheckPipeline(fn, SgxBoundsCheckLowering(), CheckPassConfig{});
      break;
    case Hardening::kAsan:
      RunCheckPipeline(fn, AsanCheckLowering(), CheckPassConfig{});
      break;
    case Hardening::kMpx:
      RunCheckPipeline(fn, MpxCheckLowering(), CheckPassConfig{});
      break;
  }
  EngineOutcome out;
  try {
    out.result = rig.interp->Run(fn, rig.enclave->main_cpu());
  } catch (const SimTrap& trap) {
    out.trapped = true;
    out.trap_detail = trap.what();
  }
  out.counters = rig.enclave->main_cpu().counters();
  out.stats = rig.interp->stats();
  return out;
}

TEST_P(IrFuzz, EnginesAgreeOnEveryProgram) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 7919 + 3;
  for (const bool overflow : {false, true}) {
    for (const Hardening hardening : {Hardening::kNone, Hardening::kSgx,
                                      Hardening::kSgxOpt, Hardening::kAsan,
                                      Hardening::kMpx}) {
      const EngineOutcome ref =
          RunUnderEngine(IrEngine::kReference, seed, overflow, hardening);
      const EngineOutcome out =
          RunUnderEngine(IrEngine::kThreaded, seed, overflow, hardening);
      const std::string what = "seed " + std::to_string(seed) + " overflow " +
                               std::to_string(overflow) + " hardening " +
                               std::to_string(static_cast<int>(hardening));
      EXPECT_EQ(ref.trapped, out.trapped) << what;
      EXPECT_EQ(ref.trap_detail, out.trap_detail) << what;
      EXPECT_EQ(ref.result, out.result) << what;
      EXPECT_TRUE(ref.counters == out.counters) << what;
      EXPECT_EQ(ref.stats.steps, out.stats.steps) << what;
      EXPECT_EQ(ref.stats.loads, out.stats.loads) << what;
      EXPECT_EQ(ref.stats.stores, out.stats.stores) << what;
      EXPECT_EQ(ref.stats.checks, out.stats.checks) << what;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IrFuzz, ::testing::Range(0, 12));

}  // namespace
}  // namespace sgxb
