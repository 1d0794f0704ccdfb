// Differential fuzzing of the instrumentation passes: generate random (but
// memory-safe) canonical IR programs, run them uninstrumented and under every
// registered scheme's IR lowering with the check passes off, at their
// defaults and all on, and require
//   (1) identical results (passes preserve semantics),
//   (2) zero violations (no false positives on safe programs),
// and for deliberately-broken variants,
//   (3) every bounds scheme traps while the uninstrumented run corrupts
//       (l4ptr only once the overflow leaves its power-of-two padding),
//   (4) both IR engines agree on every program under every lowering.
// Each run builds the scheme's policy exactly as the workload harness does
// and instruments through its lowering hook (PolicyFrontEnd::LowerIr).

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/ir/builder.h"
#include "src/ir/interp.h"
#include "src/ir/opt/pipeline.h"
#include "src/policy/scheme_list.h"

namespace sgxb {
namespace {

// How far one loop of a generated program runs past its smaller array.
enum class Overflow {
  kNone,
  kOneElement,
  // Up to and including the first element at or past the next power of two
  // of the array's size: past any power-of-two allocation padding.
  kPastPaddedFootprint,
};

// Generates a random program of `n_arrays` arrays, a few counted loops doing
// stores/loads/arithmetic at safe indices, returning a checksum. With an
// overflow, one loop bound exceeds its smaller array, whose size in bytes is
// then stored in *overflow_at (the offset of the first out-of-bounds access).
IrFunction GenerateProgram(uint64_t seed, Overflow overflow,
                           uint32_t* overflow_at = nullptr) {
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
    uint32_t bound = limit;
    if (pass == 1 && overflow != Overflow::kNone) {
      bound = overflow == Overflow::kOneElement ? limit + 1 : std::bit_ceil(limit * 8) / 8 + 1;
      if (overflow_at != nullptr) {
        *overflow_at = limit * 8;
      }
    }
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

// Which check passes a hardened run asks for.
enum class Passes { kNone, kSafe, kHoist, kDefault, kAll };
constexpr Passes kEveryPassSet[] = {Passes::kNone, Passes::kSafe, Passes::kHoist,
                                    Passes::kDefault, Passes::kAll};

PolicyOptions OptionsFor(Passes passes) {
  PolicyOptions o;  // kDefault: the SS4.4 pair on, the rest off
  o.opt_safe_elision = passes == Passes::kSafe || passes == Passes::kDefault ||
                       passes == Passes::kAll;
  o.opt_hoist_checks = passes == Passes::kHoist || passes == Passes::kDefault ||
                       passes == Passes::kAll;
  o.opt_redundant_elision = passes == Passes::kAll;
  o.opt_pattern_loops = passes == Passes::kAll;
  o.opt_infield_elision = passes == Passes::kAll;
  return o;
}

// Every registered scheme that instruments (all but the native baseline).
std::vector<PolicyKind> HardenedKinds() {
  std::vector<PolicyKind> kinds;
  for (const SchemeDescriptor* d : AllSchemes()) {
    if (!d->baseline) {
      kinds.push_back(d->kind);
    }
  }
  return kinds;
}

struct Outcome {
  bool trapped = false;
  std::string trap_detail;
  uint64_t result = 0;
  PerfCounters counters;
  InterpStats stats;
};

// One fuzz run on a fresh enclave: the scheme's policy is built as the run
// harness builds it, its lowering hook instruments the program and attaches
// the runtime (native leaves the program bare), then one execution.
Outcome RunProgram(PolicyKind kind, Passes passes, IrEngine engine, uint64_t seed,
                   Overflow overflow) {
  EnclaveConfig cfg;
  cfg.space_bytes = 256 * kMiB;
  Enclave enclave(cfg);
  Heap heap(&enclave, 64 * kMiB);
  StackAllocator stack(&enclave, 4 * kMiB);
  Interpreter interp(&enclave, &heap, &stack);
  interp.set_engine(engine);
  IrFunction fn = GenerateProgram(seed, overflow);
  Outcome out;
  SchemePolicies::ForEach([&]<typename P>() {
    if (P::kKind != kind) {
      return false;
    }
    P policy(&enclave, &heap, OptionsFor(passes));
    policy.LowerIr(interp, fn);
    try {
      out.result = interp.Run(fn, enclave.main_cpu());
    } catch (const SimTrap& trap) {
      out.trapped = true;
      out.trap_detail = trap.what();
    }
    return true;
  });
  out.counters = enclave.main_cpu().counters();
  out.stats = interp.stats();
  return out;
}

std::string Describe(PolicyKind kind, Passes passes, uint64_t seed) {
  return std::string(SchemeOf(kind).id) + " passes " +
         std::to_string(static_cast<int>(passes)) + " seed " + std::to_string(seed);
}

class IrFuzz : public ::testing::TestWithParam<int> {};

TEST_P(IrFuzz, PassesPreserveSemanticsOnSafePrograms) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 7919 + 3;
  const Outcome reference =
      RunProgram(PolicyKind::kNative, Passes::kNone, IrEngine::kDefault, seed, Overflow::kNone);
  ASSERT_FALSE(reference.trapped) << reference.trap_detail;
  for (const PolicyKind kind : HardenedKinds()) {
    for (const Passes passes : kEveryPassSet) {
      const Outcome out = RunProgram(kind, passes, IrEngine::kDefault, seed, Overflow::kNone);
      const std::string what = Describe(kind, passes, seed);
      EXPECT_FALSE(out.trapped) << what << ": " << out.trap_detail;
      EXPECT_EQ(out.result, reference.result) << what;
      EXPECT_EQ(out.counters.bounds_violations, 0u) << what;
    }
  }
}

// l4ptr pads every object to a power of two (>= 32 bytes), so a one-element
// overflow of an array whose size is not a power of two stays inside its
// footprint: the scheme's documented structural miss. Every other scheme's
// bounds are exact at the 8-byte element granularity used here, and every
// scheme traps once the loop leaves the padded footprint.
bool ExpectOverflowTrap(PolicyKind kind, Overflow overflow, uint32_t overflow_at) {
  if (kind == PolicyKind::kL4Ptr && overflow == Overflow::kOneElement) {
    return L4PaddedSize(overflow_at) == overflow_at;
  }
  return true;
}

TEST_P(IrFuzz, OverflowingVariantTrapsUnderEveryBoundsScheme) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 7919 + 3;
  // Uninstrumented: runs to completion (silent corruption).
  const Outcome bare = RunProgram(PolicyKind::kNative, Passes::kNone, IrEngine::kDefault, seed,
                                  Overflow::kOneElement);
  EXPECT_FALSE(bare.trapped) << bare.trap_detail;
  // Hardened: must trap (on a bounds violation), with or without the
  // optimizations.
  for (const Overflow overflow : {Overflow::kOneElement, Overflow::kPastPaddedFootprint}) {
    uint32_t overflow_at = 0;
    (void)GenerateProgram(seed, overflow, &overflow_at);
    ASSERT_GT(overflow_at, 0u);
    for (const PolicyKind kind : HardenedKinds()) {
      for (const Passes passes : kEveryPassSet) {
        const Outcome out = RunProgram(kind, passes, IrEngine::kDefault, seed, overflow);
        const bool expected = ExpectOverflowTrap(kind, overflow, overflow_at);
        EXPECT_EQ(out.trapped, expected)
            << Describe(kind, passes, seed) << " overflow " << static_cast<int>(overflow)
            << " at byte " << overflow_at << ": " << out.trap_detail;
        EXPECT_EQ(out.counters.bounds_violations, expected ? 1u : 0u)
            << Describe(kind, passes, seed);
      }
    }
  }
}

// --- engine differential coverage ----------------------------------------------
//
// Every random program - safe and overflowing, under every scheme's lowering
// and pass set - must behave identically on the reference and threaded
// engines: same return value or same trap, same interpreter stats, and
// bit-identical PerfCounters (the engines' definition of "same simulation").

TEST_P(IrFuzz, EnginesAgreeOnEveryProgram) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 7919 + 3;
  struct Hardening {
    PolicyKind kind;
    Passes passes;
  };
  std::vector<Hardening> hardenings = {{PolicyKind::kNative, Passes::kNone}};
  for (const PolicyKind kind : HardenedKinds()) {
    for (const Passes passes : kEveryPassSet) {
      hardenings.push_back({kind, passes});
    }
  }
  for (const Overflow overflow :
       {Overflow::kNone, Overflow::kOneElement, Overflow::kPastPaddedFootprint}) {
    for (const Hardening& h : hardenings) {
      const Outcome ref = RunProgram(h.kind, h.passes, IrEngine::kReference, seed, overflow);
      const Outcome out = RunProgram(h.kind, h.passes, IrEngine::kThreaded, seed, overflow);
      const std::string what =
          Describe(h.kind, h.passes, seed) + " overflow " +
          std::to_string(static_cast<int>(overflow));
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
