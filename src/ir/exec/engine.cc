// Direct-threaded execution of decoded micro-op programs.
//
// Dispatch is a computed goto on GCC/Clang (one indirect jump per micro-op,
// no bounds check, no loop); define SGXB_IR_FORCE_SWITCH to fall back to a
// portable for(;;)+switch loop with identical semantics. Every simulated
// effect - step accounting, Cpu charges, memory traffic, runtime calls,
// traps - replicates the reference interpreter bit-for-bit; see uop.h.

#include "src/common/check.h"
#include "src/ir/eval.h"
#include "src/ir/exec/uop.h"
#include "src/ir/interp.h"

#if defined(__GNUC__) && !defined(SGXB_IR_FORCE_SWITCH)
#define SGXB_IR_COMPUTED_GOTO 1
#else
#define SGXB_IR_COMPUTED_GOTO 0
#endif

namespace sgxb {

namespace {

// Charges the batched pure-compute counts (see RunDecoded) to the Cpu, in
// chunks that fit its 32-bit Alu/Branch counts.
inline void FlushPending(Cpu& cpu, uint64_t& pend_alu, uint64_t& pend_branch,
                         uint64_t& pend_call) {
  while (pend_alu > 0) {
    const uint32_t n =
        pend_alu > 0x40000000 ? 0x40000000u : static_cast<uint32_t>(pend_alu);
    cpu.Alu(n);
    pend_alu -= n;
  }
  while (pend_branch > 0) {
    const uint32_t n =
        pend_branch > 0x40000000 ? 0x40000000u : static_cast<uint32_t>(pend_branch);
    cpu.Branch(n);
    pend_branch -= n;
  }
  for (; pend_call > 0; --pend_call) {
    cpu.Call();
  }
}

}  // namespace

uint64_t Interpreter::RunDecoded(const DecodedFunction& df, Cpu& cpu,
                                 const std::vector<uint64_t>& args, uint64_t max_steps) {
  values_.assign(df.num_slots, 0);
  uint64_t* const v = values_.data();
  if (df.track_mpx) {
    CHECK(mpx_ != nullptr);
    mpx_bounds_.assign(df.num_slots, MpxBounds{});
    mpx_valid_.assign(df.num_slots, 0);
  }

  const uint32_t frame = stack_->PushFrame();
  const MicroOp* const code = df.code.data();
  const MicroOp* pc = code + df.entry;

  // Hot counters live in registers; written back to stats_ on every exit
  // path so mid-trap observations match the reference exactly.
  uint64_t steps = stats_.steps;
  uint64_t loads = stats_.loads;
  uint64_t stores = stats_.stores;
  uint64_t checks = stats_.checks;

  // Pure compute charges (Alu/Branch/Call) are commutative cycle sums that
  // nothing observes between two observable points (memory access, runtime
  // call, trap, return) - so they accumulate in registers and flush just
  // before each observable. Every cycle stamp the simulation can record is
  // therefore identical to the reference's, which charges per instruction.
  uint64_t pend_alu = 0;
  uint64_t pend_branch = 0;
  uint64_t pend_call = 0;

#define SGXB_FLUSH() FlushPending(cpu, pend_alu, pend_branch, pend_call)

#define SGXB_STEP()                                                                  \
  do {                                                                               \
    if (++steps > max_steps) {                                                       \
      throw SimTrap(TrapKind::kIllegalInstruction, 0, "interpreter step limit exceeded"); \
    }                                                                                \
  } while (0)

  auto set_bounds = [this](uint32_t id, const MpxBounds& b) {
    mpx_bounds_[id] = b;
    mpx_valid_[id] = 1;
  };
  auto copy_bounds = [this](uint32_t dst, uint32_t src) {
    if (mpx_valid_[src]) {
      mpx_bounds_[dst] = mpx_bounds_[src];
      mpx_valid_[dst] = 1;
    }
  };
  auto bounds_or_init = [this](uint32_t id) {
    return mpx_valid_[id] ? mpx_bounds_[id] : MpxBounds{};
  };

  try {
#if SGXB_IR_COMPUTED_GOTO
    // Label table indexed by UOp; order must match the enum exactly.
    static const void* const kLabels[] = {
        &&L_kConst, &&L_kArg,
        &&L_kAdd, &&L_kSub, &&L_kMul, &&L_kUDiv, &&L_kURem, &&L_kAnd, &&L_kOr,
        &&L_kXor, &&L_kShl, &&L_kLShr,
        &&L_kAddImm, &&L_kSubImm, &&L_kMulImm, &&L_kAndImm, &&L_kOrImm,
        &&L_kXorImm, &&L_kShlImm, &&L_kLShrImm,
        &&L_kXorShlImm, &&L_kXorLShrImm,
        &&L_kICmp, &&L_kICmpImm,
        &&L_kBr, &&L_kCondBr, &&L_kCmpBr, &&L_kRet,
        &&L_kCopy, &&L_kBoundsCopy, &&L_kJump,
        &&L_kAllocaNative, &&L_kAllocaNativeMpx, &&L_kAllocaSgx, &&L_kAllocaAsan,
        &&L_kMallocNative, &&L_kMallocNativeMpx, &&L_kMallocSgx, &&L_kMallocAsan,
        &&L_kFreeNative, &&L_kFreeSgx, &&L_kFreeAsan,
        &&L_kGep, &&L_kGepMpx, &&L_kMaskPtr,
        &&L_kLoad, &&L_kStore,
        &&L_kSgxCheck, &&L_kSgxCheckUpper, &&L_kSgxCheckRange, &&L_kAsanCheck,
        &&L_kMpxCheck, &&L_kMpxLdx, &&L_kMpxStx,
        &&L_kGepSgxCheckLoad, &&L_kGepSgxCheckUpperLoad, &&L_kGepSgxCheckStore,
        &&L_kGepSgxCheckUpperStore,
        &&L_kGepMaskLoad, &&L_kGepMaskStore,
        &&L_kGepMaskSgxCheckLoad, &&L_kGepMaskSgxCheckUpperLoad,
        &&L_kGepMaskSgxCheckStore, &&L_kGepMaskSgxCheckUpperStore,
        &&L_kCallAbs64, &&L_kCallNop,
        &&L_kAllocaScheme, &&L_kMallocScheme, &&L_kFreeScheme,
        &&L_kSchemeCheck, &&L_kSchemeCheckRange,
        &&L_kGepMaskSchemeCheckLoad, &&L_kGepMaskSchemeCheckStore,
    };
    static_assert(sizeof(kLabels) / sizeof(kLabels[0]) ==
                      static_cast<size_t>(UOp::kCount),
                  "label table out of sync with UOp");
#define VMCASE(name) L_##name:
#define VMNEXT()                                        \
  do {                                                  \
    ++pc;                                               \
    goto* kLabels[static_cast<uint8_t>(pc->op)];        \
  } while (0)
#define VMJUMP(target)                                  \
  do {                                                  \
    pc = code + (target);                               \
    goto* kLabels[static_cast<uint8_t>(pc->op)];        \
  } while (0)
    goto* kLabels[static_cast<uint8_t>(pc->op)];
#else
#define VMCASE(name) case UOp::name:
#define VMNEXT()                                        \
  {                                                     \
    ++pc;                                               \
    break;                                              \
  }
#define VMJUMP(target)                                  \
  {                                                     \
    pc = code + (target);                               \
    break;                                              \
  }
    for (;;) {
      switch (pc->op) {
#endif

    VMCASE(kConst) {
      SGXB_STEP();
      v[pc->dst] = static_cast<uint64_t>(pc->imm);
    }
    VMNEXT();
    VMCASE(kArg) {
      SGXB_STEP();
      v[pc->dst] = pc->imm >= 0 && pc->imm < static_cast<int64_t>(args.size())
                       ? args[static_cast<size_t>(pc->imm)]
                       : 0;
    }
    VMNEXT();

    VMCASE(kAdd) {
      SGXB_STEP();
      ++pend_alu;
      v[pc->dst] = v[pc->a] + v[pc->b];
    }
    VMNEXT();
    VMCASE(kSub) {
      SGXB_STEP();
      ++pend_alu;
      v[pc->dst] = v[pc->a] - v[pc->b];
    }
    VMNEXT();
    VMCASE(kMul) {
      SGXB_STEP();
      ++pend_alu;
      v[pc->dst] = v[pc->a] * v[pc->b];
    }
    VMNEXT();
    VMCASE(kUDiv) {
      SGXB_STEP();
      ++pend_alu;
      v[pc->dst] = v[pc->b] == 0 ? 0 : v[pc->a] / v[pc->b];
    }
    VMNEXT();
    VMCASE(kURem) {
      SGXB_STEP();
      ++pend_alu;
      v[pc->dst] = v[pc->b] == 0 ? 0 : v[pc->a] % v[pc->b];
    }
    VMNEXT();
    VMCASE(kAnd) {
      SGXB_STEP();
      ++pend_alu;
      v[pc->dst] = v[pc->a] & v[pc->b];
    }
    VMNEXT();
    VMCASE(kOr) {
      SGXB_STEP();
      ++pend_alu;
      v[pc->dst] = v[pc->a] | v[pc->b];
    }
    VMNEXT();
    VMCASE(kXor) {
      SGXB_STEP();
      ++pend_alu;
      v[pc->dst] = v[pc->a] ^ v[pc->b];
    }
    VMNEXT();
    VMCASE(kShl) {
      SGXB_STEP();
      ++pend_alu;
      v[pc->dst] = v[pc->a] << (v[pc->b] & 63);
    }
    VMNEXT();
    VMCASE(kLShr) {
      SGXB_STEP();
      ++pend_alu;
      v[pc->dst] = v[pc->a] >> (v[pc->b] & 63);
    }
    VMNEXT();

    VMCASE(kAddImm) {
      SGXB_STEP();
      ++pend_alu;
      v[pc->dst] = v[pc->a] + static_cast<uint64_t>(pc->imm);
    }
    VMNEXT();
    VMCASE(kSubImm) {
      SGXB_STEP();
      ++pend_alu;
      v[pc->dst] = v[pc->a] - static_cast<uint64_t>(pc->imm);
    }
    VMNEXT();
    VMCASE(kMulImm) {
      SGXB_STEP();
      ++pend_alu;
      v[pc->dst] = v[pc->a] * static_cast<uint64_t>(pc->imm);
    }
    VMNEXT();
    VMCASE(kAndImm) {
      SGXB_STEP();
      ++pend_alu;
      v[pc->dst] = v[pc->a] & static_cast<uint64_t>(pc->imm);
    }
    VMNEXT();
    VMCASE(kOrImm) {
      SGXB_STEP();
      ++pend_alu;
      v[pc->dst] = v[pc->a] | static_cast<uint64_t>(pc->imm);
    }
    VMNEXT();
    VMCASE(kXorImm) {
      SGXB_STEP();
      ++pend_alu;
      v[pc->dst] = v[pc->a] ^ static_cast<uint64_t>(pc->imm);
    }
    VMNEXT();
    VMCASE(kShlImm) {
      SGXB_STEP();
      ++pend_alu;
      v[pc->dst] = v[pc->a] << static_cast<uint64_t>(pc->imm);  // pre-masked &63
    }
    VMNEXT();
    VMCASE(kLShrImm) {
      SGXB_STEP();
      ++pend_alu;
      v[pc->dst] = v[pc->a] >> static_cast<uint64_t>(pc->imm);  // pre-masked &63
    }
    VMNEXT();

    VMCASE(kXorShlImm) {
      // Fused shl-by-const + xor: the shift result t (slot c) is written
      // first, then the xor - two steps and two Alu charges, exactly the
      // reference's accounting for the two instructions.
      SGXB_STEP();
      ++pend_alu;
      const uint64_t t = v[pc->a] << static_cast<uint64_t>(pc->imm);
      v[pc->c] = t;
      SGXB_STEP();
      ++pend_alu;
      v[pc->dst] = v[pc->a] ^ t;
    }
    VMNEXT();
    VMCASE(kXorLShrImm) {
      SGXB_STEP();
      ++pend_alu;
      const uint64_t t = v[pc->a] >> static_cast<uint64_t>(pc->imm);
      v[pc->c] = t;
      SGXB_STEP();
      ++pend_alu;
      v[pc->dst] = v[pc->a] ^ t;
    }
    VMNEXT();

    VMCASE(kICmp) {
      SGXB_STEP();
      ++pend_alu;
      v[pc->dst] = EvalCmp(static_cast<IrCmp>(pc->aux), v[pc->a], v[pc->b]) ? 1 : 0;
    }
    VMNEXT();
    VMCASE(kICmpImm) {
      SGXB_STEP();
      ++pend_alu;
      v[pc->dst] =
          EvalCmp(static_cast<IrCmp>(pc->aux), v[pc->a], static_cast<uint64_t>(pc->imm))
              ? 1
              : 0;
    }
    VMNEXT();

    VMCASE(kBr) {
      SGXB_STEP();
      ++pend_branch;
      VMJUMP(pc->imm);
    }
    VMCASE(kCondBr) {
      SGXB_STEP();
      ++pend_branch;
      VMJUMP(v[pc->a] != 0 ? pc->imm : pc->imm2);
    }
    VMCASE(kCmpBr) {
      // Fused icmp (step, Alu, write) + condbr (step, Branch, jump): the
      // step-limit check fires between the components exactly as the
      // reference does between the two instructions.
      SGXB_STEP();
      ++pend_alu;
      const bool taken = EvalCmp(static_cast<IrCmp>(pc->aux), v[pc->a], v[pc->b]);
      v[pc->dst] = taken ? 1 : 0;
      SGXB_STEP();
      ++pend_branch;
      VMJUMP(taken ? pc->imm : pc->imm2);
    }
    VMCASE(kRet) {
      SGXB_STEP();
      const uint64_t ret = pc->flag != 0 ? v[pc->a] : 0;
      SGXB_FLUSH();
      stats_.steps = steps;
      stats_.loads = loads;
      stats_.stores = stores;
      stats_.checks = checks;
      stack_->PopFrame(frame);
      return ret;
    }

    VMCASE(kCopy) { v[pc->dst] = v[pc->a]; }
    VMNEXT();
    VMCASE(kBoundsCopy) { copy_bounds(pc->dst, pc->a); }
    VMNEXT();
    VMCASE(kJump) { VMJUMP(pc->imm); }

    VMCASE(kAllocaNative) {
      SGXB_STEP();
      SGXB_FLUSH();
      v[pc->dst] = stack_->Alloca(cpu, static_cast<uint32_t>(pc->imm));
    }
    VMNEXT();
    VMCASE(kAllocaNativeMpx) {
      SGXB_STEP();
      SGXB_FLUSH();
      const uint32_t size = static_cast<uint32_t>(pc->imm);
      v[pc->dst] = stack_->Alloca(cpu, size);
      set_bounds(pc->dst, mpx_->BndMk(cpu, static_cast<uint32_t>(v[pc->dst]), size));
    }
    VMNEXT();
    VMCASE(kAllocaSgx) {
      SGXB_STEP();
      SGXB_FLUSH();
      const uint32_t size = static_cast<uint32_t>(pc->imm);
      const uint32_t base = stack_->Alloca(cpu, size + sgx_->FooterBytes());
      v[pc->dst] = sgx_->SpecifyBounds(cpu, base, base + size, ObjKind::kStack);
    }
    VMNEXT();
    VMCASE(kAllocaAsan) {
      SGXB_STEP();
      SGXB_FLUSH();
      const uint32_t size = static_cast<uint32_t>(pc->imm);
      const uint32_t rz = asan_->RedzoneFor(size);
      const uint32_t base = stack_->Alloca(cpu, size + 2 * rz, 16);
      asan_->RegisterObject(cpu, base + rz, size, AsanRuntime::kShadowStackRedzone);
      v[pc->dst] = base + rz;
    }
    VMNEXT();

    VMCASE(kMallocNative) {
      SGXB_STEP();
      SGXB_FLUSH();
      v[pc->dst] = heap_->Alloc(cpu, static_cast<uint32_t>(v[pc->a]));
    }
    VMNEXT();
    VMCASE(kMallocNativeMpx) {
      SGXB_STEP();
      SGXB_FLUSH();
      const uint32_t size = static_cast<uint32_t>(v[pc->a]);
      v[pc->dst] = heap_->Alloc(cpu, size);
      set_bounds(pc->dst, mpx_->BndMk(cpu, static_cast<uint32_t>(v[pc->dst]), size));
    }
    VMNEXT();
    VMCASE(kMallocSgx) {
      SGXB_STEP();
      SGXB_FLUSH();
      v[pc->dst] = sgx_->Malloc(cpu, static_cast<uint32_t>(v[pc->a]));
    }
    VMNEXT();
    VMCASE(kMallocAsan) {
      SGXB_STEP();
      SGXB_FLUSH();
      v[pc->dst] = asan_->Malloc(cpu, static_cast<uint32_t>(v[pc->a]));
    }
    VMNEXT();

    VMCASE(kFreeNative) {
      SGXB_STEP();
      SGXB_FLUSH();
      heap_->Free(cpu, static_cast<uint32_t>(v[pc->a]));
    }
    VMNEXT();
    VMCASE(kFreeSgx) {
      SGXB_STEP();
      SGXB_FLUSH();
      sgx_->Free(cpu, v[pc->a]);
    }
    VMNEXT();
    VMCASE(kFreeAsan) {
      SGXB_STEP();
      SGXB_FLUSH();
      asan_->Free(cpu, static_cast<uint32_t>(v[pc->a]));
    }
    VMNEXT();

    VMCASE(kGep) {
      SGXB_STEP();
      pend_alu += 2;
      v[pc->dst] = v[pc->a] + v[pc->b] * static_cast<uint64_t>(pc->imm) +
                   static_cast<uint64_t>(pc->imm2);
    }
    VMNEXT();
    VMCASE(kGepMpx) {
      SGXB_STEP();
      pend_alu += 2;
      v[pc->dst] = v[pc->a] + v[pc->b] * static_cast<uint64_t>(pc->imm) +
                   static_cast<uint64_t>(pc->imm2);
      copy_bounds(pc->dst, pc->a);
    }
    VMNEXT();
    VMCASE(kMaskPtr) {
      SGXB_STEP();
      pend_alu += 2;
      v[pc->dst] = (v[pc->b] & 0xffffffff00000000ULL) | (v[pc->a] & 0xffffffffULL);
    }
    VMNEXT();

    VMCASE(kLoad) {
      SGXB_STEP();
      SGXB_FLUSH();
      ++loads;
      uint64_t raw = 0;
      enclave_->LoadBytes(cpu, static_cast<uint32_t>(v[pc->a]), &raw, pc->aux);
      v[pc->dst] = TruncateToType(pc->type, raw);
    }
    VMNEXT();
    VMCASE(kStore) {
      SGXB_STEP();
      SGXB_FLUSH();
      ++stores;
      const uint64_t raw = TruncateToType(pc->type, v[pc->a]);
      enclave_->StoreBytes(cpu, static_cast<uint32_t>(v[pc->b]), &raw, pc->aux);
    }
    VMNEXT();

    VMCASE(kSgxCheck) {
      SGXB_STEP();
      SGXB_FLUSH();
      ++checks;
      sgx_->CheckAccess(cpu, v[pc->a], static_cast<uint32_t>(pc->imm),
                        pc->flag != 0 ? AccessType::kWrite : AccessType::kRead);
    }
    VMNEXT();
    VMCASE(kSgxCheckUpper) {
      SGXB_STEP();
      SGXB_FLUSH();
      ++checks;
      sgx_->CheckAccessUpperOnly(cpu, v[pc->a], static_cast<uint32_t>(pc->imm),
                                 pc->flag != 0 ? AccessType::kWrite : AccessType::kRead);
    }
    VMNEXT();
    VMCASE(kSgxCheckRange) {
      SGXB_STEP();
      SGXB_FLUSH();
      ++checks;
      sgx_->CheckRange(cpu, v[pc->a], v[pc->b]);
    }
    VMNEXT();
    VMCASE(kAsanCheck) {
      SGXB_STEP();
      SGXB_FLUSH();
      ++checks;
      asan_->CheckAccess(cpu, static_cast<uint32_t>(v[pc->a]),
                         static_cast<uint32_t>(pc->imm), pc->flag != 0);
    }
    VMNEXT();
    VMCASE(kMpxCheck) {
      SGXB_STEP();
      SGXB_FLUSH();
      ++checks;
      mpx_->BndCheck(cpu, bounds_or_init(pc->a), static_cast<uint32_t>(v[pc->a]),
                     static_cast<uint32_t>(pc->imm));
    }
    VMNEXT();
    VMCASE(kMpxLdx) {
      SGXB_STEP();
      SGXB_FLUSH();
      set_bounds(pc->a, mpx_->BndLdx(cpu, static_cast<uint32_t>(v[pc->b]),
                                     static_cast<uint32_t>(v[pc->a])));
    }
    VMNEXT();
    VMCASE(kMpxStx) {
      SGXB_STEP();
      SGXB_FLUSH();
      mpx_->BndStx(cpu, static_cast<uint32_t>(v[pc->b]), static_cast<uint32_t>(v[pc->a]),
                   bounds_or_init(pc->a));
    }
    VMNEXT();

    VMCASE(kGepSgxCheckLoad) {
      SGXB_STEP();
      pend_alu += 2;
      const uint64_t g = v[pc->a] + v[pc->b] * static_cast<uint64_t>(pc->imm) +
                         static_cast<uint64_t>(pc->imm2);
      v[pc->c] = g;
      SGXB_STEP();
      SGXB_FLUSH();
      ++checks;
      sgx_->CheckAccess(cpu, g, pc->aux,
                        pc->flag != 0 ? AccessType::kWrite : AccessType::kRead);
      SGXB_STEP();
      SGXB_FLUSH();
      ++loads;
      uint64_t raw = 0;
      enclave_->LoadBytes(cpu, static_cast<uint32_t>(g), &raw, pc->aux);
      v[pc->dst] = TruncateToType(pc->type, raw);
    }
    VMNEXT();
    VMCASE(kGepSgxCheckUpperLoad) {
      SGXB_STEP();
      pend_alu += 2;
      const uint64_t g = v[pc->a] + v[pc->b] * static_cast<uint64_t>(pc->imm) +
                         static_cast<uint64_t>(pc->imm2);
      v[pc->c] = g;
      SGXB_STEP();
      SGXB_FLUSH();
      ++checks;
      sgx_->CheckAccessUpperOnly(cpu, g, pc->aux,
                                 pc->flag != 0 ? AccessType::kWrite : AccessType::kRead);
      SGXB_STEP();
      SGXB_FLUSH();
      ++loads;
      uint64_t raw = 0;
      enclave_->LoadBytes(cpu, static_cast<uint32_t>(g), &raw, pc->aux);
      v[pc->dst] = TruncateToType(pc->type, raw);
    }
    VMNEXT();
    VMCASE(kGepSgxCheckStore) {
      SGXB_STEP();
      pend_alu += 2;
      const uint64_t g = v[pc->a] + v[pc->b] * static_cast<uint64_t>(pc->imm) +
                         static_cast<uint64_t>(pc->imm2);
      v[pc->c] = g;
      SGXB_STEP();
      SGXB_FLUSH();
      ++checks;
      sgx_->CheckAccess(cpu, g, pc->aux,
                        pc->flag != 0 ? AccessType::kWrite : AccessType::kRead);
      SGXB_STEP();
      ++stores;
      // v[dst] read after the gep writeback: a store of the pointer itself
      // observes the gep result, as in the reference.
      const uint64_t raw = TruncateToType(pc->type, v[pc->dst]);
      enclave_->StoreBytes(cpu, static_cast<uint32_t>(g), &raw, pc->aux);
    }
    VMNEXT();
    VMCASE(kGepSgxCheckUpperStore) {
      SGXB_STEP();
      pend_alu += 2;
      const uint64_t g = v[pc->a] + v[pc->b] * static_cast<uint64_t>(pc->imm) +
                         static_cast<uint64_t>(pc->imm2);
      v[pc->c] = g;
      SGXB_STEP();
      SGXB_FLUSH();
      ++checks;
      sgx_->CheckAccessUpperOnly(cpu, g, pc->aux,
                                 pc->flag != 0 ? AccessType::kWrite : AccessType::kRead);
      SGXB_STEP();
      ++stores;
      const uint64_t raw = TruncateToType(pc->type, v[pc->dst]);
      enclave_->StoreBytes(cpu, static_cast<uint32_t>(g), &raw, pc->aux);
    }
    VMNEXT();

    // gep + maskptr [+ sgxcheck] + access quads: components step and charge
    // in reference order; the gep result t and the re-tagged pointer p are
    // both written back before the access, so a store of either value (or a
    // mid-quad trap) observes exactly the reference's state.
    VMCASE(kGepMaskLoad) {
      SGXB_STEP();
      pend_alu += 2;
      const uint64_t packed = static_cast<uint64_t>(pc->imm);
      const uint64_t t =
          v[pc->a] + v[pc->b] * (packed >> 32) + (packed & 0xffffffffULL);
      v[pc->c] = t;
      SGXB_STEP();
      pend_alu += 2;
      const uint64_t p = (v[pc->a] & 0xffffffff00000000ULL) | (t & 0xffffffffULL);
      v[static_cast<uint32_t>(pc->imm2)] = p;
      SGXB_STEP();
      ++loads;
      SGXB_FLUSH();
      uint64_t raw = 0;
      enclave_->LoadBytes(cpu, static_cast<uint32_t>(p), &raw, pc->aux);
      v[pc->dst] = TruncateToType(pc->type, raw);
    }
    VMNEXT();
    VMCASE(kGepMaskStore) {
      SGXB_STEP();
      pend_alu += 2;
      const uint64_t packed = static_cast<uint64_t>(pc->imm);
      const uint64_t t =
          v[pc->a] + v[pc->b] * (packed >> 32) + (packed & 0xffffffffULL);
      v[pc->c] = t;
      SGXB_STEP();
      pend_alu += 2;
      const uint64_t p = (v[pc->a] & 0xffffffff00000000ULL) | (t & 0xffffffffULL);
      v[static_cast<uint32_t>(pc->imm2)] = p;
      SGXB_STEP();
      ++stores;
      SGXB_FLUSH();
      const uint64_t raw = TruncateToType(pc->type, v[pc->dst]);
      enclave_->StoreBytes(cpu, static_cast<uint32_t>(p), &raw, pc->aux);
    }
    VMNEXT();
    VMCASE(kGepMaskSgxCheckLoad) {
      SGXB_STEP();
      pend_alu += 2;
      const uint64_t packed = static_cast<uint64_t>(pc->imm);
      const uint64_t t =
          v[pc->a] + v[pc->b] * (packed >> 32) + (packed & 0xffffffffULL);
      v[pc->c] = t;
      SGXB_STEP();
      pend_alu += 2;
      const uint64_t p = (v[pc->a] & 0xffffffff00000000ULL) | (t & 0xffffffffULL);
      v[static_cast<uint32_t>(pc->imm2)] = p;
      SGXB_STEP();
      ++checks;
      SGXB_FLUSH();
      sgx_->CheckAccess(cpu, p, pc->aux,
                        pc->flag != 0 ? AccessType::kWrite : AccessType::kRead);
      SGXB_STEP();
      ++loads;
      uint64_t raw = 0;
      enclave_->LoadBytes(cpu, static_cast<uint32_t>(p), &raw, pc->aux);
      v[pc->dst] = TruncateToType(pc->type, raw);
    }
    VMNEXT();
    VMCASE(kGepMaskSgxCheckUpperLoad) {
      SGXB_STEP();
      pend_alu += 2;
      const uint64_t packed = static_cast<uint64_t>(pc->imm);
      const uint64_t t =
          v[pc->a] + v[pc->b] * (packed >> 32) + (packed & 0xffffffffULL);
      v[pc->c] = t;
      SGXB_STEP();
      pend_alu += 2;
      const uint64_t p = (v[pc->a] & 0xffffffff00000000ULL) | (t & 0xffffffffULL);
      v[static_cast<uint32_t>(pc->imm2)] = p;
      SGXB_STEP();
      ++checks;
      SGXB_FLUSH();
      sgx_->CheckAccessUpperOnly(cpu, p, pc->aux,
                                 pc->flag != 0 ? AccessType::kWrite : AccessType::kRead);
      SGXB_STEP();
      ++loads;
      uint64_t raw = 0;
      enclave_->LoadBytes(cpu, static_cast<uint32_t>(p), &raw, pc->aux);
      v[pc->dst] = TruncateToType(pc->type, raw);
    }
    VMNEXT();
    VMCASE(kGepMaskSgxCheckStore) {
      SGXB_STEP();
      pend_alu += 2;
      const uint64_t packed = static_cast<uint64_t>(pc->imm);
      const uint64_t t =
          v[pc->a] + v[pc->b] * (packed >> 32) + (packed & 0xffffffffULL);
      v[pc->c] = t;
      SGXB_STEP();
      pend_alu += 2;
      const uint64_t p = (v[pc->a] & 0xffffffff00000000ULL) | (t & 0xffffffffULL);
      v[static_cast<uint32_t>(pc->imm2)] = p;
      SGXB_STEP();
      ++checks;
      SGXB_FLUSH();
      sgx_->CheckAccess(cpu, p, pc->aux,
                        pc->flag != 0 ? AccessType::kWrite : AccessType::kRead);
      SGXB_STEP();
      ++stores;
      const uint64_t raw = TruncateToType(pc->type, v[pc->dst]);
      enclave_->StoreBytes(cpu, static_cast<uint32_t>(p), &raw, pc->aux);
    }
    VMNEXT();
    VMCASE(kGepMaskSgxCheckUpperStore) {
      SGXB_STEP();
      pend_alu += 2;
      const uint64_t packed = static_cast<uint64_t>(pc->imm);
      const uint64_t t =
          v[pc->a] + v[pc->b] * (packed >> 32) + (packed & 0xffffffffULL);
      v[pc->c] = t;
      SGXB_STEP();
      pend_alu += 2;
      const uint64_t p = (v[pc->a] & 0xffffffff00000000ULL) | (t & 0xffffffffULL);
      v[static_cast<uint32_t>(pc->imm2)] = p;
      SGXB_STEP();
      ++checks;
      SGXB_FLUSH();
      sgx_->CheckAccessUpperOnly(cpu, p, pc->aux,
                                 pc->flag != 0 ? AccessType::kWrite : AccessType::kRead);
      SGXB_STEP();
      ++stores;
      const uint64_t raw = TruncateToType(pc->type, v[pc->dst]);
      enclave_->StoreBytes(cpu, static_cast<uint32_t>(p), &raw, pc->aux);
    }
    VMNEXT();

    VMCASE(kCallAbs64) {
      SGXB_STEP();
      ++pend_call;
      // Unsigned negate: -INT64_MIN is signed-overflow UB; 0 - ux wraps to
      // the same bit pattern the other engines produce.
      const uint64_t ux = v[pc->a];
      v[pc->dst] = static_cast<int64_t>(ux) < 0 ? 0 - ux : ux;
    }
    VMNEXT();
    VMCASE(kCallNop) {
      SGXB_STEP();
      ++pend_call;
      if (pc->dst != 0) {
        v[pc->dst] = 0;
      }
    }
    VMNEXT();

    VMCASE(kAllocaScheme) {
      SGXB_STEP();
      SGXB_FLUSH();
      v[pc->dst] = scheme_->IrAlloca(cpu, *stack_, static_cast<uint32_t>(pc->imm));
    }
    VMNEXT();
    VMCASE(kMallocScheme) {
      SGXB_STEP();
      SGXB_FLUSH();
      v[pc->dst] = scheme_->IrMalloc(cpu, static_cast<uint32_t>(v[pc->a]));
    }
    VMNEXT();
    VMCASE(kFreeScheme) {
      SGXB_STEP();
      SGXB_FLUSH();
      scheme_->IrFree(cpu, v[pc->a]);
    }
    VMNEXT();
    VMCASE(kSchemeCheck) {
      SGXB_STEP();
      SGXB_FLUSH();
      ++checks;
      scheme_->IrCheck(cpu, v[pc->a], static_cast<uint32_t>(pc->imm),
                       pc->flag != 0 ? AccessType::kWrite : AccessType::kRead);
    }
    VMNEXT();
    VMCASE(kSchemeCheckRange) {
      SGXB_STEP();
      SGXB_FLUSH();
      ++checks;
      scheme_->IrCheckRange(cpu, v[pc->a], v[pc->b]);
    }
    VMNEXT();
    VMCASE(kGepMaskSchemeCheckLoad) {
      SGXB_STEP();
      pend_alu += 2;
      const uint64_t packed = static_cast<uint64_t>(pc->imm);
      const uint64_t t =
          v[pc->a] + v[pc->b] * (packed >> 32) + (packed & 0xffffffffULL);
      v[pc->c] = t;
      SGXB_STEP();
      pend_alu += 2;
      const uint64_t p = (v[pc->a] & 0xffffffff00000000ULL) | (t & 0xffffffffULL);
      v[static_cast<uint32_t>(pc->imm2)] = p;
      SGXB_STEP();
      ++checks;
      SGXB_FLUSH();
      scheme_->IrCheck(cpu, p, pc->aux,
                       pc->flag != 0 ? AccessType::kWrite : AccessType::kRead);
      SGXB_STEP();
      ++loads;
      uint64_t raw = 0;
      enclave_->LoadBytes(cpu, static_cast<uint32_t>(p), &raw, pc->aux);
      v[pc->dst] = TruncateToType(pc->type, raw);
    }
    VMNEXT();
    VMCASE(kGepMaskSchemeCheckStore) {
      SGXB_STEP();
      pend_alu += 2;
      const uint64_t packed = static_cast<uint64_t>(pc->imm);
      const uint64_t t =
          v[pc->a] + v[pc->b] * (packed >> 32) + (packed & 0xffffffffULL);
      v[pc->c] = t;
      SGXB_STEP();
      pend_alu += 2;
      const uint64_t p = (v[pc->a] & 0xffffffff00000000ULL) | (t & 0xffffffffULL);
      v[static_cast<uint32_t>(pc->imm2)] = p;
      SGXB_STEP();
      ++checks;
      SGXB_FLUSH();
      scheme_->IrCheck(cpu, p, pc->aux,
                       pc->flag != 0 ? AccessType::kWrite : AccessType::kRead);
      SGXB_STEP();
      ++stores;
      const uint64_t raw = TruncateToType(pc->type, v[pc->dst]);
      enclave_->StoreBytes(cpu, static_cast<uint32_t>(p), &raw, pc->aux);
    }
    VMNEXT();

#if !SGXB_IR_COMPUTED_GOTO
        case UOp::kCount:
          FATAL("invalid micro-op");
      }
    }
#endif
#undef VMCASE
#undef VMNEXT
#undef VMJUMP
#undef SGXB_STEP
  } catch (...) {
    SGXB_FLUSH();
    stats_.steps = steps;
    stats_.loads = loads;
    stats_.stores = stores;
    stats_.checks = checks;
    stack_->PopFrame(frame);
    throw;
  }
#undef SGXB_FLUSH
  FATAL("decoded program fell off the end");
}

}  // namespace sgxb
