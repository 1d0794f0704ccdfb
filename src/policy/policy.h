// Memory-safety policies: the "compilations" of every workload.
//
// The paper compiles each benchmark four ways: plain SGX (native), with
// AddressSanitizer, with Intel MPX, and with SGXBounds; this reproduction
// adds two plugged-in schemes (l4ptr, shadow). Each workload is a template
// over a policy class P, the moral equivalent of compiling the same C source
// under a different instrumentation.
//
// Every policy is one scheme class deriving from PolicyFrontEnd
// (front_end.h), which defines the access API once - checked, field, span,
// pointer-slot and libc-wrapper accesses plus the IR lowering hook - over
// the scheme's own primitives: its pointer encoding, allocator, check and
// runtime. This header holds what the front-end and the registry share: the
// PolicyKind enum and the PolicyOptions switches.

#ifndef SGXBOUNDS_SRC_POLICY_POLICY_H_
#define SGXBOUNDS_SRC_POLICY_POLICY_H_

#include <cstdint>

#include "src/common/ir_engine.h"
#include "src/sgxbounds/bounds_runtime.h"

namespace sgxb {

// Numeric values are trace-format-stable (TraceHeader.policy stores them);
// new schemes append, existing values never move.
enum class PolicyKind : uint8_t { kNative, kAsan, kMpx, kSgxBounds, kL4Ptr, kShadow };

// Number of registered PolicyKind values (kept in sync with the enum; the
// scheme registry in registry.h statically checks every kind is described).
inline constexpr uint32_t kPolicyKindCount = 6;

// Display name from the scheme registry ("SGX", "ASan", "MPX", ...).
const char* PolicyName(PolicyKind kind);

// Pointer slots in guest memory are 8 bytes for every policy (x86-64 ABI).
inline constexpr uint32_t kPtrSlotBytes = 8;

// Check-optimization switches, consumed by the scheme-generic pass pipeline
// (src/ir/opt/pipeline.h). Each scheme declares which passes are legal for
// its bounds encoding; a flag only takes effect where the scheme supports
// it, so the paper's setup (SS4.4 optimizations on SGXBounds, nothing on
// ASan/MPX) is preserved at these defaults.
struct PolicyOptions {
  OobPolicy oob = OobPolicy::kFailFast;
  // The paper's SS4.4 pair (default on, matching the published results).
  bool opt_safe_elision = true;
  bool opt_hoist_checks = true;
  // ShadowBound-style whole-program passes (default off: enabling them
  // changes instrumentation, and the paper-four goldens pin the defaults).
  bool opt_redundant_elision = false;
  bool opt_pattern_loops = false;
  bool opt_infield_elision = false;
  // Execution engine for interpreter-driven workload bodies (the "ir" suite).
  // kDefault follows the process-wide --ir_engine selection; simulated
  // results are engine-invariant by construction.
  IrEngine ir_engine = IrEngine::kDefault;
  // Boundless-memory degradation mode at overlay capacity (SGXBounds with
  // oob == kBoundless only): silently recycle the LRU chunk, or trap loudly
  // so a recovery layer can contain the request.
  OverlayExhaustPolicy overlay_exhaust = OverlayExhaustPolicy::kEvictOldest;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_POLICY_H_
