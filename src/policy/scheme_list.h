// THE single registration point of the scheme registry.
//
// Adding a scheme: append its PolicyKind value (policy.h), create
// src/policy/<scheme>/ with one scheme class deriving from PolicyFrontEnd
// (front_end.h lists the primitives it supplies) + a scheme.cc defining
// Descriptor(), then add the type to SchemePolicies below. Nothing else in
// the repo changes - the registry (policy.cc), the run harness (run.h), the
// IR suite, the bench drivers, the trace tool, RIPE and the fault campaigns
// all enumerate from here.

#ifndef SGXBOUNDS_SRC_POLICY_SCHEME_LIST_H_
#define SGXBOUNDS_SRC_POLICY_SCHEME_LIST_H_

#include "src/policy/asan/asan_policy.h"
#include "src/policy/l4ptr/l4ptr_policy.h"
#include "src/policy/mpx/mpx_policy.h"
#include "src/policy/native/native_policy.h"
#include "src/policy/sgxbounds/sgxbounds_policy.h"
#include "src/policy/shadow/shadow_policy.h"

namespace sgxb {

// Compile-time list of scheme policy types. ForEach visits each type in
// order until the visitor returns true (found/stop), mirroring how the
// runtime descriptor table is ordered.
template <typename... Ps>
struct SchemeTypes {
  template <typename Fn>
  static bool ForEach(Fn&& fn) {
    return (fn.template operator()<Ps>() || ...);
  }

  static constexpr size_t kCount = sizeof...(Ps);
};

// Registration order = the paper's presentation order (native baseline
// first, then MPX, ASan, SGXBounds), then plugged-in schemes.
using SchemePolicies =
    SchemeTypes<NativePolicy, MpxPolicy, AsanPolicy, SgxBoundsPolicy, L4PtrPolicy,
                ShadowPolicy>;

static_assert(SchemePolicies::kCount == kPolicyKindCount,
              "every PolicyKind value needs a registered scheme");

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_SCHEME_LIST_H_
