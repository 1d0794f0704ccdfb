// Scheme-conformance battery: every scheme in the registry is checked
// against its own SchemeDescriptor claims, with no scheme-specific test
// code. Adding a sixth policy (one directory + one scheme_list.h entry)
// automatically puts it under:
//
//   * registry well-formedness (ids, aliases, baseline, --policies parsing);
//   * the detection matrix: out-of-bounds write/read and underflow must
//     crash exactly when the descriptor claims detection; use-after-free
//     must crash where claimed;
//   * allocation/access invariants: data written through every access path
//     (Store/StoreAt/StoreField/StorePtr/Span/Memcpy/Memset) reads back
//     intact, under every scheme;
//   * pinned simulated results: per-scheme digests of the Fig. 7 XS job set
//     (plus the IR suite) and the access-path probe, and the stream hash of
//     a kmeans/XS trace;
//   * live-vs-replay identity: a recorded run's PerfCounters replay
//     bit-for-bit for every scheme;
//   * env.Serve() containment: with recovery enabled, a detected violation
//     is dropped and the run continues.

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "src/common/host_parallel.h"
#include "src/policy/registry.h"
#include "src/policy/run.h"
#include "src/trace/record.h"
#include "src/trace/trace_replay.h"
#include "src/workloads/workload.h"

namespace sgxb {
namespace {

// --- registry well-formedness -----------------------------------------------

TEST(SchemeRegistry, CoversEveryPolicyKindExactlyOnce) {
  const auto& schemes = AllSchemes();
  EXPECT_EQ(schemes.size(), static_cast<size_t>(kPolicyKindCount));
  std::set<PolicyKind> kinds;
  std::set<std::string> ids;
  for (const SchemeDescriptor* d : schemes) {
    EXPECT_TRUE(kinds.insert(d->kind).second) << d->id;
    EXPECT_TRUE(ids.insert(d->id).second) << d->id;
    EXPECT_STRNE(d->id, "");
    EXPECT_STRNE(d->name, "");
    EXPECT_NE(d->make_ripe_defense, nullptr) << d->id;
  }
}

TEST(SchemeRegistry, ExactlyOneBaseline) {
  int baselines = 0;
  for (const SchemeDescriptor* d : AllSchemes()) {
    baselines += d->baseline ? 1 : 0;
  }
  EXPECT_EQ(baselines, 1);
}

TEST(SchemeRegistry, PaperSuiteIsTheFourPaperSchemes) {
  const auto& paper = PaperSchemes();
  ASSERT_EQ(paper.size(), 4u);
  EXPECT_EQ(paper[0]->kind, PolicyKind::kNative);
  EXPECT_EQ(paper[1]->kind, PolicyKind::kMpx);
  EXPECT_EQ(paper[2]->kind, PolicyKind::kAsan);
  EXPECT_EQ(paper[3]->kind, PolicyKind::kSgxBounds);
}

TEST(SchemeRegistry, LookupByIdAliasAndName) {
  for (const SchemeDescriptor* d : AllSchemes()) {
    EXPECT_EQ(FindScheme(d->id), d);
    for (const char* alias : d->aliases) {
      EXPECT_EQ(FindScheme(alias), d) << alias;
    }
    EXPECT_STREQ(PolicyName(d->kind), d->name);
    EXPECT_EQ(&SchemeOf(d->kind), d);
  }
  EXPECT_EQ(FindScheme("no-such-scheme"), nullptr);
}

TEST(SchemeRegistry, ParsePolicyListShorthandsAndErrors) {
  std::string error;
  const auto paper = ParsePolicyList("paper", &error);
  EXPECT_EQ(paper.size(), 4u);
  const auto all = ParsePolicyList("all", &error);
  EXPECT_EQ(all.size(), static_cast<size_t>(kPolicyKindCount));
  const auto csv = ParsePolicyList("native,sgxbounds,l4ptr", &error);
  ASSERT_EQ(csv.size(), 3u);
  EXPECT_EQ(csv[0], PolicyKind::kNative);
  EXPECT_EQ(csv[1], PolicyKind::kSgxBounds);
  EXPECT_EQ(csv[2], PolicyKind::kL4Ptr);
  EXPECT_TRUE(ParsePolicyList("sgxbounds,bogus", &error).empty());
  EXPECT_NE(error.find("bogus"), std::string::npos);
  for (const char* bad : {"native,,mpx", "native,", ",native"}) {
    error.clear();
    EXPECT_TRUE(ParsePolicyList(bad, &error).empty()) << bad;
    EXPECT_NE(error.find("empty item"), std::string::npos) << bad;
  }
}

// --- detection matrix -------------------------------------------------------

// Each probe allocates two adjacent 64-byte objects (64 is a power of two,
// so even schemes with padded allocations place their bound exactly at
// offset 64) and commits one specific violation on the first.

RunResult ProbeOobWrite(PolicyKind kind) {
  return RunPolicyKind(kind, MachineSpec{}, PolicyOptions{}, [](auto& env) {
    auto a = env.policy.Malloc(env.cpu, 64);
    auto b = env.policy.Malloc(env.cpu, 64);
    (void)b;
    env.policy.StoreAt(env.cpu, a, 64, static_cast<uint8_t>(0xAB));
  });
}

RunResult ProbeOobRead(PolicyKind kind) {
  return RunPolicyKind(kind, MachineSpec{}, PolicyOptions{}, [](auto& env) {
    auto a = env.policy.Malloc(env.cpu, 64);
    auto b = env.policy.Malloc(env.cpu, 64);
    (void)b;
    (void)env.policy.template LoadAt<uint8_t>(env.cpu, a, 64);
  });
}

RunResult ProbeUnderflow(PolicyKind kind) {
  return RunPolicyKind(kind, MachineSpec{}, PolicyOptions{}, [](auto& env) {
    auto a = env.policy.Malloc(env.cpu, 64);
    auto b = env.policy.Malloc(env.cpu, 64);
    (void)a;
    auto before = env.policy.Offset(env.cpu, b, -1);
    env.policy.Store(env.cpu, before, static_cast<uint8_t>(0xCD));
  });
}

RunResult ProbeUseAfterFree(PolicyKind kind) {
  return RunPolicyKind(kind, MachineSpec{}, PolicyOptions{}, [](auto& env) {
    auto a = env.policy.Malloc(env.cpu, 64);
    env.policy.Free(env.cpu, a);
    (void)env.policy.template Load<uint8_t>(env.cpu, a);
  });
}

TEST(SchemeConformance, OobWriteDetectedIffClaimed) {
  for (const SchemeDescriptor* d : AllSchemes()) {
    const RunResult r = ProbeOobWrite(d->kind);
    EXPECT_EQ(r.crashed, d->caps.detects_oob_write) << d->id << ": " << r.trap_message;
  }
}

TEST(SchemeConformance, OobReadDetectedIffClaimed) {
  for (const SchemeDescriptor* d : AllSchemes()) {
    const RunResult r = ProbeOobRead(d->kind);
    EXPECT_EQ(r.crashed, d->caps.detects_oob_read) << d->id << ": " << r.trap_message;
  }
}

TEST(SchemeConformance, UnderflowDetectedIffClaimed) {
  for (const SchemeDescriptor* d : AllSchemes()) {
    const RunResult r = ProbeUnderflow(d->kind);
    EXPECT_EQ(r.crashed, d->caps.detects_underflow) << d->id << ": " << r.trap_message;
  }
}

TEST(SchemeConformance, UseAfterFreeDetectedWhereClaimed) {
  for (const SchemeDescriptor* d : AllSchemes()) {
    if (!d->caps.detects_uaf) {
      continue;  // schemes without quarantine legitimately read stale bytes
    }
    const RunResult r = ProbeUseAfterFree(d->kind);
    EXPECT_TRUE(r.crashed) << d->id;
  }
}

// --- allocation / access invariants -----------------------------------------

// Drives every access path (Store/StoreAt/StoreField/StorePtr/Span/Memcpy/
// Memset/Calloc/AlignedAlloc) once and asserts the data reads back intact.
RunResult RunAccessPathProbe(PolicyKind kind) {
  return RunPolicyKind(kind, MachineSpec{}, PolicyOptions{}, [](auto& env) {
    auto& pol = env.policy;
    Cpu& cpu = env.cpu;

    // StoreAt / LoadAt over a 256-byte object.
    auto p = pol.Malloc(cpu, 256);
    for (uint32_t i = 0; i < 32; ++i) {
      pol.StoreAt(cpu, p, i * 8, static_cast<uint64_t>(i) * 0x9E3779B9u);
    }
    for (uint32_t i = 0; i < 32; ++i) {
      ASSERT_EQ(pol.template LoadAt<uint64_t>(cpu, p, i * 8),
                static_cast<uint64_t>(i) * 0x9E3779B9u);
    }

    // Field access.
    pol.StoreField(cpu, p, 16, static_cast<uint32_t>(0xDEADBEEF));
    ASSERT_EQ(pol.template LoadField<uint32_t>(cpu, p, 16), 0xDEADBEEFu);

    // Calloc zeroes.
    auto z = pol.Calloc(cpu, 8, 8);
    for (uint32_t i = 0; i < 8; ++i) {
      ASSERT_EQ(pol.template LoadAt<uint64_t>(cpu, z, i * 8), 0u);
    }

    // Memset + Memcpy.
    pol.Memset(cpu, z, 0x5A, 64);
    auto c = pol.Malloc(cpu, 64);
    pol.Memcpy(cpu, c, z, 64);
    ASSERT_EQ(pol.template LoadAt<uint8_t>(cpu, c, 63), 0x5Au);

    // Span (hoisted-check loop path).
    auto span = pol.OpenSpan(cpu, p, 256);
    for (uint32_t i = 0; i < 32; ++i) {
      span.Store(cpu, i * 8, static_cast<uint64_t>(i) + 7);
    }
    for (uint32_t i = 0; i < 32; ++i) {
      ASSERT_EQ(span.template Load<uint64_t>(cpu, i * 8), static_cast<uint64_t>(i) + 7);
    }

    // Pointer-in-memory round trip preserves the address (and for
    // tagged schemes, the bounds ride along or are rederived).
    auto slot = pol.Malloc(cpu, 64);
    pol.StorePtr(cpu, slot, c);
    auto back = pol.LoadPtr(cpu, slot);
    ASSERT_EQ(pol.AddrOf(back), pol.AddrOf(c));
    ASSERT_EQ(pol.template LoadAt<uint8_t>(cpu, back, 0), 0x5Au);

    // Aligned allocation honours the request.
    auto al = pol.AlignedAlloc(cpu, 128, 64);
    ASSERT_EQ(pol.AddrOf(al) % 64, 0u);

    pol.Free(cpu, al);
    pol.Free(cpu, slot);
    pol.Free(cpu, c);
    pol.Free(cpu, z);
    pol.Free(cpu, p);
  });
}

TEST(SchemeConformance, EveryAccessPathRoundTripsData) {
  for (const SchemeDescriptor* d : AllSchemes()) {
    const RunResult r = RunAccessPathProbe(d->kind);
    EXPECT_FALSE(r.crashed) << d->id << ": " << r.trap_message;
  }
}

// --- pinned simulated results -----------------------------------------------
//
// Every scheme's simulated output, pinned to literals: an FNV-1a digest of
// (cycles, peak VM, crashed, trap, every PerfCounters field) over the Fig. 7
// XS job set (Phoenix + PARSEC, 8 threads, registry default options), the
// IR suite (which runs each scheme's IR lowering) and the access-path probe
// above, plus the stream hash of a full kmeans/XS recording. The stream hash
// covers every encoded event byte: the order of every access and the
// compute delta of every parallel region, not only the sums. (The recorder
// aggregates compute charges between flush points, so moving an ALU op
// across an access inside one region is invisible to every simulated
// output; adding, dropping or re-pricing one changes these values.)

uint64_t FoldU64(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001b3ull;
  }
  return h;
}

uint64_t FoldResult(uint64_t h, const RunResult& r) {
  h = FoldU64(h, r.cycles);
  h = FoldU64(h, r.peak_vm_bytes);
  h = FoldU64(h, r.crashed ? 1 : 0);
  h = FoldU64(h, static_cast<uint64_t>(r.trap));
#define SGXB_FOLD_COUNTER(name) h = FoldU64(h, r.counters.name);
  SGXB_PERF_COUNTER_FIELDS(SGXB_FOLD_COUNTER)
#undef SGXB_FOLD_COUNTER
  return h;
}

struct PinnedScheme {
  const char* id;
  uint64_t results_digest;
  uint64_t kmeans_stream_hash;
};

constexpr PinnedScheme kPinned[] = {
    {"native", 0xab3a8c0a216f38cdull, 0xca7493268bb4ee7bull},
    {"mpx", 0x49b0b6b8196678e9ull, 0xbb1f27ea4630e3ffull},
    {"asan", 0x415cb659a8bfe960ull, 0x75d80b756da17af1ull},
    {"sgxbounds", 0x21afd7db1dc5b696ull, 0xa2932d09ffb83660ull},
    {"l4ptr", 0x20ce558748ca71cfull, 0x250df1d7c5484770ull},
    {"shadow", 0x7de1d6aeea1e3367ull, 0x50c462d7fd32bc49ull},
};

TEST(SchemeConformance, PinnedSimulatedResults) {
  std::vector<const WorkloadInfo*> workloads;
  for (const std::string suite : {"phoenix", "parsec", "ir"}) {
    for (const WorkloadInfo* w : WorkloadRegistry::Instance().BySuite(suite)) {
      workloads.push_back(w);
    }
  }
  ASSERT_FALSE(workloads.empty());
  const WorkloadInfo* kmeans = WorkloadRegistry::Instance().Find("kmeans");
  ASSERT_NE(kmeans, nullptr);
  WorkloadConfig cfg;
  cfg.size = SizeClass::kXS;
  cfg.threads = 8;

  const auto& schemes = AllSchemes();
  ASSERT_EQ(schemes.size(), std::size(kPinned));
  // One slot per (scheme, workload) run plus one kmeans recording per scheme;
  // the runs are independent simulations, so they fan out over host threads
  // and are folded in a fixed order afterwards.
  const size_t per_scheme = workloads.size();
  std::vector<RunResult> runs(schemes.size() * per_scheme);
  std::vector<uint64_t> stream_hashes(schemes.size());
  ParallelFor(runs.size() + schemes.size(), 4, [&](size_t i) {
    if (i < runs.size()) {
      const SchemeDescriptor* d = schemes[i / per_scheme];
      runs[i] = workloads[i % per_scheme]->run(d->kind, MachineSpec{}, d->default_options, cfg);
      return;
    }
    const SchemeDescriptor* d = schemes[i - runs.size()];
    const RecordedRun rec =
        RecordWorkloadRun(*kmeans, d->kind, MachineSpec{}, d->default_options, cfg);
    stream_hashes[i - runs.size()] = rec.trace.summary.stream_hash;
  });

  for (size_t s = 0; s < schemes.size(); ++s) {
    const SchemeDescriptor* d = schemes[s];
    EXPECT_STREQ(d->id, kPinned[s].id);
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t w = 0; w < per_scheme; ++w) {
      h = FoldResult(h, runs[s * per_scheme + w]);
    }
    h = FoldResult(h, RunAccessPathProbe(d->kind));
    EXPECT_EQ(h, kPinned[s].results_digest)
        << d->id << std::hex << ": results digest 0x" << h;
    EXPECT_EQ(stream_hashes[s], kPinned[s].kmeans_stream_hash)
        << d->id << std::hex << ": kmeans/XS stream hash 0x" << stream_hashes[s];
  }
}

// --- live vs replay ---------------------------------------------------------

TEST(SchemeConformance, LiveAndReplayCountersIdentical) {
  const WorkloadInfo* info = WorkloadRegistry::Instance().Find("matrixmul");
  ASSERT_NE(info, nullptr);
  WorkloadConfig cfg;
  cfg.size = SizeClass::kXS;
  cfg.threads = 1;
  for (const SchemeDescriptor* d : AllSchemes()) {
    const RecordedRun rec =
        RecordWorkloadRun(*info, d->kind, MachineSpec{}, PolicyOptions{}, cfg);
    ASSERT_FALSE(rec.live.crashed) << d->id;
    const ReplayResult replay = ReplayTrace(rec.trace);
    EXPECT_EQ(replay.cycles, rec.live.cycles) << d->id;
    EXPECT_TRUE(replay.counters == rec.live.counters) << d->id;
  }
}

// --- Serve() containment ----------------------------------------------------

TEST(SchemeConformance, ServeContainsDetectedViolations) {
  for (const SchemeDescriptor* d : AllSchemes()) {
    MachineSpec spec;
    spec.recovery.enabled = true;
    spec.recovery.max_retries = 0;  // a deterministic violation never heals
    bool served_violation = false;
    bool served_benign = false;
    const RunResult r = RunPolicyKind(d->kind, spec, PolicyOptions{}, [&](auto& env) {
      auto a = env.policy.Malloc(env.cpu, 64);
      auto b = env.policy.Malloc(env.cpu, 64);
      served_violation = env.Serve(
          [&] { env.policy.StoreAt(env.cpu, a, 64, static_cast<uint8_t>(1)); });
      served_benign = env.Serve(
          [&] { env.policy.StoreAt(env.cpu, b, 0, static_cast<uint8_t>(2)); });
    });
    EXPECT_FALSE(r.crashed) << d->id << ": " << r.trap_message;
    EXPECT_TRUE(served_benign) << d->id;
    if (d->caps.detects_oob_write) {
      EXPECT_FALSE(served_violation) << d->id;
      EXPECT_GE(r.recovery_stats.contained, 1u) << d->id;
    } else {
      EXPECT_TRUE(served_violation) << d->id;
      EXPECT_EQ(r.recovery_stats.contained, 0u) << d->id;
    }
  }
}

}  // namespace
}  // namespace sgxb
