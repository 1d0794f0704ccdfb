// Decode-path tests for the trace subsystem.
//
// Equivalence: DecodedTrace's flat arrays (events, deltas, loop phases) must
// equal what a TraceReader walk yields with a fresh TraceEvent per event, on a
// complete trace, a truncated prefix and the checked-in golden prefix; and a
// TraceEvent reused across Next() calls must compare and print exactly like
// freshly decoded ones, whatever stale payload it still holds.
//
// Robustness: seeded mutants of saved traces (an absurd summary event count,
// bit flips in the event bytes, truncated files), loaded through both the
// heap and the mmap path, must either fail to load with a named error or
// decode and replay without crashing, and decoding must never allocate more
// than a bound derived from the encoded byte count.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "src/trace/decoded_trace.h"
#include "src/trace/record.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_reader.h"
#include "src/trace/trace_replay.h"

#ifndef SGXB_GOLDEN_TRACE_DIR
#error "build must define SGXB_GOLDEN_TRACE_DIR"
#endif

// Largest single heap request made while the probe is armed (the whole test
// binary allocates through these replacements).
namespace {
std::atomic<bool> g_probe_armed{false};
std::atomic<size_t> g_probe_largest{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_probe_armed.load(std::memory_order_relaxed)) {
    size_t seen = g_probe_largest.load(std::memory_order_relaxed);
    while (n > seen && !g_probe_largest.compare_exchange_weak(seen, n)) {
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
// Out of line so the compiler does not pair the inlined free() with the
// operator new call at the allocation site and warn about a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace sgxb {
namespace {

std::string GoldenPath() {
  return std::string(SGXB_GOLDEN_TRACE_DIR) + "/kmeans_xs_sgxbounds.sgxtrace";
}

Trace RecordTrace(const char* workload, uint64_t event_limit) {
  const WorkloadInfo* info = WorkloadRegistry::Instance().Find(workload);
  EXPECT_NE(info, nullptr) << workload;
  TraceRecorder recorder(std::string(workload) + "/XS");
  if (event_limit != 0) {
    recorder.set_event_limit(event_limit);
  }
  MachineSpec spec;
  spec.trace = &recorder;
  WorkloadConfig cfg;
  cfg.size = SizeClass::kXS;
  cfg.threads = 2;
  info->run(PolicyKind::kSgxBounds, spec, PolicyOptions{}, cfg);
  return recorder.TakeTrace();
}

// --- equivalence ---

// Returns the number of loop-run events compared.
size_t ExpectDecodeMatchesReaderWalk(const Trace& trace, const std::string& what) {
  const DecodedTrace decoded(trace);
  TraceReader reader(trace);
  size_t i = 0;
  size_t loop_runs = 0;
  for (TraceEvent ev; reader.Next(&ev); ev = TraceEvent{}, ++i) {
    if (i >= decoded.events().size()) {
      ADD_FAILURE() << what << ": reader yields more events than the decode";
      break;
    }
    const DecodedEvent& d = decoded.events()[i];
    const std::string at = what + " event " + std::to_string(i) + ": " + FormatTraceEvent(ev);
    EXPECT_EQ(d.kind, ev.kind) << at;
    EXPECT_EQ(d.sub, ev.sub) << at;
    EXPECT_EQ(d.klass, ev.klass) << at;
    EXPECT_EQ(d.cpu, ev.cpu) << at;
    EXPECT_EQ(d.addr, ev.addr) << at;
    EXPECT_EQ(d.size, ev.size) << at;
    EXPECT_EQ(d.page, ev.page) << at;
    EXPECT_EQ(d.stride, ev.stride) << at;
    EXPECT_EQ(d.count, ev.count) << at;
    EXPECT_EQ(d.value, ev.value) << at;
    if (ev.kind == TraceEventKind::kCpuDelta) {
      const CpuDelta& x = decoded.delta(d.aux);
      EXPECT_TRUE(x.alu == ev.delta.alu && x.branches == ev.delta.branches &&
                  x.fp == ev.delta.fp && x.calls == ev.delta.calls &&
                  x.syscalls == ev.delta.syscalls &&
                  x.bounds_checks == ev.delta.bounds_checks &&
                  x.bounds_violations == ev.delta.bounds_violations &&
                  x.raw_cycles == ev.delta.raw_cycles)
          << at;
    } else if (ev.kind == TraceEventKind::kControl &&
               static_cast<ControlSub>(ev.sub) == ControlSub::kLoopRun) {
      ++loop_runs;
      EXPECT_EQ(d.period, ev.period) << at;
      const LoopPhase* phases = decoded.phases(d.aux);
      for (uint32_t j = 0; j < ev.period; ++j) {
        EXPECT_TRUE(phases[j] == ev.phases[j]) << at << " phase " << j;
      }
    } else {
      EXPECT_EQ(d.period, 0u) << at;
    }
  }
  EXPECT_EQ(i, decoded.events().size()) << what;
  EXPECT_GT(i, 0u) << what;
  return loop_runs;
}

TEST(DecodeEquivalence, CompleteTrace) {
  const Trace trace = RecordTrace("matrixmul", 0);
  ASSERT_EQ(trace.summary.truncated, 0u);
  EXPECT_GT(ExpectDecodeMatchesReaderWalk(trace, "matrixmul"), 0u);
  EXPECT_EQ(DecodedTrace(trace).event_count(), trace.summary.event_count);
}

TEST(DecodeEquivalence, TruncatedPrefix) {
  const Trace trace = RecordTrace("kmeans", 3000);
  ASSERT_EQ(trace.summary.truncated, 1u);
  ExpectDecodeMatchesReaderWalk(trace, "kmeans prefix");
  EXPECT_EQ(DecodedTrace(trace).event_count(), 3000u);
}

TEST(DecodeEquivalence, GoldenPrefix) {
  Trace golden;
  std::string error;
  ASSERT_TRUE(LoadTrace(GoldenPath(), &golden, &error)) << error;
  ExpectDecodeMatchesReaderWalk(golden, "golden");
}

// Encodes one event per call with the wire format of trace_format.h.
class StreamBuilder {
 public:
  void CpuDelta(const sgxb::CpuDelta& d) {
    const uint64_t fields[8] = {d.alu,      d.branches,      d.fp,
                                d.calls,    d.syscalls,      d.bounds_checks,
                                d.bounds_violations, d.raw_cycles};
    uint8_t mask = 0;
    for (int i = 0; i < 8; ++i) {
      mask |= fields[i] != 0 ? static_cast<uint8_t>(1u << i) : 0;
    }
    out_.push_back(static_cast<uint8_t>(TraceEventKind::kCpuDelta));
    out_.push_back(mask);
    for (uint64_t v : fields) {
      if (v != 0) {
        PutVarint(out_, v);
      }
    }
  }
  void Access(uint32_t addr, uint8_t klass) {
    out_.push_back(static_cast<uint8_t>(static_cast<uint8_t>(TraceEventKind::kAccess) |
                                        klass << 3 | SizeTagOf(8) << 5));
    PutZigZag(out_, static_cast<int64_t>(addr) - last_addr_);
    last_addr_ = addr;
  }
  void LoopRun(uint32_t period, uint64_t iters, uint32_t addr0) {
    out_.push_back(static_cast<uint8_t>(TraceEventKind::kControl) |
                   static_cast<uint8_t>(ControlSub::kLoopRun) << 3);
    PutVarint(out_, period);
    PutVarint(out_, iters);
    int64_t prev = last_addr_;
    int64_t last = 0;
    for (uint32_t j = 0; j < period; ++j) {
      const bool run = j % 2 == 1;
      const int64_t addr = addr0 + 0x100 * j;
      out_.push_back(static_cast<uint8_t>((j & 3u) | SizeTagOf(4) << 2 | (run ? 1u << 5 : 0u)));
      PutZigZag(out_, addr - prev);
      PutZigZag(out_, 64 + j);  // iteration step
      if (run) {
        PutZigZag(out_, 4);        // intra-run stride
        PutVarint(out_, 3 + j);    // intra-run count
      }
      prev = addr;
      last = addr + (64 + j) * static_cast<int64_t>(iters - 1) + (run ? 4 * (2 + j) : 0);
    }
    last_addr_ = last;
  }
  const std::vector<uint8_t>& bytes() const { return out_; }

 private:
  std::vector<uint8_t> out_;
  int64_t last_addr_ = 0;
};

TEST(DecodeEquivalence, ReusedEventMatchesFreshEvents) {
  sgxb::CpuDelta delta;
  delta.alu = 11;
  delta.branches = 22;
  delta.fp = 33;
  delta.calls = 44;
  delta.syscalls = 55;
  delta.bounds_checks = 66;
  delta.bounds_violations = 77;
  delta.raw_cycles = 88;
  StreamBuilder b;
  b.CpuDelta(delta);
  b.Access(0x1000, 1);
  b.LoopRun(kMaxLoopPeriod, 5, 0x20000);
  b.LoopRun(2, 7, 0x40000);
  sgxb::CpuDelta sparse;
  sparse.fp = 5;
  b.CpuDelta(sparse);  // fields absent from the mask must read zero
  const std::vector<uint8_t>& bytes = b.bytes();

  TraceReader reused_reader(bytes.data(), bytes.data() + bytes.size());
  TraceReader fresh_reader(bytes.data(), bytes.data() + bytes.size());
  TraceEvent reused;
  int n = 0;
  while (reused_reader.Next(&reused)) {
    TraceEvent fresh;
    ASSERT_TRUE(fresh_reader.Next(&fresh)) << n;
    EXPECT_TRUE(reused == fresh) << n << ": " << FormatTraceEvent(reused) << " vs "
                                 << FormatTraceEvent(fresh);
    EXPECT_TRUE(fresh == reused) << n;
    EXPECT_EQ(FormatTraceEvent(reused), FormatTraceEvent(fresh)) << n;
    switch (n) {
      case 1:  // kAccess after kCpuDelta: the stale delta is still there.
        EXPECT_EQ(reused.kind, TraceEventKind::kAccess);
        EXPECT_EQ(reused.delta.alu, 11u);
        break;
      case 2:
        EXPECT_EQ(reused.period, kMaxLoopPeriod);
        break;
      case 3:  // short loop after a long one: phases [2, 8) are stale.
        EXPECT_EQ(reused.period, 2u);
        EXPECT_FALSE(reused.phases[kMaxLoopPeriod - 1] == fresh.phases[kMaxLoopPeriod - 1]);
        break;
      case 4:
        EXPECT_EQ(reused.delta.alu, 0u);
        EXPECT_EQ(reused.delta.fp, 5u);
        break;
      default:
        break;
    }
    ++n;
  }
  EXPECT_EQ(n, 5);
  TraceEvent fresh;
  EXPECT_FALSE(fresh_reader.Next(&fresh));
}

// --- robustness ---

// Events decoded from `bytes`, which start with one valid access at 0x1000.
size_t EventsAfterValidAccess(const std::vector<uint8_t>& tail) {
  std::vector<uint8_t> bytes = {
      static_cast<uint8_t>(static_cast<uint8_t>(TraceEventKind::kAccess) | SizeTagOf(4) << 5)};
  PutZigZag(bytes, 0x1000);
  bytes.insert(bytes.end(), tail.begin(), tail.end());
  TraceReader reader(bytes.data(), bytes.data() + bytes.size());
  size_t n = 0;
  for (TraceEvent ev; reader.Next(&ev);) {
    ++n;
  }
  return n;
}

std::vector<uint8_t> SwitchCpu(uint64_t cpu) {
  std::vector<uint8_t> out = {static_cast<uint8_t>(TraceEventKind::kControl) |
                              static_cast<uint8_t>(ControlSub::kSwitchCpu) << 3};
  PutVarint(out, cpu);
  return out;
}

std::vector<uint8_t> WorkerBegin(uint64_t cpu) {
  std::vector<uint8_t> out = {static_cast<uint8_t>(TraceEventKind::kParallel) |
                              static_cast<uint8_t>(ParallelSub::kWorkerBegin) << 3};
  PutVarint(out, cpu);
  return out;
}

std::vector<uint8_t> Decommit(uint32_t page, uint64_t count) {
  std::vector<uint8_t> out = {static_cast<uint8_t>(TraceEventKind::kDecommit)};
  PutZigZag(out, page);
  PutVarint(out, count);
  return out;
}

// An access (count 1) or run at `addr`, size `size` (untagged varint).
std::vector<uint8_t> AccessRun(uint32_t addr, uint32_t size, int64_t stride, uint64_t count) {
  const TraceEventKind kind = count == 1 ? TraceEventKind::kAccess : TraceEventKind::kAccessRun;
  std::vector<uint8_t> out = {static_cast<uint8_t>(kind)};
  PutZigZag(out, static_cast<int64_t>(addr) - 0x1000);
  if (count != 1) {
    PutZigZag(out, stride);
    PutVarint(out, count);
  }
  PutVarint(out, size);
  return out;
}

std::vector<uint8_t> Loop(uint64_t iters, int64_t step) {
  std::vector<uint8_t> out = {static_cast<uint8_t>(TraceEventKind::kControl) |
                              static_cast<uint8_t>(ControlSub::kLoopRun) << 3};
  PutVarint(out, 1);
  PutVarint(out, iters);
  out.push_back(static_cast<uint8_t>(SizeTagOf(4) << 2));
  PutZigZag(out, 0);
  PutZigZag(out, step);
  return out;
}

// The reader ends the stream, as at a truncation, at operands the recorder
// never writes; each case also checks the largest operand that is accepted.
TEST(TraceMutation, ReaderStopsAtOperandsTheRecorderNeverWrites) {
  // A cpu id cannot exceed the events before it.
  EXPECT_EQ(EventsAfterValidAccess(SwitchCpu(1)), 2u);
  EXPECT_EQ(EventsAfterValidAccess(SwitchCpu(2)), 1u);
  EXPECT_EQ(EventsAfterValidAccess(WorkerBegin(1)), 2u);
  EXPECT_EQ(EventsAfterValidAccess(WorkerBegin(uint64_t{1} << 40)), 1u);
  // Page ranges stay inside the 2^20-page space.
  EXPECT_EQ(EventsAfterValidAccess(Decommit((1u << 20) - 1, 1)), 2u);
  EXPECT_EQ(EventsAfterValidAccess(Decommit((1u << 20) - 1, 2)), 1u);
  EXPECT_EQ(EventsAfterValidAccess(Decommit(0xfffff000u, 1)), 1u);
  // Accesses, runs and loops stay inside the 32-bit address space.
  EXPECT_EQ(EventsAfterValidAccess(AccessRun(0xfffffffcu, 4, 0, 1)), 2u);
  EXPECT_EQ(EventsAfterValidAccess(AccessRun(0xfffffffcu, 8, 0, 1)), 1u);
  EXPECT_EQ(EventsAfterValidAccess(AccessRun(0, 4, 1 << 20, 1 << 12)), 2u);
  EXPECT_EQ(EventsAfterValidAccess(AccessRun(0, 4, 1 << 20, 1 << 13)), 1u);
  EXPECT_EQ(EventsAfterValidAccess(AccessRun(0x1000, 4, 0, uint64_t{1} << 62)), 2u);
  EXPECT_EQ(EventsAfterValidAccess(AccessRun(0x1000, 4, INT64_MIN, 3)), 1u);
  EXPECT_EQ(EventsAfterValidAccess(Loop(1 << 20, 64)), 2u);
  EXPECT_EQ(EventsAfterValidAccess(Loop(1 << 27, 64)), 1u);
  EXPECT_EQ(EventsAfterValidAccess(Loop(3, -0x2000)), 1u);
  // An over-long varint is read as its low 64 bits, without overflow.
  std::vector<uint8_t> long_varint = SwitchCpu(0);
  long_varint.pop_back();
  long_varint.insert(long_varint.end(), 12, 0x80);
  long_varint.push_back(0);
  EXPECT_EQ(EventsAfterValidAccess(long_varint), 2u);
}

// A decode of `encoded_bytes` must never make a single allocation larger
// than this. The loop-phase reservation (a phase takes at least three bytes)
// and the doubling growth of the CpuDelta side table (a delta takes at least
// two bytes) are the largest terms.
size_t DecodeAllocationBound(size_t encoded_bytes) {
  return 2 * (encoded_bytes + kMaxLoopPeriod) * sizeof(CpuDelta);
}

DecodedTrace ProbedDecode(const TraceHeader& header, const TraceSummary& summary,
                          const uint8_t* begin, const uint8_t* end) {
  g_probe_largest.store(0);
  g_probe_armed.store(true);
  DecodedTrace decoded(header, summary, begin, end);
  g_probe_armed.store(false);
  EXPECT_LE(g_probe_largest.load(), DecodeAllocationBound(decoded.encoded_bytes()));
  EXPECT_LE(decoded.events().capacity(), decoded.encoded_bytes());
  return decoded;
}

// Replays a decoded trace the ways the sweep engine does: one full replay
// and one capture re-priced at a smaller EPC.
void ReplayAllWays(const DecodedTrace& decoded) {
  SimConfig cfg = SimConfigFromHeader(decoded.header());
  const ReplayResult full = ReplayDecoded(decoded, cfg);
  EXPECT_EQ(full.events_replayed, decoded.event_count());
  const ConfigSweeper sweeper(decoded, cfg);
  cfg.epc_bytes = 8 * kMiB;
  const ReplayResult repriced = sweeper.Replay(cfg);
  EXPECT_EQ(repriced.cpu_count, full.cpu_count);
}

struct LoadOutcome {
  bool heap_ok = false;
  bool mapped_ok = false;
};

// Loads `path` through both loaders. A rejection must carry a message; an
// accepted file must decode identically on both paths, within the
// allocation bound, and replay.
LoadOutcome LoadDecodeReplay(const std::string& path, const std::string& what) {
  LoadOutcome out;
  Trace heap;
  std::string heap_error;
  out.heap_ok = LoadTrace(path, &heap, &heap_error);
  MappedTrace mapped;
  std::string map_error;
  out.mapped_ok = mapped.Load(path, &map_error);
  EXPECT_EQ(out.heap_ok, out.mapped_ok) << what << ": " << heap_error << " / " << map_error;
  if (!out.heap_ok) {
    EXPECT_FALSE(heap_error.empty()) << what;
  }
  if (!out.mapped_ok) {
    EXPECT_FALSE(map_error.empty()) << what;
  }
  if (!out.heap_ok || !out.mapped_ok) {
    return out;
  }
  const DecodedTrace from_heap =
      ProbedDecode(heap.header, heap.summary, heap.events.data(),
                   heap.events.data() + heap.events.size());
  const DecodedTrace from_map = ProbedDecode(mapped.header(), mapped.summary(),
                                             mapped.events_begin(), mapped.events_end());
  EXPECT_EQ(from_heap.event_count(), from_map.event_count()) << what;
  EXPECT_EQ(from_heap.stream_hash(), from_map.stream_hash()) << what;
  ReplayAllWays(from_map);
  return out;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::vector<uint8_t> bytes;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    uint8_t buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
      bytes.insert(bytes.end(), buf, buf + n);
    }
    std::fclose(f);
  }
  return bytes;
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

// Runs every mutant class against one saved trace; returns how many bit-flip
// mutants loaded (and so went through decode and replay).
int MutateSavedTrace(const Trace& original, const std::string& name, uint64_t seed) {
  const std::string path = ::testing::TempDir() + "mutant_" + name + ".sgxtrace";
  std::string error;
  std::mt19937_64 rng(seed);

  // The summary's event count is outside the stream hash: 2^62 must load
  // and decode to the same events, reserved from the byte count instead.
  {
    Trace m = original;
    m.summary.event_count = uint64_t{1} << 62;
    EXPECT_TRUE(SaveTrace(m, path, &error)) << error;
    const LoadOutcome r = LoadDecodeReplay(path, name + " event_count=2^62");
    EXPECT_TRUE(r.heap_ok && r.mapped_ok) << name;
    MappedTrace mapped;
    EXPECT_TRUE(mapped.Load(path, &error)) << error;
    const DecodedTrace huge = ProbedDecode(mapped.header(), mapped.summary(),
                                           mapped.events_begin(), mapped.events_end());
    const DecodedTrace exact(original);
    EXPECT_EQ(huge.event_count(), exact.event_count()) << name;
    const SimConfig cfg = SimConfigFromHeader(original.header);
    EXPECT_EQ(ReplayDecoded(huge, cfg).counters, ReplayDecoded(exact, cfg).counters) << name;
  }

  // Bit flips in the event bytes: complete traces fail the stream hash;
  // prefixes (unhashed) must decode and replay without crashing.
  int loaded = 0;
  for (int i = 0; i < 24; ++i) {
    Trace m = original;
    const int flips = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < flips; ++f) {
      m.events[rng() % m.events.size()] ^= static_cast<uint8_t>(1u << (rng() % 8));
    }
    EXPECT_TRUE(SaveTrace(m, path, &error)) << error;
    const LoadOutcome r =
        LoadDecodeReplay(path, name + " flips seed " + std::to_string(seed) + "#" +
                                   std::to_string(i));
    if (original.summary.truncated == 0 && m.events != original.events) {
      EXPECT_FALSE(r.heap_ok) << name << " corrupt complete trace loaded";
    }
    loaded += r.heap_ok ? 1 : 0;
  }

  // Truncated files: the footer is gone, so every cut must be rejected.
  EXPECT_TRUE(SaveTrace(original, path, &error)) << error;
  const std::vector<uint8_t> image = ReadFile(path);
  for (int i = 0; i < 12; ++i) {
    const size_t cut = i == 0 ? 0 : rng() % image.size();
    WriteFile(path, std::vector<uint8_t>(image.begin(), image.begin() + cut));
    const LoadOutcome r = LoadDecodeReplay(path, name + " cut at " + std::to_string(cut));
    EXPECT_FALSE(r.heap_ok) << name << " truncated file loaded (cut " << cut << ")";
  }
  std::remove(path.c_str());
  return loaded;
}

TEST(TraceMutation, CompleteTraceFailsClosed) {
  const Trace trace = RecordTrace("kmeans", 0);
  ASSERT_EQ(trace.summary.truncated, 0u);
  EXPECT_EQ(MutateSavedTrace(trace, "kmeans", 1), 0);
}

TEST(TraceMutation, PrefixTracesDecodeAndReplayBounded) {
  Trace golden;
  std::string error;
  ASSERT_TRUE(LoadTrace(GoldenPath(), &golden, &error)) << error;
  int loaded = MutateSavedTrace(golden, "golden", 2);
  for (const char* workload : {"histogram", "kmeans"}) {
    const Trace prefix = RecordTrace(workload, 4096);
    ASSERT_EQ(prefix.summary.truncated, 1u) << workload;
    loaded += MutateSavedTrace(prefix, std::string(workload) + "_prefix", 3);
  }
  // Prefix traces carry no hash of the retained bytes, so flipped ones load:
  // the decode-and-replay arm above must actually have run.
  EXPECT_GT(loaded, 0);
}

}  // namespace
}  // namespace sgxb
