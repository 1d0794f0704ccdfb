// Golden-trace regression: a checked-in 2048-event prefix of the canonical
// recording (kmeans/XS under SGXBounds, seed 42) is re-recorded and compared
// event by event. Any change to the workload's access sequence, the
// instrumentation's memory behaviour, or the trace encoding fails this test
// LOUDLY, with a decoded event-level diff of the first divergences.
//
// If the change is intentional (new encoding, deliberate behaviour change),
// regenerate with (one command line):
//   trace_tool record --workload=kmeans --size=XS --policy=sgxbounds
//     --event_limit=2048 --out=tests/golden/kmeans_xs_sgxbounds.sgxtrace
// and say so in the commit message.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/trace/record.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_reader.h"

#ifndef SGXB_GOLDEN_TRACE_DIR
#error "build must define SGXB_GOLDEN_TRACE_DIR"
#endif

namespace sgxb {
namespace {

constexpr uint64_t kGoldenEventLimit = 2048;

Trace RecordCurrent() {
  const WorkloadInfo* info = WorkloadRegistry::Instance().Find("kmeans");
  EXPECT_NE(info, nullptr);
  TraceRecorder recorder("kmeans/XS");
  recorder.set_event_limit(kGoldenEventLimit);
  MachineSpec spec;  // defaults: enclave on, 94 MiB EPC, seed 42
  spec.trace = &recorder;
  WorkloadConfig cfg;
  cfg.size = SizeClass::kXS;
  cfg.threads = 1;
  info->run(PolicyKind::kSgxBounds, spec, PolicyOptions{}, cfg);
  return recorder.TakeTrace();
}

TEST(TraceGolden, MatchesCheckedInPrefix) {
  const std::string path =
      std::string(SGXB_GOLDEN_TRACE_DIR) + "/kmeans_xs_sgxbounds.sgxtrace";
  Trace golden;
  std::string error;
  ASSERT_TRUE(LoadTrace(path, &golden, &error))
      << error << " — if the golden trace is missing, regenerate it (see the "
      << "comment at the top of this test)";

  // A cost-table or machine-default change invalidates the golden by
  // construction; fail with that explanation rather than a raw byte diff.
  const Trace current = RecordCurrent();
  ASSERT_EQ(golden.header.cost_table_id, current.header.cost_table_id)
      << "cost table changed; regenerate tests/golden/kmeans_xs_sgxbounds.sgxtrace";
  ASSERT_EQ(golden.header.epc_bytes, current.header.epc_bytes)
      << "machine defaults changed; regenerate the golden trace";

  if (golden.summary.stream_hash == current.summary.stream_hash &&
      golden.summary.event_count == current.summary.event_count &&
      golden.events == current.events) {
    return;  // identical
  }

  // Decode both prefixes and report the first diverging events.
  TraceReader rg(golden), rc(current);
  TraceEvent eg, ec;
  int shown = 0;
  while (shown < 10) {
    const bool hg = rg.Next(&eg);
    const bool hc = rc.Next(&ec);
    if (!hg && !hc) {
      break;
    }
    if (!hg || !hc) {
      ADD_FAILURE() << "event #" << ((hg ? rc.position() : rg.position()) - 1)
                    << ": " << (hg ? "current" : "golden") << " stream ends; "
                    << (hg ? "golden" : "current")
                    << " continues with: " << FormatTraceEvent(hg ? eg : ec);
      break;
    }
    if (!(eg == ec)) {
      ADD_FAILURE() << "event #" << (rg.position() - 1) << " diverges\n"
                    << "  golden:  " << FormatTraceEvent(eg) << "\n"
                    << "  current: " << FormatTraceEvent(ec);
      ++shown;
    }
  }
  FAIL() << "recorded event stream diverged from tests/golden/"
         << "kmeans_xs_sgxbounds.sgxtrace (golden: " << golden.summary.event_count
         << " events, hash " << std::hex << golden.summary.stream_hash
         << "; current: " << std::dec << current.summary.event_count
         << " events, hash " << std::hex << current.summary.stream_hash
         << ") — an intentional encoding/behaviour change requires regenerating "
         << "the golden trace (see the comment at the top of this test)";
}

// The trace encodes cycle-stamped memory events, so it is the sharpest
// engine-equivalence check available: the threaded engine batches pure
// compute charges between observable points, and any slip in that accounting
// shifts a stamp. Record an interpreter-driven workload under both engines
// and require byte-identical streams.
Trace RecordIrWorkload(IrEngine engine) {
  const WorkloadInfo* info = WorkloadRegistry::Instance().Find("ir_mix");
  EXPECT_NE(info, nullptr);
  TraceRecorder recorder("ir_mix/XS");
  recorder.set_event_limit(kGoldenEventLimit);
  MachineSpec spec;
  spec.trace = &recorder;
  WorkloadConfig cfg;
  cfg.size = SizeClass::kXS;
  cfg.threads = 1;
  PolicyOptions options;
  options.ir_engine = engine;
  info->run(PolicyKind::kSgxBounds, spec, options, cfg);
  return recorder.TakeTrace();
}

TEST(TraceGolden, IrWorkloadTraceIsEngineInvariant) {
  const Trace ref = RecordIrWorkload(IrEngine::kReference);
  const Trace threaded = RecordIrWorkload(IrEngine::kThreaded);
  EXPECT_EQ(ref.summary.event_count, threaded.summary.event_count);
  EXPECT_EQ(ref.summary.stream_hash, threaded.summary.stream_hash);
  EXPECT_TRUE(ref.events == threaded.events)
      << "threaded engine shifted the cycle-stamped event stream";
}

}  // namespace
}  // namespace sgxb
