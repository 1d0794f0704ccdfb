// TraceReader: sequential decoder for the event stream in trace_format.h.
//
// The reader mirrors the encoder's delta context (current cpu, last address,
// last page, open parallel regions) so the same compact bytes decode to the
// same absolute events. Used by the replay engine, the diff tool and the
// golden-trace tests; there is exactly one decoder implementation so encoder
// and consumers cannot drift apart.

#ifndef SGXBOUNDS_SRC_TRACE_TRACE_READER_H_
#define SGXBOUNDS_SRC_TRACE_TRACE_READER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/trace/trace_format.h"

namespace sgxb {

// One phase of a kLoopRun event: a single access (count 1) or an embedded
// constant-stride run, whose base address advances by iter_delta every loop
// iteration.
struct LoopPhase {
  uint8_t klass = 0;
  uint32_t size = 0;
  uint32_t addr = 0;       // iteration-0 address
  int64_t iter_delta = 0;  // per-iteration address step
  int64_t stride = 0;      // intra-run stride
  uint64_t count = 1;      // intra-run access count

  bool operator==(const LoopPhase& other) const {
    return klass == other.klass && size == other.size && addr == other.addr &&
           iter_delta == other.iter_delta && stride == other.stride &&
           count == other.count;
  }
};

// One decoded event, with absolute operands. The scalar operands are reset
// for every event; `delta` is defined only for kCpuDelta and
// `phases[0, period)` only for kLoopRun. A TraceEvent reused across Next()
// calls may hold stale payload bytes for other kinds, which operator== and
// FormatTraceEvent never read.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kControl;
  uint8_t sub = 0;     // ParallelSub / MarkerSub / ControlSub
  uint8_t klass = 0;   // AccessClass for (run) accesses
  uint32_t cpu = 0;    // cpu the event applies to (post-switch semantics)
  uint32_t addr = 0;   // accesses, runs, alloc/free markers
  uint32_t size = 0;   // access size / alloc size
  int64_t stride = 0;  // kAccessRun
  uint64_t count = 0;  // kAccessRun / kCommit / kDecommit runs / kLoopRun iters
  uint32_t page = 0;   // kCommit / kDecommit first page
  uint64_t value = 0;  // nthreads (begin) / spawn cycles (end) / epoch id
  CpuDelta delta;      // kCpuDelta only
  uint32_t period = 0;               // kLoopRun phase count
  LoopPhase phases[kMaxLoopPeriod];  // kLoopRun only: phases [0, period)

  bool operator==(const TraceEvent& other) const;
};

// Human-readable one-line rendering (diff/info output).
std::string FormatTraceEvent(const TraceEvent& ev);

class TraceReader {
 public:
  explicit TraceReader(const Trace& trace)
      : p_(trace.events.data()),
        begin_(trace.events.data()),
        end_(trace.events.data() + trace.events.size()) {}
  TraceReader(const uint8_t* begin, const uint8_t* end)
      : p_(begin), begin_(begin), end_(end) {}

  // Decodes the next event into *ev. Returns false at end-of-stream (after
  // the kControl/kEnd event or when the buffer is exhausted, e.g. for
  // truncated prefix traces).
  bool Next(TraceEvent* ev);

  // Events decoded so far.
  uint64_t position() const { return position_; }
  // Encoded bytes consumed so far (per-kind size attribution in trace_tool
  // info and decode accounting in DecodedTrace).
  size_t byte_offset() const { return static_cast<size_t>(p_ - begin_); }
  // True once the explicit end-of-stream event has been consumed.
  bool saw_end() const { return saw_end_; }

 private:
  const uint8_t* p_;
  const uint8_t* begin_;
  const uint8_t* end_;
  uint64_t position_ = 0;
  bool saw_end_ = false;

  // Decoder context, mirroring the encoder.
  uint32_t current_cpu_ = 0;
  uint32_t last_addr_ = 0;
  uint32_t last_page_ = 0;
  std::vector<uint32_t> parallel_callers_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_TRACE_TRACE_READER_H_
