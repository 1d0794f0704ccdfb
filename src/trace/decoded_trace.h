// DecodedTrace: the event stream decoded and delta-expanded exactly once.
//
// TraceReader decodes the compact byte stream sequentially, carrying a
// mutable delta context (current cpu, last address, open parallel regions).
// That makes a raw Trace cheap to store but expensive to replay repeatedly:
// each replay from the raw bytes re-pays the varint/zigzag decode. A
// DecodedTrace front-loads that cost — one pass through TraceReader materializes a flat,
// absolute-operand event array plus side tables for the two bulky payloads
// (compute deltas, loop-run phases) — and is immutable afterwards, so any
// number of replays, on any number of host threads, can iterate it
// concurrently without re-parsing or synchronization. This is the shared
// substrate of the parallel sweep engine (src/trace/sweep.h).
//
// Every replay path goes through a DecodedTrace built by the one TraceReader
// implementation; ReplayTrace(t, cfg) is ReplayDecoded(DecodedTrace(t), cfg).
//
// Sizing: the decode is one pass that writes each output page exactly once.
// The event array is reserved at min(summary event count, encoded bytes),
// since every event takes at least one byte and the summary count is not
// covered by the stream hash; the phase table at encoded_bytes / 3 +
// kMaxLoopPeriod, since every loop phase takes at least three bytes. For any
// file the recorder writes both are upper bounds, so neither array regrows,
// and neither is shrunk afterwards.
// The compute-delta table (one entry per counter flush, a handful per trace
// in practice) grows normally.

#ifndef SGXBOUNDS_SRC_TRACE_DECODED_TRACE_H_
#define SGXBOUNDS_SRC_TRACE_DECODED_TRACE_H_

#include <cstdint>
#include <vector>

#include "src/trace/trace_format.h"
#include "src/trace/trace_reader.h"

namespace sgxb {

// One decoded event, compacted to 48 bytes: the two payloads that would
// bloat every event (CpuDelta: 64 bytes, LoopPhase[8]: 320 bytes) live in
// side tables indexed by `aux`, so a multi-million-event trace decodes to a
// few tens of MB instead of hundreds.
struct DecodedEvent {
  TraceEventKind kind = TraceEventKind::kControl;
  uint8_t sub = 0;     // ParallelSub / MarkerSub / ControlSub
  uint8_t klass = 0;   // AccessClass for (run) accesses
  uint8_t period = 0;  // kLoopRun phase count
  uint32_t cpu = 0;    // post-switch semantics, as TraceEvent
  uint32_t addr = 0;
  uint32_t size = 0;
  uint32_t page = 0;
  uint32_t aux = 0;    // kCpuDelta: index into deltas(); kLoopRun: first phase
  int64_t stride = 0;
  uint64_t count = 0;
  uint64_t value = 0;
};

class DecodedTrace {
 public:
  DecodedTrace() = default;

  // Decodes the full retained stream. Truncated prefix traces decode as far
  // as the bytes go, exactly like a streaming reader would.
  explicit DecodedTrace(const Trace& trace);

  // Zero-copy variant: decodes `[begin, end)` (e.g. a MappedTrace's event
  // view) without an intermediate Trace. The bytes are only read during
  // construction; the mapping may be released afterwards.
  DecodedTrace(const TraceHeader& header, const TraceSummary& summary,
               const uint8_t* begin, const uint8_t* end);

  const TraceHeader& header() const { return header_; }
  const TraceSummary& summary() const { return summary_; }
  const std::vector<DecodedEvent>& events() const { return events_; }
  const CpuDelta& delta(uint32_t aux) const { return deltas_[aux]; }
  const LoopPhase* phases(uint32_t aux) const { return &phases_[aux]; }

  // FNV-1a of the encoded stream this was decoded from: the trace half of
  // the sweep engine's duplicate key. For complete traces this equals
  // summary().stream_hash; truncated prefixes hash the retained bytes.
  uint64_t stream_hash() const { return stream_hash_; }
  uint64_t event_count() const { return events_.size(); }
  size_t encoded_bytes() const { return encoded_bytes_; }

 private:
  void Decode(const uint8_t* begin, const uint8_t* end);

  TraceHeader header_;
  TraceSummary summary_;
  std::vector<DecodedEvent> events_;
  std::vector<CpuDelta> deltas_;
  std::vector<LoopPhase> phases_;
  uint64_t stream_hash_ = 0;
  size_t encoded_bytes_ = 0;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_TRACE_DECODED_TRACE_H_
