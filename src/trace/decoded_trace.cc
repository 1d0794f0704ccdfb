#include "src/trace/decoded_trace.h"

#include <algorithm>

namespace sgxb {

DecodedTrace::DecodedTrace(const Trace& trace)
    : DecodedTrace(trace.header, trace.summary, trace.events.data(),
                   trace.events.data() + trace.events.size()) {}

DecodedTrace::DecodedTrace(const TraceHeader& header, const TraceSummary& summary,
                           const uint8_t* begin, const uint8_t* end)
    : header_(header), summary_(summary) {
  Decode(begin, end);
}

void DecodedTrace::Decode(const uint8_t* begin, const uint8_t* end) {
  encoded_bytes_ = static_cast<size_t>(end - begin);
  stream_hash_ = summary_.truncated == 0 ? summary_.stream_hash
                                         : FnvUpdate(kFnvOffset, begin, encoded_bytes_);
  // Size both bulky arrays once, so decode writes each output page exactly
  // once and never regrows or copies them. Every event takes at least one
  // encoded byte, so the summary's event count is clamped to the byte count:
  // the stream hash does not cover it and a corrupt file must not drive an
  // oversized reservation. Every loop phase takes at least three bytes
  // (shape, addr delta, step), plus a final phase the stream may cut short.
  events_.reserve(std::min<uint64_t>(summary_.event_count, encoded_bytes_));
  phases_.reserve(encoded_bytes_ / 3 + kMaxLoopPeriod);

  TraceReader reader(begin, end);
  TraceEvent ev;
  while (reader.Next(&ev)) {
    DecodedEvent d;
    d.kind = ev.kind;
    d.sub = ev.sub;
    d.klass = ev.klass;
    d.cpu = ev.cpu;
    d.addr = ev.addr;
    d.size = ev.size;
    d.page = ev.page;
    d.stride = ev.stride;
    d.count = ev.count;
    d.value = ev.value;
    if (ev.kind == TraceEventKind::kCpuDelta) {
      d.aux = static_cast<uint32_t>(deltas_.size());
      deltas_.push_back(ev.delta);
    } else if (ev.kind == TraceEventKind::kControl &&
               static_cast<ControlSub>(ev.sub) == ControlSub::kLoopRun) {
      d.period = static_cast<uint8_t>(ev.period);
      d.aux = static_cast<uint32_t>(phases_.size());
      phases_.insert(phases_.end(), ev.phases, ev.phases + ev.period);
    }
    events_.push_back(d);
  }
}

}  // namespace sgxb
