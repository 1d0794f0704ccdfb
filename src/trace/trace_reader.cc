#include "src/trace/trace_reader.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/common/units.h"

namespace sgxb {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kAccess: return "access";
    case TraceEventKind::kAccessRun: return "access-run";
    case TraceEventKind::kCpuDelta: return "cpu-delta";
    case TraceEventKind::kCommit: return "commit";
    case TraceEventKind::kDecommit: return "decommit";
    case TraceEventKind::kParallel: return "parallel";
    case TraceEventKind::kMarker: return "marker";
    case TraceEventKind::kControl: return "control";
  }
  return "?";
}

bool TraceEvent::operator==(const TraceEvent& other) const {
  if (kind != other.kind || sub != other.sub || klass != other.klass ||
      cpu != other.cpu || addr != other.addr || size != other.size ||
      stride != other.stride || count != other.count || page != other.page ||
      value != other.value || period != other.period) {
    return false;
  }
  // Payloads compare only for the kind that defines them (see
  // TraceReader::Next): other kinds may carry stale bytes there.
  if (kind == TraceEventKind::kCpuDelta) {
    return delta.alu == other.delta.alu && delta.branches == other.delta.branches &&
           delta.fp == other.delta.fp && delta.calls == other.delta.calls &&
           delta.syscalls == other.delta.syscalls &&
           delta.bounds_checks == other.delta.bounds_checks &&
           delta.bounds_violations == other.delta.bounds_violations &&
           delta.raw_cycles == other.delta.raw_cycles;
  }
  if (kind == TraceEventKind::kControl &&
      static_cast<ControlSub>(sub) == ControlSub::kLoopRun) {
    for (uint32_t j = 0; j < period && j < kMaxLoopPeriod; ++j) {
      if (!(phases[j] == other.phases[j])) {
        return false;
      }
    }
  }
  return true;
}

std::string FormatTraceEvent(const TraceEvent& ev) {
  static const char* kClassNames[4] = {"app-load", "app-store", "meta-load",
                                       "meta-store"};
  char buf[256];
  switch (ev.kind) {
    case TraceEventKind::kAccess:
      std::snprintf(buf, sizeof buf, "access cpu=%u %s addr=0x%08x size=%u", ev.cpu,
                    kClassNames[ev.klass & 3], ev.addr, ev.size);
      break;
    case TraceEventKind::kAccessRun:
      std::snprintf(buf, sizeof buf,
                    "access-run cpu=%u %s addr=0x%08x size=%u stride=%" PRId64
                    " count=%" PRIu64,
                    ev.cpu, kClassNames[ev.klass & 3], ev.addr, ev.size, ev.stride,
                    ev.count);
      break;
    case TraceEventKind::kCpuDelta:
      std::snprintf(buf, sizeof buf,
                    "cpu-delta cpu=%u alu=%" PRIu64 " br=%" PRIu64 " fp=%" PRIu64
                    " call=%" PRIu64 " sys=%" PRIu64 " bc=%" PRIu64 " bv=%" PRIu64
                    " raw=%" PRIu64,
                    ev.cpu, ev.delta.alu, ev.delta.branches, ev.delta.fp, ev.delta.calls,
                    ev.delta.syscalls, ev.delta.bounds_checks, ev.delta.bounds_violations,
                    ev.delta.raw_cycles);
      break;
    case TraceEventKind::kCommit:
      std::snprintf(buf, sizeof buf, "commit cpu=%u page=%u count=%" PRIu64, ev.cpu,
                    ev.page, ev.count);
      break;
    case TraceEventKind::kDecommit:
      std::snprintf(buf, sizeof buf, "decommit page=%u count=%" PRIu64, ev.page,
                    ev.count);
      break;
    case TraceEventKind::kParallel:
      switch (static_cast<ParallelSub>(ev.sub)) {
        case ParallelSub::kBegin:
          std::snprintf(buf, sizeof buf, "parallel-begin caller=%u nthreads=%" PRIu64,
                        ev.cpu, ev.value);
          break;
        case ParallelSub::kWorkerBegin:
          std::snprintf(buf, sizeof buf, "worker-begin cpu=%u", ev.cpu);
          break;
        case ParallelSub::kWorkerEnd:
          std::snprintf(buf, sizeof buf, "worker-end cpu=%u", ev.cpu);
          break;
        case ParallelSub::kEnd:
          std::snprintf(buf, sizeof buf,
                        "parallel-end caller=%u spawn_cycles=%" PRIu64, ev.cpu, ev.value);
          break;
      }
      break;
    case TraceEventKind::kMarker:
      switch (static_cast<MarkerSub>(ev.sub)) {
        case MarkerSub::kAlloc:
          std::snprintf(buf, sizeof buf, "alloc cpu=%u addr=0x%08x size=%u", ev.cpu,
                        ev.addr, ev.size);
          break;
        case MarkerSub::kFree:
          std::snprintf(buf, sizeof buf, "free cpu=%u addr=0x%08x", ev.cpu, ev.addr);
          break;
        case MarkerSub::kEpoch:
          std::snprintf(buf, sizeof buf, "epoch cpu=%u id=%" PRIu64, ev.cpu, ev.value);
          break;
      }
      break;
    case TraceEventKind::kControl:
      switch (static_cast<ControlSub>(ev.sub)) {
        case ControlSub::kEnd:
          std::snprintf(buf, sizeof buf, "end");
          break;
        case ControlSub::kSwitchCpu:
          std::snprintf(buf, sizeof buf, "switch-cpu cpu=%u", ev.cpu);
          break;
        case ControlSub::kLoopRun: {
          std::string out;
          std::snprintf(buf, sizeof buf, "loop-run cpu=%u period=%u iters=%" PRIu64,
                        ev.cpu, ev.period, ev.count);
          out = buf;
          for (uint32_t j = 0; j < ev.period && j < kMaxLoopPeriod; ++j) {
            const LoopPhase& ph = ev.phases[j];
            std::snprintf(buf, sizeof buf,
                          " [%s addr=0x%08x size=%u step=%" PRId64 " stride=%" PRId64
                          " count=%" PRIu64 "]",
                          kClassNames[ph.klass & 3], ph.addr, ph.size, ph.iter_delta,
                          ph.stride, ph.count);
            out += buf;
          }
          return out;
        }
        case ControlSub::kEcall:
          std::snprintf(buf, sizeof buf, "ecall cpu=%u count=%" PRIu64, ev.cpu, ev.count);
          break;
        default:
          std::snprintf(buf, sizeof buf, "control sub=%u", ev.sub);
          break;
      }
      break;
  }
  return buf;
}

namespace {

constexpr uint64_t kAddressSpace = uint64_t{1} << 32;
constexpr uint64_t kPageSpace = kAddressSpace >> kPageShift;

// Delta-decodes a 32-bit operand: wraps exactly like the encoder's int64
// difference truncated to 32 bits, without signed overflow on corrupt deltas.
uint32_t AddDelta(uint32_t base, int64_t delta) {
  return base + static_cast<uint32_t>(delta);
}

// Sets *span = step * (count - 1) unless a progression of `count` accesses
// `step` bytes apart cannot fit in the 32-bit address space at all. The
// bound keeps every product below 2^64 and every span below 2^32.
bool ProgressionSpan(int64_t step, uint64_t count, int64_t* span) {
  const uint64_t mag = step < 0 ? 0 - static_cast<uint64_t>(step) : static_cast<uint64_t>(step);
  const uint64_t n = count - 1;
  if (count == 0 ||
      (mag != 0 && (n >= kAddressSpace || mag >= kAddressSpace || mag * n >= kAddressSpace))) {
    return false;
  }
  *span = step * static_cast<int64_t>(n);
  return true;
}

// True when every access of `size` bytes at base + i * step_a + k * step_b
// (i < count_a, k < count_b) lies inside the 32-bit address space, as every
// recorded access does. This also keeps every later address computation
// (reader context, replay, MemAccessRun) far from int64 overflow.
bool FitsAddressSpace(int64_t base, uint32_t size, int64_t step_a, uint64_t count_a,
                      int64_t step_b = 0, uint64_t count_b = 1) {
  int64_t span_a = 0;
  int64_t span_b = 0;
  if (!ProgressionSpan(step_a, count_a, &span_a) ||
      !ProgressionSpan(step_b, count_b, &span_b)) {
    return false;
  }
  const int64_t lo = base + std::min<int64_t>(span_a, 0) + std::min<int64_t>(span_b, 0);
  const int64_t hi = base + std::max<int64_t>(span_a, 0) + std::max<int64_t>(span_b, 0);
  return lo >= 0 && static_cast<uint64_t>(hi) + size <= kAddressSpace;
}

}  // namespace

// Operands the recorder can never produce end the stream as corrupt, exactly
// like a truncation: cpu ids beyond the events decoded so far (every cpu but
// the main one is introduced by its own worker-begin event), page ranges
// beyond the 32-bit page space, and accesses, runs and loops that leave the
// 32-bit address space. This bounds what a damaged file can make a replay
// allocate or compute.
bool TraceReader::Next(TraceEvent* ev) {
  if (saw_end_ || p_ >= end_) {
    return false;
  }
  const uint8_t b0 = *p_++;
  const TraceEventKind kind = static_cast<TraceEventKind>(b0 & 7u);
  // Reset only the scalar operands every kind shares. The bulky payloads
  // (delta: 64 bytes, phases: 320 bytes) are written by the one kind that
  // defines them and read only for that kind, so a reused TraceEvent never
  // exposes a stale payload.
  ev->kind = kind;
  ev->sub = 0;
  ev->klass = 0;
  ev->cpu = current_cpu_;
  ev->addr = 0;
  ev->size = 0;
  ev->stride = 0;
  ev->count = 0;
  ev->page = 0;
  ev->value = 0;
  ev->period = 0;
  switch (kind) {
    case TraceEventKind::kAccess:
    case TraceEventKind::kAccessRun: {
      ev->klass = (b0 >> 3) & 3u;
      const uint8_t tag = b0 >> 5;
      ev->addr = AddDelta(last_addr_, UnZigZag(GetVarint(&p_, end_)));
      if (kind == TraceEventKind::kAccessRun) {
        ev->stride = UnZigZag(GetVarint(&p_, end_));
        ev->count = GetVarint(&p_, end_);
      } else {
        ev->count = 1;
      }
      ev->size = tag == 0 ? static_cast<uint32_t>(GetVarint(&p_, end_)) : SizeOfTag(tag);
      if (!FitsAddressSpace(ev->addr, ev->size, ev->stride, ev->count)) {
        return false;
      }
      last_addr_ = static_cast<uint32_t>(
          static_cast<int64_t>(ev->addr) +
          ev->stride * static_cast<int64_t>(ev->count - 1));
      break;
    }
    case TraceEventKind::kCpuDelta: {
      if (p_ >= end_) {
        return false;
      }
      const uint8_t mask = *p_++;
      ev->delta = CpuDelta{};
      uint64_t* fields[8] = {&ev->delta.alu,
                             &ev->delta.branches,
                             &ev->delta.fp,
                             &ev->delta.calls,
                             &ev->delta.syscalls,
                             &ev->delta.bounds_checks,
                             &ev->delta.bounds_violations,
                             &ev->delta.raw_cycles};
      for (int i = 0; i < 8; ++i) {
        if (mask & (1u << i)) {
          *fields[i] = GetVarint(&p_, end_);
        }
      }
      break;
    }
    case TraceEventKind::kCommit:
    case TraceEventKind::kDecommit: {
      ev->page = AddDelta(last_page_, UnZigZag(GetVarint(&p_, end_)));
      ev->count = GetVarint(&p_, end_);
      if (ev->page > kPageSpace || ev->count > kPageSpace - ev->page) {
        return false;
      }
      last_page_ = static_cast<uint32_t>(ev->page + ev->count - 1);
      break;
    }
    case TraceEventKind::kParallel: {
      ev->sub = (b0 >> 3) & 3u;
      switch (static_cast<ParallelSub>(ev->sub)) {
        case ParallelSub::kBegin:
          ev->value = GetVarint(&p_, end_);
          parallel_callers_.push_back(current_cpu_);
          break;
        case ParallelSub::kWorkerBegin: {
          const uint64_t cpu = GetVarint(&p_, end_);
          if (cpu > position_) {
            return false;
          }
          ev->cpu = static_cast<uint32_t>(cpu);
          current_cpu_ = ev->cpu;
          break;
        }
        case ParallelSub::kWorkerEnd:
          break;
        case ParallelSub::kEnd:
          ev->value = GetVarint(&p_, end_);
          if (!parallel_callers_.empty()) {
            current_cpu_ = parallel_callers_.back();
            parallel_callers_.pop_back();
          }
          ev->cpu = current_cpu_;
          break;
      }
      break;
    }
    case TraceEventKind::kMarker: {
      ev->sub = (b0 >> 3) & 3u;
      switch (static_cast<MarkerSub>(ev->sub)) {
        case MarkerSub::kAlloc:
          ev->addr = AddDelta(last_addr_, UnZigZag(GetVarint(&p_, end_)));
          ev->size = static_cast<uint32_t>(GetVarint(&p_, end_));
          last_addr_ = ev->addr;
          break;
        case MarkerSub::kFree:
          ev->addr = AddDelta(last_addr_, UnZigZag(GetVarint(&p_, end_)));
          last_addr_ = ev->addr;
          break;
        case MarkerSub::kEpoch:
          ev->value = GetVarint(&p_, end_);
          break;
      }
      break;
    }
    case TraceEventKind::kControl: {
      ev->sub = b0 >> 3;
      switch (static_cast<ControlSub>(ev->sub)) {
        case ControlSub::kEnd:
          saw_end_ = true;
          break;
        case ControlSub::kSwitchCpu: {
          const uint64_t cpu = GetVarint(&p_, end_);
          if (cpu > position_) {
            return false;
          }
          ev->cpu = static_cast<uint32_t>(cpu);
          current_cpu_ = ev->cpu;
          break;
        }
        case ControlSub::kLoopRun: {
          const uint64_t period = GetVarint(&p_, end_);
          ev->count = GetVarint(&p_, end_);  // iterations
          if (period == 0 || period > kMaxLoopPeriod || ev->count == 0) {
            return false;  // corrupt stream
          }
          ev->period = static_cast<uint32_t>(period);
          uint32_t prev = last_addr_;
          for (uint32_t j = 0; j < ev->period; ++j) {
            LoopPhase& ph = ev->phases[j];
            if (p_ >= end_) {
              return false;
            }
            const uint8_t pb = *p_++;
            ph.klass = pb & 3u;
            const uint8_t tag = (pb >> 2) & 7u;
            ph.addr = AddDelta(prev, UnZigZag(GetVarint(&p_, end_)));
            ph.iter_delta = UnZigZag(GetVarint(&p_, end_));
            if ((pb >> 5) & 1u) {
              ph.stride = UnZigZag(GetVarint(&p_, end_));
              ph.count = GetVarint(&p_, end_);
            } else {
              ph.stride = 0;
              ph.count = 1;
            }
            ph.size = tag == 0 ? static_cast<uint32_t>(GetVarint(&p_, end_))
                               : SizeOfTag(tag);
            if (!FitsAddressSpace(ph.addr, ph.size, ph.iter_delta, ev->count, ph.stride,
                                  ph.count)) {
              return false;
            }
            prev = ph.addr;
          }
          const LoopPhase& lastp = ev->phases[ev->period - 1];
          last_addr_ = static_cast<uint32_t>(
              static_cast<int64_t>(lastp.addr) +
              lastp.iter_delta * static_cast<int64_t>(ev->count - 1) +
              lastp.stride * static_cast<int64_t>(lastp.count - 1));
          break;
        }
        case ControlSub::kEcall:
          ev->count = GetVarint(&p_, end_);
          break;
      }
      break;
    }
  }
  ++position_;
  return true;
}

}  // namespace sgxb
