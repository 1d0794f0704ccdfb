// Process-wide selection of the IR execution engine (see src/ir/exec/).
//
// Lives in src/common (not src/ir) so the policy/run layer can plumb an
// engine choice through PolicyOptions without depending on the IR library:
// the enum is plain data, and the flag default is a process-global that the
// bench driver sets from --ir_engine.
//
//   kReference  the original per-instruction switch interpreter - the
//               differential oracle (tests compare against it);
//   kThreaded   the pre-decoded micro-op engine with direct-threaded
//               dispatch - same simulated results, faster host execution;
//   kDefault    "whatever the process default is" (kThreaded unless
//               --ir_engine was passed).

#ifndef SGXBOUNDS_SRC_COMMON_IR_ENGINE_H_
#define SGXBOUNDS_SRC_COMMON_IR_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace sgxb {

class FlagParser;

enum class IrEngine : uint8_t { kDefault = 0, kReference, kThreaded };

// The process default used wherever kDefault is requested. Initially
// kThreaded; mutated (once, at flag-parse time) by --ir_engine.
IrEngine& DefaultIrEngine();

// Maps kDefault to the process default; identity otherwise.
inline IrEngine ResolveIrEngine(IrEngine engine) {
  return engine == IrEngine::kDefault ? DefaultIrEngine() : engine;
}

// The engines' spellings live in one table (ir_engine.cc) that the four
// functions below read, so --ir_engine's choice list is what it accepts.

// Parses a selectable engine's name; returns false on anything else.
bool ParseIrEngine(const std::string& text, IrEngine* out);

const char* IrEngineName(IrEngine engine);

// Every selectable engine's name, in table order.
std::vector<std::string> IrEngineNames();

// Registers --ir_engine, which sets DefaultIrEngine().
void AddIrEngineFlag(FlagParser& parser);

// Process-wide decode cache statistics, aggregated across every Interpreter
// instance (each holds its own cache, but --selftime wants one per-run
// summary). Atomics: bench drivers run jobs host-parallel.
struct IrExecStats {
  std::atomic<uint64_t> decode_hits{0};
  std::atomic<uint64_t> decode_misses{0};
};

IrExecStats& GlobalIrExecStats();

// Plain-value snapshot for printing.
struct IrExecStatsSnapshot {
  uint64_t decode_hits = 0;
  uint64_t decode_misses = 0;
};

inline IrExecStatsSnapshot SnapshotIrExecStats() {
  IrExecStats& s = GlobalIrExecStats();
  IrExecStatsSnapshot out;
  out.decode_hits = s.decode_hits.load(std::memory_order_relaxed);
  out.decode_misses = s.decode_misses.load(std::memory_order_relaxed);
  return out;
}

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_COMMON_IR_ENGINE_H_
