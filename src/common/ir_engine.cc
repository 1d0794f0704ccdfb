#include "src/common/ir_engine.h"

#include "src/common/flags.h"

namespace sgxb {

namespace {

struct IrEngineSpelling {
  IrEngine engine;
  const char* name;
};

constexpr IrEngineSpelling kIrEngineSpellings[] = {
    {IrEngine::kReference, "reference"},
    {IrEngine::kThreaded, "threaded"},
};

}  // namespace

IrEngine& DefaultIrEngine() {
  static IrEngine engine = IrEngine::kThreaded;
  return engine;
}

bool ParseIrEngine(const std::string& text, IrEngine* out) {
  for (const IrEngineSpelling& s : kIrEngineSpellings) {
    if (text == s.name) {
      *out = s.engine;
      return true;
    }
  }
  return false;
}

const char* IrEngineName(IrEngine engine) {
  if (engine == IrEngine::kDefault) {
    return "default";
  }
  for (const IrEngineSpelling& s : kIrEngineSpellings) {
    if (s.engine == engine) {
      return s.name;
    }
  }
  return "?";
}

std::vector<std::string> IrEngineNames() {
  std::vector<std::string> names;
  for (const IrEngineSpelling& s : kIrEngineSpellings) {
    names.emplace_back(s.name);
  }
  return names;
}

void AddIrEngineFlag(FlagParser& parser) {
  parser.AddCallback(
      "ir_engine",
      [](const std::string& value) { return ParseIrEngine(value, &DefaultIrEngine()); },
      "IR execution engine for interpreter-driven workloads",
      IrEngineName(DefaultIrEngine()), IrEngineNames());
}

IrExecStats& GlobalIrExecStats() {
  static IrExecStats stats;
  return stats;
}

}  // namespace sgxb
