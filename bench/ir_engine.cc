// IR engine comparison: runs every "ir" suite workload under all policies
// with both execution engines (reference switch interpreter, pre-decoded
// direct-threaded), verifies the simulated results are bit-identical, and
// reports the host-side speedup.
//
// Simulated output (stdout) depends only on the simulation, never on the
// engine: the table prints cycles/memory from runs that were cross-checked
// between engines and aborts on any divergence. Host wall-clock lives on
// stderr (--selftime) and in BENCH_ir_engine.json (--json) - that file is
// the committed evidence for the threaded engine's speedup, including a
// "summary" block with per-(workload, policy) speedup_vs_reference and
// geomeans.

#include <cmath>
#include <iterator>

#include "bench/bench_util.h"

namespace sgxb {
namespace {

// Host milliseconds for `label` from the recorded rows (-1 if absent).
double HostMsFor(const std::string& label) {
  BenchJsonState& s = JsonState();
  std::lock_guard<std::mutex> lock(s.mu);
  for (const BenchJsonRow& row : s.rows) {
    if (row.label == label) {
      return row.host_ms;
    }
  }
  return -1.0;
}

// Job label of one (workload, policy, engine) run: `base`, plus "#rep" when
// the run is repeated.
std::string JobLabel(const std::string& base, int64_t rep, int64_t repeats) {
  std::string label = base;
  if (repeats > 1) {
    label += '#';
    label += std::to_string(rep);
  }
  return label;
}

bool SameSimulation(const RunResult& a, const RunResult& b) {
  return a.cycles == b.cycles && a.peak_vm_bytes == b.peak_vm_bytes &&
         a.crashed == b.crashed && a.trap_message == b.trap_message &&
         a.mpx_bt_count == b.mpx_bt_count && a.counters == b.counters;
}

// Geomean of strictly-positive ratios (0 if none).
double Geomean(const std::vector<double>& xs) {
  if (xs.empty()) {
    return 0.0;
  }
  double log_sum = 0.0;
  for (double x : xs) {
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

}  // namespace
}  // namespace sgxb

int main(int argc, char** argv) {
  using namespace sgxb;
  FlagParser parser;
  std::string size = "M";
  int64_t repeats = 1;
  parser.AddChoice("size", &size, SizeClassChoices(), "input size class");
  parser.AddInt("repeats", &repeats, "timed repetitions per (workload, policy, engine)");
  AddPoliciesFlag(parser);
  AddBenchDriverFlags(parser);
  parser.Parse(argc, argv);
  const std::vector<PolicyKind> policies = ResolvePolicies();

  MachineSpec spec;
  PrintReproHeader("ir_engine", spec);
  std::printf("IR execution engines: reference (switch) vs threaded (pre-decoded)\n");
  std::printf("simulated results are checked bit-identical between engines\n\n");

  WorkloadConfig cfg;
  cfg.size = ParseSizeClass(size);
  cfg.threads = 1;

  const std::vector<const WorkloadInfo*> workloads =
      WorkloadRegistry::Instance().BySuite("ir");
  const IrEngine engines[] = {IrEngine::kReference, IrEngine::kThreaded};
  constexpr size_t kNumEngines = std::size(engines);

  // One job per (workload, policy, engine, repeat); repeats > 1 sharpen the
  // host-time measurement without touching simulated results.
  std::vector<BenchJob> jobs;
  for (const WorkloadInfo* w : workloads) {
    for (PolicyKind kind : policies) {
      for (const IrEngine engine : engines) {
        for (int64_t rep = 0; rep < repeats; ++rep) {
          PolicyOptions options;
          options.ir_engine = engine;
          const std::string base =
              w->name + "/" + PolicyName(kind) + "/" + IrEngineName(engine);
          jobs.push_back(
              {JobLabel(base, rep, repeats), [w, kind, spec, options, cfg] {
                 return w->run(kind, spec, options, cfg);
               }});
        }
      }
    }
  }
  const std::vector<RunResult> results = RunBenchJobs(jobs, "ir_engine");

  // Cross-check engines and print the simulated table.
  Table table({"workload", "policy", "cycles", "vs native", "peak vm", "engines agree"});
  bool all_match = true;
  size_t j = 0;
  const size_t per_engine = static_cast<size_t>(repeats);
  for (const WorkloadInfo* w : workloads) {
    uint64_t native_cycles = 0;
    for (PolicyKind kind : policies) {
      const RunResult& ref = results[j];
      const RunResult& thr = results[j + per_engine];
      bool match = true;
      for (size_t rep = 0; rep < kNumEngines * per_engine; ++rep) {
        match = match && SameSimulation(ref, results[j + rep]);
      }
      all_match = all_match && match;
      if (kind == PolicyKind::kNative) {
        native_cycles = thr.cycles;
      }
      table.AddRow({w->name, PolicyName(kind), std::to_string(thr.cycles),
                    FormatRatio(native_cycles == 0
                                    ? 0.0
                                    : static_cast<double>(thr.cycles) / native_cycles),
                    FormatBytes(thr.peak_vm_bytes), match ? "yes" : "NO"});
      j += kNumEngines * per_engine;
    }
  }
  table.Print();

  if (!all_match) {
    std::printf("\nENGINE MISMATCH: simulated results differ between engines\n");
    return 1;
  }
  std::printf("\nall %zu (workload, policy) pairs bit-identical across both engines\n",
              workloads.size() * policies.size());

  // Host-side speedups, from the same timed rows --json writes. Stderr only:
  // stdout must not depend on host speed. For each (workload, policy, engine)
  // the best (minimum) repeat is the measurement - least scheduler noise.
  struct PairTiming {
    std::string workload;
    std::string policy;
    double ms[kNumEngines] = {-1, -1};
  };
  std::vector<PairTiming> pairs;
  for (const WorkloadInfo* w : workloads) {
    for (PolicyKind kind : policies) {
      PairTiming pt;
      pt.workload = w->name;
      pt.policy = PolicyName(kind);
      for (size_t e = 0; e < kNumEngines; ++e) {
        const std::string base = w->name + "/" + std::string(PolicyName(kind)) +
                                 "/" + IrEngineName(engines[e]);
        double best = -1;
        for (int64_t rep = 0; rep < repeats; ++rep) {
          const double ms = HostMsFor(JobLabel(base, rep, repeats));
          if (ms >= 0 && (best < 0 || ms < best)) {
            best = ms;
          }
        }
        pt.ms[e] = best;
      }
      pairs.push_back(std::move(pt));
    }
  }

  // Summary block: per-pair host times + speedups, per-workload geomeans,
  // and the overall geomean - the committed evidence for the threaded tier.
  std::vector<double> thr_speedups;  // reference / threaded
  std::string json =
      "{\n    \"engines\": [\"reference\", \"threaded\"],\n    \"pairs\": [";
  bool first = true;
  for (const PairTiming& pt : pairs) {
    const double r = pt.ms[0];
    const double t = pt.ms[1];
    if (r <= 0 || t <= 0) {
      continue;
    }
    thr_speedups.push_back(r / t);
    json += first ? "\n" : ",\n";
    first = false;
    json += "      {\"workload\": \"" + JsonEscape(pt.workload) +
            "\", \"policy\": \"" + JsonEscape(pt.policy) +
            "\", \"host_ms\": {\"reference\": " + FormatDouble(r) +
            ", \"threaded\": " + FormatDouble(t) +
            "}, \"speedup_vs_reference\": {\"threaded\": " + FormatDouble(r / t) + "}}";
  }
  json += "\n    ],\n    \"per_workload_geomean\": [";
  first = true;
  for (const WorkloadInfo* w : workloads) {
    std::vector<double> wt;
    for (const PairTiming& pt : pairs) {
      if (pt.workload == w->name && pt.ms[0] > 0 && pt.ms[1] > 0) {
        wt.push_back(pt.ms[0] / pt.ms[1]);
      }
    }
    if (wt.empty()) {
      continue;
    }
    json += first ? "\n" : ",\n";
    first = false;
    json += "      {\"workload\": \"" + JsonEscape(w->name) +
            "\", \"speedup_vs_reference\": {\"threaded\": " + FormatDouble(Geomean(wt)) +
            "}}";
  }
  json += "\n    ],\n    \"geomean\": {\"speedup_vs_reference\": {\"threaded\": " +
          FormatDouble(Geomean(thr_speedups)) + "}}\n  }";
  SetBenchJsonSummary(json);

  if (!thr_speedups.empty()) {
    std::fprintf(stderr, "[ir_engine] geomean speedup vs reference: threaded %.2fx\n",
                 Geomean(thr_speedups));
  }
  return 0;
}
