// Fault-injection campaigns (Table-4-style robustness matrix).
//
// The paper's Table 4 shows which *bugs* each scheme detects; this driver
// shows what each scheme's whole stack (detection + trap recovery +
// containment) does under *injected* faults: seeded campaigns of allocation
// failures, wild writes, EPC eviction storms, and metadata corruption, run
// against the oracle-checked kvstore service under every policy.
//
// Outcome buckets per run:
//   C clean      - faults injected (or none), service unaffected
//   D detected   - every fault surfaced as a trap; requests contained/retried
//   S silent     - the oracle caught wrong answers and no trap ever fired
//   X damaged    - traps fired AND the oracle still caught wrong answers
//   F fatal      - a trap escaped recovery and ended the run
//
// Everything is a pure function of --seed: two invocations with the same
// flags produce byte-identical stdout and --json output.

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/contained_service.h"
#include "src/fault/fault.h"

namespace sgxb {
namespace {

const char* const kClassNames[] = {"none",      "alloc_fail",    "wild_write",
                                   "epc_storm", "metadata_flip", "mixed"};
constexpr int kClassCount = 6;
constexpr int kClassNone = 0;
constexpr int kClassMixed = 5;

enum class Outcome { kClean, kDetected, kSilent, kDamaged, kFatal };

struct CellRun {
  PolicyKind policy = PolicyKind::kNative;
  int fault_class = kClassNone;
  uint32_t campaign = 0;
  int plan_index = -1;  // into the plans vector; -1 = no faults
  RunResult run{};
  OracleKvResult kv{};
};

Outcome Classify(const CellRun& cell) {
  if (cell.run.crashed) {
    return Outcome::kFatal;
  }
  const bool corrupted = cell.kv.oracle_mismatches > 0;
  const bool trapped = cell.run.recovery_stats.total_traps() > 0;
  if (corrupted && trapped) {
    return Outcome::kDamaged;
  }
  if (corrupted) {
    return Outcome::kSilent;
  }
  if (trapped) {
    return Outcome::kDetected;
  }
  return Outcome::kClean;
}

// "2D 1C"-style aggregate of N campaign outcomes, fixed C,D,S,X,F order.
std::string OutcomeCell(const std::vector<Outcome>& outcomes) {
  uint32_t counts[5] = {};
  for (const Outcome o : outcomes) {
    ++counts[static_cast<int>(o)];
  }
  static const char kLetters[5] = {'C', 'D', 'S', 'X', 'F'};
  std::string cell;
  for (int i = 0; i < 5; ++i) {
    if (counts[i] == 0) {
      continue;
    }
    if (!cell.empty()) {
      cell += ' ';
    }
    cell += std::to_string(counts[i]);
    cell += kLetters[i];
  }
  return cell.empty() ? "-" : cell;
}

uint64_t TrapTotal(const CellRun& c) { return c.run.recovery_stats.total_traps(); }

}  // namespace
}  // namespace sgxb

int main(int argc, char** argv) {
  using namespace sgxb;
  FlagParser parser;
  uint64_t seed = 42;
  int64_t campaigns = 3;
  uint64_t requests = 2000;
  uint64_t keyspace = 512;
  uint64_t value_bytes = 64;
  int64_t events = 6;
  std::string faults_spec;
  std::string fault_class = "all";
  bool json = false;
  std::string json_out = "BENCH_fig14_fault_campaign.json";
  parser.AddUint("seed", &seed, "base campaign seed; all randomness derives from it");
  parser.AddInt("campaigns", &campaigns, "seeded campaigns per (policy, fault class) cell");
  parser.AddUint("requests", &requests, "kvstore requests per run");
  parser.AddUint("keyspace", &keyspace, "distinct keys in the request stream");
  parser.AddUint("value_bytes", &value_bytes, "value blob size per row");
  parser.AddInt("events", &events, "fault events per campaign");
  parser.AddString("faults", &faults_spec,
                   "explicit fault plan spec (see src/fault/fault.h); replaces the "
                   "generated campaign classes with this single plan");
  parser.AddChoice("fault_class", &fault_class,
                   {"all", "none", "alloc_fail", "wild_write", "epc_storm",
                    "metadata_flip", "mixed"},
                   "restrict the generated campaigns to one fault class");
  parser.AddBool("json", &json, "also write the full per-run matrix to --json_out");
  parser.AddString("json_out", &json_out, "JSON output path");
  parser.AddInt("bench_threads", &BenchThreadsFlag(),
                "host threads for dispatching independent runs (0 = hardware concurrency)");
  AddPoliciesFlag(parser);
  parser.Parse(argc, argv);
  const std::vector<PolicyKind> policies = ResolvePolicies();

  FaultPlan custom_plan;
  const bool custom = !faults_spec.empty();
  if (custom) {
    std::string error;
    if (!FaultPlan::Parse(faults_spec, &custom_plan, &error)) {
      std::fprintf(stderr, "bad --faults spec: %s\n", error.c_str());
      return 2;
    }
  }

  MachineSpec base;
  base.seed = seed;
  PrintReproHeader("fig14_fault_campaign", base);
  // The trigger space campaigns draw their firing points from. A kvstore
  // request costs ~10-20 guest accesses under the native policy (more under
  // instrumented ones), so requests*8 keeps every campaign point inside the
  // run for all four policies.
  const uint64_t span = requests * 8;
  std::printf("Fault campaigns: outcome matrix per (fault class x policy)\n");
  std::printf("campaigns=%lld requests=%llu keyspace=%llu events=%lld span=%llu seed=%llu\n",
              static_cast<long long>(campaigns), static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(keyspace), static_cast<long long>(events),
              static_cast<unsigned long long>(span), static_cast<unsigned long long>(seed));
  std::printf("buckets: C=clean D=detected/contained S=silent-corruption X=damaged F=fatal\n");

  // Build every plan first (cells reference them by index; the vector must
  // not reallocate once runs start).
  std::vector<FaultPlan> plans;
  std::vector<CellRun> cells;
  const uint32_t n_campaigns = static_cast<uint32_t>(campaigns < 1 ? 1 : campaigns);
  const uint32_t n_events = static_cast<uint32_t>(events < 1 ? 1 : events);
  const int first_class = custom ? kClassCount : 0;  // kClassCount = "custom" pseudo-class
  if (custom) {
    plans.push_back(custom_plan);
    for (PolicyKind kind : policies) {
      cells.push_back({kind, first_class, 0, 0});
    }
  } else {
    for (int cls = 0; cls < kClassCount; ++cls) {
      if (fault_class != "all" && fault_class != kClassNames[cls]) {
        continue;
      }
      for (uint32_t c = 0; c < (cls == kClassNone ? 1u : n_campaigns); ++c) {
        int plan_index = -1;
        if (cls != kClassNone) {
          const uint64_t campaign_seed = seed + 1000ull * c + static_cast<uint64_t>(cls);
          plans.push_back(cls == kClassMixed
                              ? FaultPlan::Mixed(campaign_seed, n_events, span)
                              : FaultPlan::Campaign(static_cast<FaultKind>(cls - 1),
                                                    campaign_seed, n_events, span));
          plan_index = static_cast<int>(plans.size()) - 1;
        }
        for (PolicyKind kind : policies) {
          cells.push_back({kind, cls, c, plan_index});
        }
      }
    }
  }

  const uint32_t threads = ResolveBenchThreads();
  std::fprintf(stderr, "[fig14] dispatching %zu runs over %u host thread(s)\n", cells.size(),
               threads);
  ParallelFor(cells.size(), threads, [&](size_t i) {
    CellRun& cell = cells[i];
    MachineSpec spec;
    spec.seed = seed;
    spec.recovery.enabled = true;
    if (cell.plan_index >= 0) {
      spec.faults = &plans[cell.plan_index];
    }
    OracleKvResult kv;
    cell.run = RunPolicyKind(cell.policy, spec, PolicyOptions{}, [&](auto& env) {
      kv = RunOracleKvCampaign(env, requests, static_cast<uint64_t>(keyspace),
                               static_cast<uint32_t>(value_bytes), seed);
    });
    cell.kv = kv;
  });

  // --- outcome matrix -------------------------------------------------------------
  const int total_classes = custom ? kClassCount + 1 : kClassCount;
  auto class_name = [&](int cls) {
    return cls == kClassCount ? "custom" : kClassNames[cls];
  };
  std::printf("\n== outcome matrix ==\n");
  std::vector<std::string> matrix_head{"fault class"};
  for (PolicyKind kind : policies) {
    matrix_head.emplace_back(SchemeOf(kind).id);
  }
  Table matrix(matrix_head);
  for (int cls = custom ? kClassCount : 0; cls < total_classes; ++cls) {
    if (cls < kClassCount && fault_class != "all" && fault_class != kClassNames[cls]) {
      continue;
    }
    std::vector<std::string> row = {class_name(cls)};
    for (PolicyKind kind : policies) {
      std::vector<Outcome> outcomes;
      for (const CellRun& cell : cells) {
        if (cell.fault_class == cls && cell.policy == kind) {
          outcomes.push_back(Classify(cell));
        }
      }
      row.push_back(OutcomeCell(outcomes));
    }
    matrix.AddRow(row);
  }
  matrix.Print();

  // --- per-cell detail (summed over the campaigns of each cell) -------------------
  std::printf("\n== campaign detail (sums over campaigns) ==\n");
  Table detail({"fault class", "policy", "inj", "skip", "traps", "retried", "recovered",
                "contained", "served", "dropped", "mismatch"});
  for (int cls = custom ? kClassCount : 0; cls < total_classes; ++cls) {
    for (PolicyKind kind : policies) {
      uint64_t inj = 0, skip = 0, traps = 0, retried = 0, recovered = 0, contained = 0,
               served = 0, dropped = 0, mismatch = 0;
      bool any = false;
      for (const CellRun& cell : cells) {
        if (cell.fault_class != cls || cell.policy != kind) {
          continue;
        }
        any = true;
        inj += cell.run.fault_stats.total_injected();
        skip += cell.run.fault_stats.skipped;
        traps += TrapTotal(cell);
        retried += cell.run.recovery_stats.retried;
        recovered += cell.run.recovery_stats.recovered;
        contained += cell.run.recovery_stats.contained;
        served += cell.kv.served;
        dropped += cell.kv.dropped;
        mismatch += cell.kv.oracle_mismatches;
      }
      if (!any) {
        continue;
      }
      auto u = [](uint64_t v) { return std::to_string(v); };
      detail.AddRow({class_name(cls), PolicyName(kind), u(inj), u(skip), u(traps), u(retried),
                     u(recovered), u(contained), u(served), u(dropped), u(mismatch)});
    }
  }
  detail.Print();

  if (json) {
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"seed\": %llu,\n  \"campaigns\": %u,\n  \"requests\": %llu,\n",
                 static_cast<unsigned long long>(seed), n_campaigns,
                 static_cast<unsigned long long>(requests));
    std::fprintf(f, "  \"runs\": [");
    for (size_t i = 0; i < cells.size(); ++i) {
      const CellRun& c = cells[i];
      static const char* const kOutcomeNames[] = {"clean", "detected", "silent", "damaged",
                                                  "fatal"};
      // One entry per TrapKind; sized from the enum so a new trap kind
      // (e.g. a plugged-in scheme's) extends the array automatically.
      std::string traps_by_kind;
      for (uint32_t t = 0; t < kTrapKindCount; ++t) {
        if (t != 0) {
          traps_by_kind += ", ";
        }
        traps_by_kind += std::to_string(c.run.recovery_stats.trap_by_kind[t]);
      }
      std::fprintf(f,
                   "%s\n    {\"class\": \"%s\", \"policy\": \"%s\", \"campaign\": %u, "
                   "\"plan\": \"%s\", \"outcome\": \"%s\", \"cycles\": %llu, "
                   "\"served\": %llu, \"dropped\": %llu, \"oracle_checks\": %llu, "
                   "\"oracle_mismatches\": %llu, \"injected\": %llu, \"skipped\": %llu, "
                   "\"retried\": %llu, \"recovered\": %llu, \"contained\": %llu, "
                   "\"watchdog_kills\": %llu, \"crashed\": %s, \"trap\": \"%s\", "
                   "\"traps_by_kind\": [%s]}",
                   i == 0 ? "" : ",", class_name(c.fault_class), PolicyName(c.policy),
                   c.campaign,
                   c.plan_index >= 0 ? JsonEscape(plans[c.plan_index].ToSpec()).c_str() : "",
                   kOutcomeNames[static_cast<int>(Classify(c))],
                   static_cast<unsigned long long>(c.run.cycles),
                   static_cast<unsigned long long>(c.kv.served),
                   static_cast<unsigned long long>(c.kv.dropped),
                   static_cast<unsigned long long>(c.kv.oracle_checks),
                   static_cast<unsigned long long>(c.kv.oracle_mismatches),
                   static_cast<unsigned long long>(c.run.fault_stats.total_injected()),
                   static_cast<unsigned long long>(c.run.fault_stats.skipped),
                   static_cast<unsigned long long>(c.run.recovery_stats.retried),
                   static_cast<unsigned long long>(c.run.recovery_stats.recovered),
                   static_cast<unsigned long long>(c.run.recovery_stats.contained),
                   static_cast<unsigned long long>(c.run.recovery_stats.watchdog_kills),
                   c.run.crashed ? "true" : "false",
                   c.run.crashed ? TrapKindName(c.run.trap) : "", traps_by_kind.c_str());
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("\njson: %s (%zu runs)\n", json_out.c_str(), cells.size());
  }
  return 0;
}
