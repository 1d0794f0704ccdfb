// fig15_farm: the paper's §6 server experiments at fleet scale.
//
// Sweeps offered load x shard count x policy over the in-sim services
// (kvstore/memcached/httpd/nginx/netserver), each farm a set of independent
// enclave shards behind consistent-hash routing (src/farm). Per sweep point
// it reports fleet throughput and p50/p99/p999 request latency — the
// throughput-vs-latency curves memaslap/ab produce in the paper — plus the
// ECALL/OCALL transition axis the paper's hardware could not isolate
// (--transitions=off|sync|switchless).
//
// Everything simulated is deterministic: --bench_threads changes only host
// wall-clock, never a result byte. --selfcheck re-runs a small fleet at 1
// and N host threads and fails on any digest mismatch (the CI gate).
// --selftime prints each run's phase-A and phase-B host seconds to stderr.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/farm/farm.h"
#include "src/fault/fault.h"
#include "src/fault/shard_fault.h"

namespace sgxb {
namespace {

struct SweepPoint {
  std::string app;
  PolicyKind policy;
  uint32_t shards;
  uint32_t clients;   // closed loop
  double rps;         // open loop
  FarmResult result;
};

// Resolves --apps: csv of registered app names, or "all".
std::vector<FarmApp> ResolveApps(const std::string& csv) {
  std::vector<FarmApp> apps;
  if (csv == "all") {
    for (const std::string& name : FarmAppChoices()) {
      FarmApp a;
      ParseFarmApp(name, &a);
      apps.push_back(a);
    }
    return apps;
  }
  std::vector<std::string> names;
  if (!SplitCsv(csv, &names)) {
    std::fprintf(stderr, "--apps: '%s' is not a comma list without empty items\n",
                 csv.c_str());
    std::exit(2);
  }
  for (const std::string& tok : names) {
    FarmApp a;
    if (!ParseFarmApp(tok, &a)) {
      std::string valid;
      for (const std::string& name : FarmAppChoices()) {
        valid += valid.empty() ? name : "|" + name;
      }
      std::fprintf(stderr, "--apps: unknown app '%s' (valid: %s|all)\n", tok.c_str(),
                   valid.c_str());
      std::exit(2);
    }
    apps.push_back(a);
  }
  return apps;
}

double CyclesToUs(double cycles, double ghz) { return cycles / (ghz * 1e3); }

void WriteFarmJson(const std::vector<SweepPoint>& points, const FarmConfig& proto,
                   const std::string& transitions) {
  std::FILE* f = std::fopen("BENCH_farm.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[json] cannot write BENCH_farm.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"binary\": \"fig15_farm\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", proto.open_loop ? "open" : "closed");
  std::fprintf(f, "  \"transitions\": \"%s\",\n", transitions.c_str());
  std::fprintf(f, "  \"requests\": %" PRIu64 ",\n", proto.load.requests);
  std::fprintf(f, "  \"keyspace\": %" PRIu64 ",\n", proto.load.keyspace);
  std::fprintf(f, "  \"key_theta\": %.3f,\n", proto.load.key_theta);
  std::fprintf(f, "  \"seed\": %" PRIu64 ",\n", proto.load.seed);
  std::fprintf(f, "  \"bench_threads\": %u,\n", ResolveBenchThreads());
  // Driver-provided summary block (fleet recovery/fault totals), installed
  // via SetBenchJsonSummary before this writer runs. Absent in fair-weather
  // runs so the historical layout is unchanged.
  if (!JsonState().summary_json.empty()) {
    std::fprintf(f, "  \"summary\": %s,\n", JsonState().summary_json.c_str());
  }
  std::fprintf(f, "  \"rows\": [");
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    const FarmResult& r = p.result;
    std::fprintf(f,
                 "%s\n    {\"app\": \"%s\", \"policy\": \"%s\", \"shards\": %u, "
                 "\"clients\": %u, \"offered_rps\": %.0f, \"served\": %" PRIu64
                 ", \"dropped\": %" PRIu64
                 ", \"throughput_rps\": %.1f, \"p50_us\": %.2f, \"p99_us\": %.2f, "
                 "\"p999_us\": %.2f, \"ecalls\": %" PRIu64 ", \"ocalls\": %" PRIu64
                 ", \"transition_cycles\": %" PRIu64 ", \"total_cycles\": %" PRIu64
                 ", \"digest\": \"%016" PRIx64 "\"",
                 i == 0 ? "" : ",", p.app.c_str(), PolicyName(p.policy), p.shards,
                 p.clients, p.rps, r.served, r.dropped, r.throughput_rps,
                 CyclesToUs(r.latency.P50(), proto.ghz),
                 CyclesToUs(r.latency.P99(), proto.ghz),
                 CyclesToUs(r.latency.P999(), proto.ghz), r.totals.ecalls,
                 r.totals.ocalls, r.totals.transition_cycles, r.totals.cycles,
                 r.digest);
    // Gated extensions: rows from fair-weather runs stay byte-identical.
    if (proto.machine.recovery.enabled && r.recovery_totals.requests > 0) {
      std::fprintf(f,
                   ", \"recovery\": {\"contained\": %" PRIu64 ", \"retried\": %" PRIu64
                   ", \"recovered\": %" PRIu64 ", \"traps\": %" PRIu64
                   ", \"faults_injected\": %" PRIu64 "}",
                   r.recovery_totals.contained, r.recovery_totals.retried,
                   r.recovery_totals.recovered, r.recovery_totals.total_traps(),
                   r.fault_totals.total_injected());
    }
    if (r.resilience.enabled) {
      const ResilienceReport& rr = r.resilience;
      std::fprintf(f,
                   ", \"resilience\": {\"completed\": %" PRIu64
                   ", \"failed_app\": %" PRIu64 ", \"failed_timeout\": %" PRIu64
                   ", \"retries\": %" PRIu64 ", \"hedges\": %" PRIu64
                   ", \"hedge_wins\": %" PRIu64 ", \"detections\": %" PRIu64
                   ", \"convictions\": %" PRIu64 ", \"restarts\": %" PRIu64
                   ", \"failovers\": %" PRIu64 ", \"goodput_rps\": %.1f"
                   ", \"degraded_p99_us\": %.2f, \"healthy_p99_us\": %.2f"
                   ", \"digest\": \"%016" PRIx64 "\"}",
                   rr.completed, rr.failed_app, rr.failed_timeout, rr.retries,
                   rr.hedges, rr.hedge_wins, rr.detections, rr.convictions,
                   rr.restarts, rr.failovers, rr.goodput_rps,
                   CyclesToUs(rr.degraded.CappedQuantile(0.99), proto.ghz),
                   CyclesToUs(rr.healthy.CappedQuantile(0.99), proto.ghz),
                   rr.digest);
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n  ],\n  \"scaling\": [");
  // 1 -> max-shard fleet-throughput scaling at the heaviest load, per
  // (app, policy): the headline "does the farm actually scale" number.
  struct Key {
    std::string app;
    PolicyKind policy;
    bool operator<(const Key& o) const {
      return app != o.app ? app < o.app : policy < o.policy;
    }
  };
  std::map<Key, std::map<uint32_t, double>> best;  // shards -> tput at max load
  std::map<Key, uint32_t> max_load;
  for (const SweepPoint& p : points) {
    const Key k{p.app, p.policy};
    const uint32_t load = p.clients != 0 ? p.clients : static_cast<uint32_t>(p.rps);
    if (load >= max_load[k]) {
      max_load[k] = load;
    }
  }
  for (const SweepPoint& p : points) {
    const Key k{p.app, p.policy};
    const uint32_t load = p.clients != 0 ? p.clients : static_cast<uint32_t>(p.rps);
    if (load == max_load[k]) {
      best[k][p.shards] = p.result.throughput_rps;
    }
  }
  bool first = true;
  for (const auto& [k, by_shards] : best) {
    if (by_shards.size() < 2) {
      continue;
    }
    const auto lo = by_shards.begin();
    const auto hi = std::prev(by_shards.end());
    std::fprintf(f,
                 "%s\n    {\"app\": \"%s\", \"policy\": \"%s\", \"shards_lo\": %u, "
                 "\"shards_hi\": %u, \"tput_lo_rps\": %.1f, \"tput_hi_rps\": %.1f, "
                 "\"scaling\": %.2f}",
                 first ? "" : ",", k.app.c_str(), PolicyName(k.policy), lo->first,
                 hi->first, lo->second, hi->second,
                 lo->second > 0 ? hi->second / lo->second : 0.0);
    first = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[json] wrote BENCH_farm.json (%zu rows)\n", points.size());
}

int SelfCheck(FarmConfig proto) {
  // Small fleet, fixed seed, digest pinned across host thread counts.
  proto.app = FarmApp::kKvStore;
  proto.policy = PolicyKind::kSgxBounds;
  proto.shards = 4;
  proto.load.requests = 4000;
  proto.load.clients = 16;
  int failures = 0;
  for (FarmApp app : {FarmApp::kKvStore, FarmApp::kMemcached}) {
    proto.app = app;
    uint64_t reference = 0;
    for (uint32_t threads : {1u, 4u, 16u}) {
      proto.host_threads = threads;
      const FarmResult r = RunFarm(proto);
      if (threads == 1) {
        reference = r.digest;
      }
      const bool ok = r.digest == reference;
      std::printf("[selfcheck] app=%s threads=%u digest=%016" PRIx64 " %s\n",
                  FarmAppName(app), threads, r.digest, ok ? "ok" : "MISMATCH");
      failures += ok ? 0 : 1;
    }
  }
  std::printf("[selfcheck] %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  FlagParser parser;
  AddBenchDriverFlags(parser);
  AddPoliciesFlag(parser);
  std::string apps_csv = "kvstore,memcached,httpd";
  std::vector<uint64_t> shard_counts = {1, 2, 4, 8};
  std::vector<uint64_t> clients = {1, 8, 32, 128};
  std::vector<uint64_t> rps = {50000, 200000, 800000};
  std::string mode = "closed";
  std::string transitions = "sync";
  uint64_t requests = 20000;
  uint64_t keyspace = 4096;
  double key_theta = 0.0;
  double client_theta = 0.0;
  uint64_t think = 0;
  uint64_t seed = 42;
  uint64_t vnodes = 64;
  std::string faults_spec;
  std::string shard_faults_spec;
  std::string recovery = "off";
  bool selfcheck = false;
  parser.AddString("apps", &apps_csv,
                   "comma-separated farm apps (kvstore|memcached|httpd|nginx|netserver|all)");
  parser.AddCallback(
      "shards", [&](const std::string& v) { return ParseUintList(v, 1, &shard_counts); },
      "comma-separated shard counts to sweep", "1,2,4,8");
  parser.AddCallback(
      "clients", [&](const std::string& v) { return ParseUintList(v, 1, &clients); },
      "closed loop: comma-separated client counts (the offered-load axis)", "1,8,32,128");
  parser.AddCallback(
      "rps", [&](const std::string& v) { return ParseUintList(v, 1, &rps); },
      "open loop: comma-separated offered requests/second", "50000,200000,800000");
  parser.AddChoice("mode", &mode, {"closed", "open"},
                   "arrival process: closed-loop clients or open-loop Poisson");
  parser.AddChoice("transitions", &transitions, {"off", "sync", "switchless"},
                   "enclave transition cost axis: disabled, synchronous "
                   "ECALL/OCALL world switches, or switchless host calls");
  parser.AddUint("requests", &requests, "requests per farm run");
  parser.AddUint("keyspace", &keyspace, "distinct keys");
  parser.AddDouble("key_theta", &key_theta, "Zipf exponent for key skew (0 = uniform)");
  parser.AddDouble("client_theta", &client_theta,
                   "Zipf exponent for client fan-in skew (0 = uniform)");
  parser.AddUint("think", &think, "closed loop: think cycles between requests");
  parser.AddUint("seed", &seed, "load generator seed");
  parser.AddUint("vnodes", &vnodes, "ring points per shard");
  parser.AddString("faults", &faults_spec,
                   "per-enclave fault campaign replicated into every shard "
                   "(KIND@TRIGGER:AT[*N][+P][;...][;seed=N], see src/fault); "
                   "enables per-request trap recovery");
  parser.AddString("shard_faults", &shard_faults_spec,
                   "shard-scoped fault plan (KIND@SHARD:REQUEST[;...][;seed=N], "
                   "KIND=crash|hang|epc_storm|poison); enables the resilient "
                   "timing pass");
  parser.AddChoice("recovery", &recovery,
                   {"off", "failstop", "restart", "failover", "failover+hedge"},
                   "farm recovery policy for the resilient timing pass "
                   "(off = classic fair-weather phase B; --shard_faults "
                   "without --recovery runs failstop)");
  parser.AddBool("selfcheck", &selfcheck,
                 "run the small-fleet digest check across host thread counts and exit");
  parser.Parse(argc, argv);

  FarmConfig proto;
  proto.vnodes = static_cast<uint32_t>(vnodes);
  proto.load.requests = requests;
  proto.load.keyspace = keyspace;
  proto.load.key_theta = key_theta;
  proto.load.client_theta = client_theta;
  proto.load.seed = seed;
  proto.think_cycles = think;
  proto.open_loop = mode == "open";
  proto.host_threads = ResolveBenchThreads();
  proto.machine.seed = seed;
  if (transitions == "sync") {
    proto.machine.costs.EnableTransitions(/*use_switchless=*/false);
  } else if (transitions == "switchless") {
    proto.machine.costs.EnableTransitions(/*use_switchless=*/true);
  }
  if (!faults_spec.empty()) {
    std::string error;
    if (!FaultPlan::Parse(faults_spec, &proto.faults, &error)) {
      std::fprintf(stderr, "--faults: %s\n", error.c_str());
      return 2;
    }
    // Injected traps must be contained per request, not kill the shard run.
    proto.machine.recovery.enabled = true;
  }
  if (!shard_faults_spec.empty()) {
    std::string error;
    if (!ShardFaultPlan::Parse(shard_faults_spec, &proto.resilience.shard_faults,
                               &error)) {
      std::fprintf(stderr, "--shard_faults: %s\n", error.c_str());
      return 2;
    }
    proto.resilience.enabled = true;
    proto.machine.recovery.enabled = true;  // classify contained traps
  }
  if (recovery != "off") {
    ParseRecoveryMode(recovery, &proto.resilience.mode);
    proto.resilience.enabled = true;
    proto.machine.recovery.enabled = true;
  }
  PrintReproHeader("farm", proto.machine);
  std::printf("[farm] transitions=%s ecall=%u ocall=%" PRIu64 " mode=%s\n",
              transitions.c_str(), proto.machine.costs.ecall,
              proto.machine.costs.OcallCost(), mode.c_str());
  if (proto.resilience.enabled || !proto.faults.empty()) {
    std::printf("[farm] recovery=%s shard_faults=%s faults=%s\n",
                proto.resilience.enabled ? RecoveryModeName(proto.resilience.mode)
                                         : "off",
                proto.resilience.shard_faults.empty()
                    ? "none"
                    : proto.resilience.shard_faults.ToSpec().c_str(),
                proto.faults.empty() ? "none" : proto.faults.ToSpec().c_str());
  }

  if (selfcheck) {
    return SelfCheck(proto);
  }

  const std::vector<FarmApp> apps = ResolveApps(apps_csv);
  const std::vector<PolicyKind> policies = ResolvePolicies();
  const std::vector<uint64_t>& loads = proto.open_loop ? rps : clients;

  std::vector<SweepPoint> points;
  for (const FarmApp app : apps) {
    for (const PolicyKind policy : policies) {
      std::printf("\n== %s / %s : throughput vs latency ==\n", FarmAppName(app),
                  PolicyName(policy));
      Table table({"shards", proto.open_loop ? "rps" : "clients", "served", "dropped",
                   "tput kop/s", "p50 us", "p99 us", "p999 us", "ecalls", "ocalls",
                   "trans%"});
      for (const uint64_t shards : shard_counts) {
        for (const uint64_t load : loads) {
          FarmConfig cfg = proto;
          cfg.app = app;
          cfg.policy = policy;
          cfg.shards = static_cast<uint32_t>(shards);
          if (cfg.open_loop) {
            cfg.offered_rps = static_cast<double>(load);
          } else {
            cfg.load.clients = static_cast<uint32_t>(load);
          }
          std::fprintf(stderr, "[farm] %s/%s shards=%" PRIu64 " load=%" PRIu64 "...\n",
                       FarmAppName(app), PolicyName(policy), shards, load);
          const FarmResult r = RunFarm(cfg);
          if (SelftimeFlag()) {
            std::fprintf(stderr,
                         "[selftime] %s/%s shards=%" PRIu64 " load=%" PRIu64
                         ": phase A %.4f s, phase B %.4f s\n",
                         FarmAppName(app), PolicyName(policy), shards, load,
                         r.host_phase_a_s, r.host_phase_b_s);
          }
          const double trans_pct =
              r.totals.cycles == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(r.totals.transition_cycles) /
                        static_cast<double>(r.totals.cycles);
          table.AddRow({std::to_string(shards), std::to_string(load),
                        std::to_string(r.served), std::to_string(r.dropped),
                        FormatDouble(r.throughput_rps / 1000.0, 1),
                        FormatDouble(CyclesToUs(r.latency.P50(), cfg.ghz), 1),
                        FormatDouble(CyclesToUs(r.latency.P99(), cfg.ghz), 1),
                        FormatDouble(CyclesToUs(r.latency.P999(), cfg.ghz), 1),
                        std::to_string(r.totals.ecalls), std::to_string(r.totals.ocalls),
                        FormatDouble(trans_pct, 1)});
          if (r.resilience.enabled) {
            const ResilienceReport& rr = r.resilience;
            std::printf("[resilience] shards=%" PRIu64 " load=%" PRIu64
                        " completed=%" PRIu64 " failed_app=%" PRIu64
                        " failed_timeout=%" PRIu64 " retries=%" PRIu64
                        " hedges=%" PRIu64 "/%" PRIu64 " detections=%" PRIu64
                        " convictions=%" PRIu64 " restarts=%" PRIu64
                        " failovers=%" PRIu64 " goodput=%.1f kop/s\n",
                        shards, load, rr.completed, rr.failed_app, rr.failed_timeout,
                        rr.retries, rr.hedge_wins, rr.hedges, rr.detections,
                        rr.convictions, rr.restarts, rr.failovers,
                        rr.goodput_rps / 1000.0);
          }
          if (cfg.machine.recovery.enabled && r.recovery_totals.requests > 0) {
            std::printf("[recovery] contained=%" PRIu64 " retried=%" PRIu64
                        " recovered=%" PRIu64 " traps=%" PRIu64
                        " faults_injected=%" PRIu64 "\n",
                        r.recovery_totals.contained, r.recovery_totals.retried,
                        r.recovery_totals.recovered, r.recovery_totals.total_traps(),
                        r.fault_totals.total_injected());
          }
          SweepPoint p;
          p.app = FarmAppName(app);
          p.policy = policy;
          p.shards = static_cast<uint32_t>(shards);
          p.clients = cfg.open_loop ? 0 : cfg.load.clients;
          p.rps = cfg.open_loop ? cfg.offered_rps : 0.0;
          p.result = r;
          points.push_back(std::move(p));
        }
        table.AddSeparator();
      }
      table.Print();
    }
  }

  if (JsonFlag()) {
    // Fleet recovery/fault/resilience totals as the shared summary block
    // (SetBenchJsonSummary), then the farm writer emits it inside
    // BENCH_farm.json. Skipped entirely in fair-weather runs.
    if (proto.machine.recovery.enabled || proto.resilience.enabled) {
      RecoveryStats rec;
      uint64_t injected = 0;
      uint64_t completed = 0;
      uint64_t failed = 0;
      for (const SweepPoint& p : points) {
        rec.contained += p.result.recovery_totals.contained;
        rec.retried += p.result.recovery_totals.retried;
        rec.recovered += p.result.recovery_totals.recovered;
        rec.requests += p.result.recovery_totals.requests;
        injected += p.result.fault_totals.total_injected();
        completed += p.result.resilience.completed;
        failed += p.result.resilience.failed_app + p.result.resilience.failed_timeout;
      }
      char summary[512];
      std::snprintf(summary, sizeof summary,
                    "{\"recovery\": \"%s\", \"requests\": %" PRIu64
                    ", \"contained\": %" PRIu64 ", \"retried\": %" PRIu64
                    ", \"recovered\": %" PRIu64 ", \"faults_injected\": %" PRIu64
                    ", \"resilient_completed\": %" PRIu64
                    ", \"resilient_failed\": %" PRIu64 "}",
                    proto.resilience.enabled ? RecoveryModeName(proto.resilience.mode)
                                             : "off",
                    rec.requests, rec.contained, rec.retried, rec.recovered, injected,
                    completed, failed);
      SetBenchJsonSummary(summary);
    }
    WriteFarmJson(points, proto, transitions);
  }
  return 0;
}

}  // namespace
}  // namespace sgxb

int main(int argc, char** argv) { return sgxb::Main(argc, argv); }
