#include "src/farm/farm.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <queue>

#include "src/apps/httpd.h"
#include "src/apps/kvstore.h"
#include "src/apps/memcached.h"
#include "src/apps/nginx_app.h"
#include "src/common/host_parallel.h"
#include "src/farm/ring.h"
#include "src/runtime/syscall_shim.h"

namespace sgxb {

namespace {

constexpr const char* kAppNames[] = {"kvstore", "memcached", "httpd", "nginx",
                                     "netserver"};
constexpr size_t kAppCount = sizeof kAppNames / sizeof kAppNames[0];

// Per-shard phase-A output, written into a shard-indexed slot.
struct ShardOut {
  RunResult run;
  std::vector<uint64_t> service_cycles;  // parallel to the shard's subsequence
  std::vector<uint8_t> served_flags;     // 1 = served, 0 = dropped/trapped
  // Per-position drop class: 0 = served, 1 = request-only trap (transient),
  // 2 = suspect-shard trap (ShardImpact::kSuspectShard — feeds the farm
  // supervisor's conviction counter).
  std::vector<uint8_t> fail_class;
  uint64_t served = 0;
  uint64_t dropped = 0;
};

// Shard-scoped phase-A injection: fire this fault through the enclave's
// armed injector just before serving the local request position.
struct ShardInjection {
  uint32_t at_local = 0;
  FaultKind kind = FaultKind::kEpcStorm;

  bool operator<(const ShardInjection& other) const {
    return at_local != other.at_local ? at_local < other.at_local
                                      : kind < other.kind;
  }
};

// Executes one shard's routed subsequence against its app instance. `mine`
// holds global request indices in arrival order; per-request op mixes are
// derived from (key, global index) so they do not depend on the shard count.
template <typename P>
void ServeShard(Env<P>& env, const FarmConfig& cfg, const std::vector<FarmRequest>& reqs,
                const std::vector<uint32_t>& mine,
                const std::vector<ShardInjection>& inject, ShardOut* out) {
  SyscallShim shim(&env.enclave);
  std::optional<KvStore<P>> kv;
  std::optional<Memcached<P>> mc;
  std::optional<Httpd<P>> httpd;
  std::optional<NginxApp<P>> nginx;
  typename P::Ptr echo_buf{};
  std::vector<uint32_t> conns;
  const std::string get_req = "GET / HTTP/1.1\r\nHost: enclave\r\n\r\n";
  constexpr uint32_t kEchoBytes = 4096;
  switch (cfg.app) {
    case FarmApp::kKvStore:
      kv.emplace(&env.policy, &env.cpu);
      break;
    case FarmApp::kMemcached:
      mc.emplace(&env.policy, &env.cpu, &shim, /*buckets=*/1 << 10);
      break;
    case FarmApp::kHttpd: {
      httpd.emplace(&env.policy, &env.cpu, &shim);
      // Connection state is ~1 MiB each (paper Fig. 13b); cap the per-shard
      // pool so fleet-size sweeps stay inside the 32-bit arena.
      const uint32_t n = std::min<uint32_t>(std::max(1u, cfg.load.clients), 16);
      for (uint32_t c = 0; c < n; ++c) {
        conns.push_back(httpd->OpenConnection());
      }
      break;
    }
    case FarmApp::kNginx:
      nginx.emplace(&env.policy, &env.cpu, &shim);
      break;
    case FarmApp::kNetserver:
      echo_buf = env.policy.Malloc(env.cpu, kEchoBytes);
      break;
  }

  out->service_cycles.resize(mine.size());
  out->served_flags.resize(mine.size());
  out->fail_class.resize(mine.size());
  char wire[64];
  std::vector<uint8_t> payload(64, 0x5a);
  size_t next_inject = 0;
  for (size_t i = 0; i < mine.size(); ++i) {
    // Land shard-scoped faults (epc_storm eviction sweeps, poison metadata
    // flips) at their request positions, through the normal charged paths.
    while (next_inject < inject.size() && inject[next_inject].at_local <= i) {
      if (env.faults != nullptr) {
        env.faults->InjectNow(env.cpu, inject[next_inject].kind);
      }
      ++next_inject;
    }
    const uint32_t gid = mine[i];
    const FarmRequest& rq = reqs[gid];
    // Shard-count-invariant op selector: a pure function of the request.
    const uint64_t op =
        ConsistentHashRing::Mix64(rq.key + 0x100000001b3ull * (gid + 1)) & 7u;
    const uint64_t before = env.cpu.cycles();
    env.cpu.Ecall();  // request dispatch crosses into the shard's enclave
    bool served = false;
    switch (cfg.app) {
      case FarmApp::kKvStore:
        if (op < 3) {
          served = env.Serve([&] { kv->Insert(rq.key, 64); });
        } else if (op < 7) {
          uint64_t word = 0;
          served = env.Serve([&] { kv->Get(rq.key, &word); });
        } else {
          served = env.Serve([&] { kv->Update(rq.key, rq.key ^ gid); });
        }
        break;
      case FarmApp::kMemcached:
        if (op < 7) {
          std::snprintf(wire, sizeof wire, "G %llu\n",
                        static_cast<unsigned long long>(rq.key));
        } else {
          std::snprintf(wire, sizeof wire, "S %llu 128\n",
                        static_cast<unsigned long long>(rq.key));
        }
        served = env.Serve([&] { mc->ServeRequest(wire); });
        break;
      case FarmApp::kHttpd: {
        const uint32_t cid = conns[rq.client % conns.size()];
        served = env.Serve([&] { httpd->ServeGet(cid, get_req); });
        break;
      }
      case FarmApp::kNginx:
        served = env.Serve([&] { nginx->ServeGet(get_req); });
        break;
      case FarmApp::kNetserver:
        // Minimal echo: receive a 64-byte datagram into the enclave buffer,
        // touch it, send it back. The syscall pair is what makes this app
        // the cleanest probe of the OCALL transition axis.
        served = env.Serve([&] {
          const uint32_t addr = env.policy.AddrOf(echo_buf);
          shim.Recv(env.cpu, addr, payload, 0, kEchoBytes);
          env.cpu.MemAccess(addr, 64, AccessClass::kAppLoad);
          env.cpu.Alu(64);
          shim.Send(env.cpu, addr, 64);
        });
        break;
    }
    out->service_cycles[i] = env.cpu.cycles() - before;
    out->served_flags[i] = served ? 1 : 0;
    if (served) {
      out->fail_class[i] = 0;
    } else if (env.recovery->has_trap() &&
               ClassifyShardImpact(env.recovery->last_trap()) ==
                   ShardImpact::kSuspectShard) {
      out->fail_class[i] = 2;
    } else {
      out->fail_class[i] = 1;
    }
    served ? ++out->served : ++out->dropped;
  }
}

uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

const char* FarmAppName(FarmApp app) {
  const size_t i = static_cast<size_t>(app);
  return i < kAppCount ? kAppNames[i] : "?";
}

bool ParseFarmApp(const std::string& name, FarmApp* out) {
  for (size_t i = 0; i < kAppCount; ++i) {
    if (name == kAppNames[i]) {
      *out = static_cast<FarmApp>(i);
      return true;
    }
  }
  return false;
}

std::vector<std::string> FarmAppChoices() {
  return std::vector<std::string>(kAppNames, kAppNames + kAppCount);
}

FarmResult RunFarm(const FarmConfig& cfg) {
  CHECK_GT(cfg.shards, 0u);
  const ConsistentHashRing ring(cfg.shards, cfg.vnodes);
  const std::vector<FarmRequest> reqs = GenerateRequests(cfg.load);

  // Route the stream: per shard, global indices in arrival order.
  std::vector<std::vector<uint32_t>> routed(cfg.shards);
  std::vector<uint32_t> shard_of(reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    const uint32_t s = ring.Route(reqs[i].key);
    shard_of[i] = s;
    routed[s].push_back(static_cast<uint32_t>(i));
  }

  // Map shard-scoped phase-A injections (epc_storm, poison) to local request
  // positions in each victim's subsequence: an event at global dispatch N
  // fires just before the shard serves its first request at or after N.
  // Crash/hang are phase-B process-level events, handled by ResilientTiming.
  std::vector<std::vector<ShardInjection>> injections(cfg.shards);
  if (cfg.resilience.enabled) {
    for (const ShardFaultEvent& ev : cfg.resilience.shard_faults.events) {
      if ((ev.kind != ShardFaultKind::kEpcStorm && ev.kind != ShardFaultKind::kPoison) ||
          ev.shard >= cfg.shards) {
        continue;
      }
      const std::vector<uint32_t>& mine = routed[ev.shard];
      const uint32_t g = ev.at_request > 0 ? static_cast<uint32_t>(ev.at_request - 1) : 0;
      const auto it = std::lower_bound(mine.begin(), mine.end(), g);
      if (it == mine.end()) {
        continue;  // fires past the end of the shard's stream
      }
      injections[ev.shard].push_back(
          {static_cast<uint32_t>(it - mine.begin()),
           ev.kind == ShardFaultKind::kEpcStorm ? FaultKind::kEpcStorm
                                                : FaultKind::kMetadataFlip});
    }
    for (std::vector<ShardInjection>& v : injections) {
      std::sort(v.begin(), v.end());
    }
  }

  // Phase A: measure service demands, one independent simulation per shard.
  using Clock = std::chrono::steady_clock;
  const auto phase_a_start = Clock::now();
  std::vector<ShardOut> outs(cfg.shards);
  const uint32_t threads =
      cfg.host_threads == 0 ? HostHardwareThreads() : cfg.host_threads;
  // The injector is armed whenever a per-enclave plan exists or resilience
  // needs a channel for shard-scoped injections; arming with an empty plan
  // leaves simulated results untouched.
  const bool arm_faults = !cfg.faults.empty() || cfg.resilience.enabled;
  ParallelForWorkStealing(cfg.shards, threads, [&](size_t s) {
    MachineSpec spec = cfg.machine;
    spec.seed = cfg.machine.seed + 1000003ull * s;  // per-shard env rng stream
    FaultPlan shard_plan = cfg.faults;
    shard_plan.seed = cfg.faults.seed + 7919ull * s;  // de-alias fault targets
    if (arm_faults) {
      spec.faults = &shard_plan;
    }
    outs[s].run = RunPolicyKind(cfg.policy, spec, cfg.options, [&](auto& env) {
      ServeShard(env, cfg, reqs, routed[s], injections[s], &outs[s]);
    });
  });

  // Flatten phase-A outputs back to global request order.
  std::vector<uint64_t> svc(reqs.size(), 0);
  std::vector<uint8_t> ok(reqs.size(), 0);
  std::vector<uint8_t> outcome(reqs.size(), 2);
  {
    std::vector<size_t> next(cfg.shards, 0);
    for (size_t i = 0; i < reqs.size(); ++i) {
      const uint32_t s = shard_of[i];
      const size_t j = next[s]++;
      // A shard that trapped mid-stream leaves its tail unmeasured; those
      // requests count as dropped with zero demand (outcome stays 2: the
      // enclave died, which indicts the shard).
      if (j < outs[s].service_cycles.size()) {
        svc[i] = outs[s].service_cycles[j];
        ok[i] = outs[s].served_flags[j];
        outcome[i] = outs[s].fail_class[j];
      }
    }
  }

  // Phase B: deterministic discrete-event queueing over measured demands.
  const auto phase_b_start = Clock::now();
  FarmResult result;
  std::vector<uint64_t> free_at(cfg.shards, 0);
  uint64_t makespan = 0;
  if (cfg.resilience.enabled) {
    ResilienceConfig rc = cfg.resilience;
    if (rc.restart_warmup_cycles == 0) {
      rc.restart_warmup_cycles = RestartWarmupCycles(cfg.machine.costs);
    }
    ResilientTimingInput tin;
    tin.reqs = &reqs;
    tin.service_cycles = &svc;
    tin.outcome = &outcome;
    tin.primary_shard = &shard_of;
    tin.open_loop = cfg.open_loop;
    tin.offered_rps = cfg.offered_rps;
    tin.ghz = cfg.ghz;
    tin.think_cycles = cfg.think_cycles;
    tin.clients = std::max(1u, cfg.load.clients);
    tin.seed = cfg.load.seed;
    makespan = ResilientTiming(tin, rc, ring, &result.resilience, &result.latency,
                               &result.served, &result.dropped);
  } else if (cfg.open_loop) {
    const std::vector<uint64_t> arrivals =
        PoissonArrivals(reqs.size(), cfg.offered_rps, cfg.ghz, cfg.load.seed);
    for (size_t i = 0; i < reqs.size(); ++i) {
      const uint32_t s = shard_of[i];
      const uint64_t start = std::max(arrivals[i], free_at[s]);
      const uint64_t done = start + svc[i];
      free_at[s] = done;
      makespan = std::max(makespan, done);
      if (ok[i] != 0) {
        result.latency.Add(done - arrivals[i]);
      }
    }
  } else {
    // Closed loop: each client has one outstanding request; its next request
    // is issued `think_cycles` after the previous completion. Ties break on
    // client id, so the schedule is a pure function of the inputs.
    const uint32_t clients = std::max(1u, cfg.load.clients);
    std::vector<std::vector<uint32_t>> per_client(clients);
    for (size_t i = 0; i < reqs.size(); ++i) {
      per_client[reqs[i].client % clients].push_back(static_cast<uint32_t>(i));
    }
    using Ready = std::pair<uint64_t, uint32_t>;  // (time, client)
    std::priority_queue<Ready, std::vector<Ready>, std::greater<Ready>> pq;
    std::vector<size_t> cursor(clients, 0);
    for (uint32_t c = 0; c < clients; ++c) {
      if (!per_client[c].empty()) {
        pq.push({0, c});
      }
    }
    while (!pq.empty()) {
      const auto [ready, c] = pq.top();
      pq.pop();
      const uint32_t i = per_client[c][cursor[c]++];
      const uint32_t s = shard_of[i];
      const uint64_t start = std::max(ready, free_at[s]);
      const uint64_t done = start + svc[i];
      free_at[s] = done;
      makespan = std::max(makespan, done);
      if (ok[i] != 0) {
        result.latency.Add(done - ready);
      }
      if (cursor[c] < per_client[c].size()) {
        pq.push({done + cfg.think_cycles, c});
      }
    }
  }

  result.host_phase_a_s = std::chrono::duration<double>(phase_b_start - phase_a_start).count();
  result.host_phase_b_s = std::chrono::duration<double>(Clock::now() - phase_b_start).count();
  result.makespan_cycles = makespan;
  result.shards.resize(cfg.shards);
  uint64_t digest = 1469598103934665603ull;
  for (uint32_t s = 0; s < cfg.shards; ++s) {
    FarmShardStats& st = result.shards[s];
    st.requests = routed[s].size();
    st.served = outs[s].served;
    st.dropped = outs[s].dropped + (routed[s].size() - outs[s].service_cycles.size());
    st.cycles = outs[s].run.cycles;
    st.counters = outs[s].run.counters;
    st.crashed = outs[s].run.crashed;
    if (!cfg.resilience.enabled) {
      // With resilience on, ResilientTiming already set the authoritative
      // request outcomes; shard stats stay the phase-A measurement view.
      result.served += st.served;
      result.dropped += st.dropped;
    }
    result.totals += st.counters;
    const FaultStats& fs = outs[s].run.fault_stats;
    for (uint32_t k = 0; k < kFaultKindCount; ++k) {
      result.fault_totals.injected[k] += fs.injected[k];
    }
    result.fault_totals.skipped += fs.skipped;
    const RecoveryStats& rs = outs[s].run.recovery_stats;
    result.recovery_totals.requests += rs.requests;
    result.recovery_totals.contained += rs.contained;
    result.recovery_totals.retried += rs.retried;
    result.recovery_totals.recovered += rs.recovered;
    result.recovery_totals.watchdog_kills += rs.watchdog_kills;
    for (uint32_t k = 0; k < kTrapKindCount; ++k) {
      result.recovery_totals.trap_by_kind[k] += rs.trap_by_kind[k];
    }
    digest = FnvMix(digest, st.served);
    digest = FnvMix(digest, st.dropped);
    digest = FnvMix(digest, st.cycles);
    digest = FnvMix(digest, st.counters.ecalls);
    digest = FnvMix(digest, st.counters.ocalls);
    digest = FnvMix(digest, st.counters.transition_cycles);
  }
  if (makespan > 0) {
    result.throughput_rps = static_cast<double>(result.served) /
                            (static_cast<double>(makespan) / (cfg.ghz * 1e9));
  }
  digest = FnvMix(digest, result.latency.Digest());
  digest = FnvMix(digest, makespan);
  // Gated mixes: each layer folds in only when enabled, so a fair-weather
  // run's digest is byte-identical to the pre-resilience farm.
  if (cfg.machine.recovery.enabled) {
    digest = FnvMix(digest, result.recovery_totals.requests);
    digest = FnvMix(digest, result.recovery_totals.contained);
    digest = FnvMix(digest, result.recovery_totals.retried);
    digest = FnvMix(digest, result.recovery_totals.recovered);
    digest = FnvMix(digest, result.recovery_totals.watchdog_kills);
    digest = FnvMix(digest, result.recovery_totals.total_traps());
  }
  if (!cfg.faults.empty() || cfg.resilience.enabled) {
    digest = FnvMix(digest, result.fault_totals.total_injected());
    digest = FnvMix(digest, result.fault_totals.skipped);
  }
  if (cfg.resilience.enabled) {
    digest = FnvMix(digest, result.resilience.digest);
  }
  result.digest = digest;
  return result;
}

}  // namespace sgxb
