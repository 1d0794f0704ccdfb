#include "src/farm/resilience.h"

#include <algorithm>
#include <deque>
#include <queue>

#include "src/common/check.h"

namespace sgxb {

namespace {

constexpr const char* kModeNames[] = {"failstop", "restart", "failover",
                                      "failover+hedge"};

uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

// One discrete event. Ordering is (time, seq) with seq assigned at push, so
// simultaneous events resolve in a fixed, input-determined order; in
// particular an attempt's kDone is always pushed before its kTimeout, so a
// completion exactly at the deadline counts as served.
struct Event {
  enum Kind : uint8_t {
    kArrival,      // id = request
    kDone,         // id = attempt
    kTimeout,      // id = attempt
    kHedge,        // id = request
    kRetry,        // id = request
    kDetect,       // id = shard
    kRestartDone,  // id = shard
  };
  uint64_t time = 0;
  uint64_t seq = 0;
  Kind kind = kArrival;
  uint32_t id = 0;
};

// (time, seq) as one integer, so picking the earliest head is one compare.
using EventKey = unsigned __int128;
constexpr EventKey kNoEvent = ~EventKey{0};  // an empty source's head

EventKey KeyOf(uint64_t time, uint64_t seq) {
  return (static_cast<EventKey>(time) << 64) | seq;
}

struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    return KeyOf(a.time, a.seq) > KeyOf(b.time, b.seq);
  }
};

// An event whose kind is implied by the FIFO that holds it.
struct Slot {
  uint64_t time = 0;
  uint64_t seq = 0;
  uint32_t id = 0;
};

enum class SState : uint8_t { kAlive, kHung, kDead, kRestarting };

struct ShardState {
  SState st = SState::kAlive;
  uint64_t free_at = 0;      // FCFS queue tail
  uint64_t last_change = 0;  // for up/down-time integration
  uint32_t consec = 0;       // consecutive suspect drops (conviction counter)
  uint32_t epoch = 0;        // bumped on crash/restart: invalidates in-flight work
  bool in_ring = true;
};

struct AttemptState {
  uint32_t req = 0;
  uint32_t shard = 0;
  uint32_t epoch = 0;      // shard epoch at dispatch
  uint64_t demand = 0;     // charged service cycles (hang slowdown applied)
  bool hedge = false;
  bool ended = false;      // client-side: completed or abandoned at deadline
};

struct ReqState {
  uint64_t issue = 0;
  uint32_t chain = 0;  // primary-chain attempts dispatched (first + retries)
  uint32_t live = 0;   // attempts not yet ended
  bool resolved = false;
  bool degraded = false;      // any in-ring shard unhealthy at issue time
  bool hedge_pending = false; // kHedge scheduled and not yet fired
  bool pending_retry = false; // kRetry scheduled and not yet fired
};

}  // namespace

const char* RecoveryModeName(RecoveryMode mode) {
  const size_t i = static_cast<size_t>(mode);
  return i < kRecoveryModeCount ? kModeNames[i] : "?";
}

bool ParseRecoveryMode(const std::string& text, RecoveryMode* out) {
  for (uint32_t i = 0; i < kRecoveryModeCount; ++i) {
    if (text == kModeNames[i]) {
      *out = static_cast<RecoveryMode>(i);
      return true;
    }
  }
  return false;
}

std::vector<std::string> RecoveryModeChoices() {
  return std::vector<std::string>(kModeNames, kModeNames + kRecoveryModeCount);
}

uint64_t ResilientTiming(const ResilientTimingInput& in, const ResilienceConfig& rc,
                         ConsistentHashRing ring, ResilienceReport* report,
                         LatencyHistogram* latency, uint64_t* served, uint64_t* dropped) {
  const std::vector<FarmRequest>& reqs = *in.reqs;
  const std::vector<uint64_t>& svc = *in.service_cycles;
  const std::vector<uint8_t>& outcome = *in.outcome;
  const std::vector<uint32_t>& primary = *in.primary_shard;
  CHECK_EQ(svc.size(), reqs.size());
  CHECK_EQ(outcome.size(), reqs.size());
  CHECK_EQ(primary.size(), reqs.size());
  const uint32_t nshards = ring.shards();
  const uint64_t warmup = rc.restart_warmup_cycles;
  const bool hedging = rc.mode == RecoveryMode::kFailoverHedge;
  const bool supervised = rc.mode != RecoveryMode::kFailStop;

  ResilienceReport& rep = *report;
  rep = ResilienceReport{};
  rep.enabled = true;
  rep.shards.resize(nshards);

  std::vector<ShardState> shard(nshards);
  std::vector<ReqState> rstate(reqs.size());
  std::vector<AttemptState> attempts;
  attempts.reserve(reqs.size() + reqs.size() / 4);

  // Count of in-ring shards that are not kAlive: classifies each request's
  // dispatch window as healthy/degraded.
  uint32_t unhealthy = 0;

  // Event sources, merged by (time, seq); see DESIGN.md §13. Each FIFO
  // receives its events already sorted: timeouts and hedges at now plus a
  // constant, arrivals one at a time (open loop) or at now plus think time
  // (closed loop), and each shard's completions at its monotone free_at. Only
  // retries (jittered backoff) and supervisor events go through the heap.
  // heads[k] caches source k's earliest key; the heap's is heads.back().
  constexpr size_t kArrivals = 0;
  constexpr size_t kTimeouts = 1;
  constexpr size_t kHedges = 2;
  constexpr size_t kDoneBase = 3;  // + shard
  std::vector<std::deque<Slot>> fifos(kDoneBase + nshards);
  std::priority_queue<Event, std::vector<Event>, EventAfter> heap;
  const size_t heap_src = fifos.size();
  std::vector<EventKey> heads(fifos.size() + 1, kNoEvent);
  uint64_t seq = 0;
  auto push_fifo = [&](size_t src, uint64_t time, uint32_t id) {
    std::deque<Slot>& q = fifos[src];
    DCHECK(q.empty() || KeyOf(time, seq) > KeyOf(q.back().time, q.back().seq));
    if (q.empty()) {
      heads[src] = KeyOf(time, seq);
    }
    q.push_back({time, seq++, id});
  };
  auto push_heap = [&](uint64_t time, Event::Kind kind, uint32_t id) {
    heap.push(Event{time, seq++, kind, id});
    heads[heap_src] = KeyOf(heap.top().time, heap.top().seq);
  };

  // Makespan: last client-visible resolution or executed shard completion.
  uint64_t end_time = 0;

  auto set_state = [&](uint32_t s, SState ns, uint64_t t) {
    ShardState& sh = shard[s];
    ShardAvailability& av = rep.shards[s];
    const bool was_up = sh.st == SState::kAlive || sh.st == SState::kHung;
    (was_up ? av.up_cycles : av.down_cycles) += t - sh.last_change;
    if (sh.in_ring) {
      const bool was_healthy = sh.st == SState::kAlive;
      const bool now_healthy = ns == SState::kAlive;
      if (was_healthy && !now_healthy) {
        ++unhealthy;
      } else if (!was_healthy && now_healthy) {
        --unhealthy;
      }
    }
    sh.st = ns;
    sh.last_change = t;
  };

  // Removes `s` from the serving set (ring points + health accounting).
  // False when the ring refuses (last live shard, or already removed).
  auto remove_from_ring = [&](uint32_t s) {
    if (!ring.RemoveShard(s)) {
      return false;
    }
    ShardState& sh = shard[s];
    if (sh.in_ring && sh.st != SState::kAlive) {
      --unhealthy;
    }
    sh.in_ring = false;
    rep.shards[s].removed = true;
    ++rep.failovers;
    return true;
  };

  // Phase-A outcome of running request `r` on shard `s`. Suspect-shard drops
  // are shard-specific (poisoned metadata): re-routing away from the primary
  // shard clears them. Request-only drops (transient allocation pressure)
  // follow the request anywhere.
  auto outcome_on = [&](uint32_t r, uint32_t s) -> uint8_t {
    if (outcome[r] == 2 && s != primary[r]) {
      return 0;
    }
    return outcome[r];
  };

  // The supervisor repairs shard `s` at time `t` (watchdog detection or
  // consecutive-failure conviction). No-op under failstop.
  auto repair = [&](uint32_t s, uint64_t t) {
    ShardState& sh = shard[s];
    if (rc.mode == RecoveryMode::kRestart) {
      set_state(s, SState::kRestarting, t);
      ++sh.epoch;  // in-flight work dies with the old incarnation
      sh.consec = 0;
      push_heap(t + warmup, Event::kRestartDone, s);
    } else {
      remove_from_ring(s);  // shard never returns; survivors absorb its keys
    }
  };

  // Failover only erases ring points, so a key keeps its static-ring owner
  // for as long as that shard stays in the ring (ring.h): only keys whose
  // owner left need a lookup.
  auto dispatch = [&](uint32_t r, uint64_t t, bool hedge) {
    const uint32_t s = hedge                     ? ring.RouteSecond(reqs[r].key)
                       : shard[primary[r]].in_ring ? primary[r]
                                                   : ring.Route(reqs[r].key);
    AttemptState at;
    at.req = r;
    at.shard = s;
    at.hedge = hedge;
    ShardState& sh = shard[s];
    at.epoch = sh.epoch;
    ++rep.attempts;
    ++rstate[r].live;
    if (sh.st == SState::kAlive || sh.st == SState::kHung) {
      at.demand = sh.st == SState::kHung ? svc[r] * rc.hang_slowdown : svc[r];
      const uint64_t start = std::max(t, sh.free_at);
      sh.free_at = start + at.demand;
      const uint32_t id = static_cast<uint32_t>(attempts.size());
      attempts.push_back(at);
      // kDone before kTimeout: a completion exactly at the deadline wins.
      push_fifo(kDoneBase + s, sh.free_at, id);
      push_fifo(kTimeouts, t + rc.request_timeout_cycles, id);
    } else {
      // Dead or restarting: the attempt falls on the floor; only the
      // client's deadline notices.
      const uint32_t id = static_cast<uint32_t>(attempts.size());
      attempts.push_back(at);
      push_fifo(kTimeouts, t + rc.request_timeout_cycles, id);
    }
  };

  // Closed-loop bookkeeping (ignored when open_loop).
  const uint32_t clients = std::max(1u, in.clients);
  std::vector<std::vector<uint32_t>> per_client;
  std::vector<size_t> cursor;
  std::vector<uint64_t> arrivals;
  if (in.open_loop) {
    arrivals = PoissonArrivals(reqs.size(), in.offered_rps, in.ghz, in.seed);
    if (!reqs.empty()) {
      push_fifo(kArrivals, arrivals[0], 0);
    }
  } else {
    per_client.resize(clients);
    cursor.assign(clients, 0);
    for (size_t i = 0; i < reqs.size(); ++i) {
      per_client[reqs[i].client % clients].push_back(static_cast<uint32_t>(i));
    }
    for (uint32_t c = 0; c < clients; ++c) {
      if (!per_client[c].empty()) {
        push_fifo(kArrivals, 0, per_client[c][0]);
      }
    }
  }

  // A request's final resolution (served or failed): closed-loop clients
  // issue their next request `think_cycles` later.
  auto resolve_client = [&](uint32_t r, uint64_t t) {
    end_time = std::max(end_time, t);
    if (in.open_loop) {
      return;
    }
    const uint32_t c = reqs[r].client % clients;
    if (++cursor[c] < per_client[c].size()) {
      push_fifo(kArrivals, t + in.think_cycles, per_client[c][cursor[c]]);
    }
  };

  auto fail_request = [&](uint32_t r, uint64_t t) {
    ReqState& rq = rstate[r];
    rq.resolved = true;
    ++rep.failed_timeout;
    const uint64_t residence = t - rq.issue;
    latency->AddTimeout(residence);
    (rq.degraded ? rep.degraded : rep.healthy).AddTimeout(residence);
    resolve_client(r, t);
  };

  // Nothing in flight, nothing scheduled: the request can never resolve.
  auto maybe_fail = [&](uint32_t r, uint64_t t) {
    ReqState& rq = rstate[r];
    if (!rq.resolved && rq.live == 0 && !rq.pending_retry && !rq.hedge_pending) {
      fail_request(r, t);
    }
  };

  // Shard-fault plan, applied at global dispatch counts. Only crash/hang are
  // phase-B events; epc_storm/poison were injected during phase A and their
  // effects already live in svc[]/outcome[].
  std::vector<ShardFaultEvent> plan;
  for (const ShardFaultEvent& ev : rc.shard_faults.events) {
    if (ev.kind == ShardFaultKind::kCrash || ev.kind == ShardFaultKind::kHang) {
      plan.push_back(ev);
    }
  }
  std::stable_sort(plan.begin(), plan.end(),
                   [](const ShardFaultEvent& a, const ShardFaultEvent& b) {
                     return a.at_request < b.at_request;
                   });
  size_t next_fault = 0;
  uint64_t dispatched = 0;

  auto apply_fault = [&](const ShardFaultEvent& ev, uint64_t t) {
    if (ev.shard >= nshards) {
      return;
    }
    ShardState& sh = shard[ev.shard];
    if (ev.kind == ShardFaultKind::kCrash) {
      if (sh.st != SState::kAlive && sh.st != SState::kHung) {
        return;  // already down
      }
      set_state(ev.shard, SState::kDead, t);
      ++sh.epoch;  // queued + executing work dies with the process
      ++rep.shards[ev.shard].crashes;
      if (supervised) {
        push_heap(t + rc.watchdog_cycles, Event::kDetect, ev.shard);
      }
    } else {  // kHang
      if (sh.st != SState::kAlive) {
        return;
      }
      set_state(ev.shard, SState::kHung, t);
      ++rep.shards[ev.shard].hangs;
      if (supervised) {
        // Slow-but-alive answers health probes late; conviction takes 2x.
        push_heap(t + 2 * rc.watchdog_cycles, Event::kDetect, ev.shard);
      }
    }
  };

  for (;;) {
    size_t src = 0;
    EventKey key = heads[0];
    for (size_t k = 1; k < heads.size(); ++k) {
      const bool earlier = heads[k] < key;
      key = earlier ? heads[k] : key;
      src = earlier ? k : src;
    }
    if (key == kNoEvent) {
      break;
    }
    Event ev;
    if (src == heap_src) {
      ev = heap.top();
      heap.pop();
      heads[src] = heap.empty() ? kNoEvent : KeyOf(heap.top().time, heap.top().seq);
    } else {
      std::deque<Slot>& q = fifos[src];
      const Slot slot = q.front();
      q.pop_front();
      // A timeout whose attempt already ended pops as a no-op; most attempts
      // complete long before their deadline, so skip those here.
      while (src == kTimeouts && !q.empty() && attempts[q.front().id].ended) {
        q.pop_front();
      }
      heads[src] = q.empty() ? kNoEvent : KeyOf(q.front().time, q.front().seq);
      ev.time = slot.time;
      ev.seq = slot.seq;
      ev.id = slot.id;
      ev.kind = src == kArrivals   ? Event::kArrival
                : src == kTimeouts ? Event::kTimeout
                : src == kHedges   ? Event::kHedge
                                   : Event::kDone;
    }
    const uint64_t t = ev.time;
    switch (ev.kind) {
      case Event::kArrival: {
        const uint32_t r = ev.id;
        while (next_fault < plan.size() && plan[next_fault].at_request <= dispatched + 1) {
          apply_fault(plan[next_fault++], t);
        }
        ++dispatched;
        ReqState& rq = rstate[r];
        rq.issue = t;
        rq.degraded = unhealthy > 0;
        rq.chain = 1;
        dispatch(r, t, /*hedge=*/false);
        if (hedging && ring.live_shards() > 1) {
          rq.hedge_pending = true;
          push_fifo(kHedges, t + rc.hedge_delay_cycles, r);
        }
        if (in.open_loop && static_cast<size_t>(r) + 1 < reqs.size()) {
          push_fifo(kArrivals, arrivals[r + 1], r + 1);
        }
        break;
      }
      case Event::kDone: {
        AttemptState& at = attempts[ev.id];
        ShardState& sh = shard[at.shard];
        if (at.epoch != sh.epoch) {
          break;  // the shard died under this attempt; it never completes
        }
        end_time = std::max(end_time, t);
        const uint8_t oc = outcome_on(at.req, at.shard);
        // The supervisor watches responses: suspect drops accumulate toward
        // conviction, successes clear the counter.
        if (oc == 2) {
          if (++sh.consec >= rc.sick_threshold && supervised && sh.in_ring &&
              sh.st == SState::kAlive) {
            ++rep.convictions;
            repair(at.shard, t);
          }
        } else if (oc == 0) {
          sh.consec = 0;
        }
        ReqState& rq = rstate[at.req];
        if (at.ended || rq.resolved) {
          // The client gave up, or a duplicate already answered: the shard's
          // work was wasted.
          rep.wasted_cycles += at.demand;
          if (!at.ended) {
            at.ended = true;
            --rq.live;
          }
          break;
        }
        at.ended = true;
        --rq.live;
        rq.resolved = true;
        if (oc == 0) {
          ++rep.completed;
          const uint64_t lat = t - rq.issue;
          latency->Add(lat);
          (rq.degraded ? rep.degraded : rep.healthy).Add(lat);
          if (at.hedge) {
            ++rep.hedge_wins;
          }
        } else {
          // Contained app error: a definitive reply, not a timeout — the
          // client does not retry it.
          ++rep.failed_app;
        }
        resolve_client(at.req, t);
        break;
      }
      case Event::kTimeout: {
        AttemptState& at = attempts[ev.id];
        if (at.ended) {
          break;  // completed at or before the deadline
        }
        ReqState& rq = rstate[at.req];
        at.ended = true;
        --rq.live;
        if (rq.resolved) {
          break;  // a duplicate already answered; abandon quietly
        }
        ++rep.timed_out_attempts;
        if (!at.hedge && rq.chain < 1 + rc.max_retries) {
          rq.pending_retry = true;
          push_heap(t + RetryBackoffCycles(rc, in.seed, at.req, rq.chain), Event::kRetry,
                    at.req);
        }
        maybe_fail(at.req, t);
        break;
      }
      case Event::kRetry: {
        const uint32_t r = ev.id;
        ReqState& rq = rstate[r];
        rq.pending_retry = false;
        if (rq.resolved) {
          break;
        }
        ++rq.chain;
        ++rep.retries;
        // Routed through the *current* ring: post-failover retries land on
        // survivors.
        dispatch(r, t, /*hedge=*/false);
        break;
      }
      case Event::kHedge: {
        const uint32_t r = ev.id;
        ReqState& rq = rstate[r];
        rq.hedge_pending = false;
        if (rq.resolved) {
          break;
        }
        if (ring.live_shards() > 1) {
          ++rep.hedges;
          dispatch(r, t, /*hedge=*/true);
        } else {
          maybe_fail(r, t);
        }
        break;
      }
      case Event::kDetect: {
        ShardState& sh = shard[ev.id];
        if (sh.st != SState::kDead && sh.st != SState::kHung) {
          break;  // stale: already repaired or convicted
        }
        ++rep.detections;
        repair(ev.id, t);
        break;
      }
      case Event::kRestartDone: {
        ShardState& sh = shard[ev.id];
        set_state(ev.id, SState::kAlive, t);
        // Fresh incarnation, empty queue. Every completion still queued was
        // pushed before the epoch bump that started this restart, so each
        // would pop as a no-op; dropping them lets free_at restart at t.
        sh.free_at = t;
        fifos[kDoneBase + ev.id].clear();
        heads[kDoneBase + ev.id] = kNoEvent;
        sh.consec = 0;
        ++rep.shards[ev.id].restarts;
        ++rep.restarts;
        break;
      }
    }
  }

  // Flush up/down-time integrals to the end of the run.
  for (uint32_t s = 0; s < nshards; ++s) {
    ShardState& sh = shard[s];
    ShardAvailability& av = rep.shards[s];
    if (end_time > sh.last_change) {
      const bool up = sh.st == SState::kAlive || sh.st == SState::kHung;
      (up ? av.up_cycles : av.down_cycles) += end_time - sh.last_change;
    }
    const uint64_t span = av.up_cycles + av.down_cycles;
    av.uptime = span == 0 ? 1.0 : static_cast<double>(av.up_cycles) / span;
  }
  if (end_time > 0) {
    rep.goodput_rps = static_cast<double>(rep.completed) /
                      (static_cast<double>(end_time) / (in.ghz * 1e9));
  }
  *served = rep.completed;
  *dropped = rep.failed_app + rep.failed_timeout;

  uint64_t digest = 1469598103934665603ull;
  digest = FnvMix(digest, rep.completed);
  digest = FnvMix(digest, rep.failed_app);
  digest = FnvMix(digest, rep.failed_timeout);
  digest = FnvMix(digest, rep.attempts);
  digest = FnvMix(digest, rep.retries);
  digest = FnvMix(digest, rep.hedges);
  digest = FnvMix(digest, rep.hedge_wins);
  digest = FnvMix(digest, rep.timed_out_attempts);
  digest = FnvMix(digest, rep.wasted_cycles);
  digest = FnvMix(digest, rep.detections);
  digest = FnvMix(digest, rep.convictions);
  digest = FnvMix(digest, rep.restarts);
  digest = FnvMix(digest, rep.failovers);
  for (const ShardAvailability& av : rep.shards) {
    digest = FnvMix(digest, av.up_cycles);
    digest = FnvMix(digest, av.down_cycles);
    digest = FnvMix(digest, (static_cast<uint64_t>(av.crashes) << 32) |
                                (static_cast<uint64_t>(av.hangs) << 16) |
                                (static_cast<uint64_t>(av.restarts) << 1) |
                                (av.removed ? 1u : 0u));
  }
  digest = FnvMix(digest, rep.healthy.Digest());
  digest = FnvMix(digest, rep.degraded.Digest());
  rep.digest = digest;
  return end_time;
}

}  // namespace sgxb
