#include "src/trace/sweep.h"

#include <map>
#include <tuple>
#include <unordered_map>

#include "src/common/host_parallel.h"

namespace sgxb {

namespace {

uint64_t FnvFold(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

// Stable FNV-1a over every SimConfig field; the bucket index of the
// duplicate key (equality is decided by operator==, never by this hash).
uint64_t SimConfigHash(const SimConfig& config) {
  uint64_t h = 14695981039346656037ull;
  h = FnvFold(h, config.l1_bytes);
  h = FnvFold(h, config.l1_ways);
  h = FnvFold(h, config.l2_bytes);
  h = FnvFold(h, config.l2_ways);
  h = FnvFold(h, config.l3_bytes);
  h = FnvFold(h, config.l3_ways);
  h = FnvFold(h, config.epc_bytes);
  h = FnvFold(h, config.enclave_mode ? 1 : 0);
  const CostModel& c = config.costs;
  const uint32_t costs[] = {c.alu,       c.branch,     c.fp,          c.call,
                            c.l1_hit,    c.l2_hit,     c.l3_hit,      c.dram,
                            c.mee_line,  c.epc_fault,  c.minor_fault, c.syscall_exit,
                            c.syscall_native};
  for (uint32_t f : costs) {
    h = FnvFold(h, f);
  }
  return h;
}

struct RequestKey {
  uint64_t trace_hash = 0;
  SimConfig config;
  bool operator==(const RequestKey& other) const {
    return trace_hash == other.trace_hash && config == other.config;
  }
};

struct RequestKeyHash {
  size_t operator()(const RequestKey& key) const {
    return static_cast<size_t>(key.trace_hash ^ SimConfigHash(key.config));
  }
};

}  // namespace

SweepEngine::SweepEngine(const SweepOptions& options) : options_(options) {}

std::vector<ReplayResult> SweepEngine::Run(const std::vector<SweepRequest>& requests) {
  std::vector<ReplayResult> out(requests.size());
  stats_.requests += requests.size();

  // Phase A (serial): fold in-batch duplicates onto one canonical request
  // each. Doing all dedup before dispatch keeps SweepStats a pure function
  // of the request sequence — no thread-count dependence.
  std::vector<size_t> canon;                       // canonical request indices
  std::vector<std::vector<size_t>> copies(requests.size());
  std::unordered_map<RequestKey, size_t, RequestKeyHash> seen;
  for (size_t i = 0; i < requests.size(); ++i) {
    const SweepRequest& r = requests[i];
    const auto ins = seen.emplace(RequestKey{r.trace->stream_hash(), r.config}, i);
    if (!ins.second) {
      copies[ins.first->second].push_back(i);
      ++stats_.memo_hits;
    } else {
      canon.push_back(i);
    }
  }

  // Phase B (serial): group canonical requests by (trace, cache geometry) —
  // the partition within which one capture covers every config. std::map
  // keeps group numbering (and so stats and capture bases) deterministic.
  struct Group {
    std::vector<size_t> members;  // indices into `requests`
    std::unique_ptr<ConfigSweeper> sweeper;
  };
  using GroupKey = std::tuple<const DecodedTrace*, uint64_t, uint32_t, uint64_t,
                              uint32_t, uint64_t, uint32_t>;
  std::map<GroupKey, size_t> group_index;
  std::vector<Group> groups;
  std::vector<size_t> group_of(canon.size(), 0);
  for (size_t k = 0; k < canon.size(); ++k) {
    const SweepRequest& r = requests[canon[k]];
    const SimConfig& c = r.config;
    const GroupKey key{r.trace,    c.l1_bytes, c.l1_ways, c.l2_bytes,
                       c.l2_ways,  c.l3_bytes, c.l3_ways};
    const auto ins = group_index.emplace(key, groups.size());
    if (ins.second) {
      groups.emplace_back();
    }
    groups[ins.first->second].members.push_back(canon[k]);
    group_of[k] = ins.first->second;
  }

  const uint32_t threads =
      options_.threads == 0 ? HostHardwareThreads() : options_.threads;

  // Phase C (parallel): build captures. A capture costs one full replay, so
  // it only pays off when a group has at least two members; singletons go
  // straight to full replay in phase D.
  std::vector<size_t> capture_groups;
  for (size_t g = 0; g < groups.size(); ++g) {
    if (groups[g].members.size() >= 2) {
      capture_groups.push_back(g);
    }
  }
  ParallelForWorkStealing(capture_groups.size(), threads, [&](size_t i) {
    Group& g = groups[capture_groups[i]];
    const SweepRequest& first = requests[g.members.front()];
    SimConfig base = SimConfigFromHeader(first.trace->header());
    const SimConfig& c = first.config;
    base.l1_bytes = c.l1_bytes;
    base.l1_ways = c.l1_ways;
    base.l2_bytes = c.l2_bytes;
    base.l2_ways = c.l2_ways;
    base.l3_bytes = c.l3_bytes;
    base.l3_ways = c.l3_ways;
    base.enclave_mode = true;  // an enclave-ON capture covers both modes
    g.sweeper = std::make_unique<ConfigSweeper>(*first.trace, base);
  });
  stats_.captures_built += capture_groups.size();

  // Phase D (parallel): answer every canonical request over the shared
  // decode — capture re-pricing where a group sweeper covers the config,
  // full replay otherwise. Work stealing absorbs the five-orders-of-
  // magnitude cost spread between the two tiers.
  ParallelForWorkStealing(canon.size(), threads, [&](size_t k) {
    const SweepRequest& r = requests[canon[k]];
    const ConfigSweeper* sweeper = groups[group_of[k]].sweeper.get();
    if (sweeper != nullptr && sweeper->Covers(r.config)) {
      out[canon[k]] = sweeper->Replay(r.config);
    } else {
      out[canon[k]] = ReplayDecoded(*r.trace, r.config);
    }
  });
  for (size_t k = 0; k < canon.size(); ++k) {
    const ConfigSweeper* sweeper = groups[group_of[k]].sweeper.get();
    if (sweeper != nullptr && sweeper->Covers(requests[canon[k]].config)) {
      ++stats_.capture_replays;
    } else {
      ++stats_.full_replays;
    }
  }

  // Phase E (serial): fan results out to in-batch duplicates.
  for (size_t i : canon) {
    for (size_t j : copies[i]) {
      out[j] = out[i];
    }
  }
  return out;
}

}  // namespace sgxb
