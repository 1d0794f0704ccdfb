// perfbench: the repository benchmark. One process, one workload per run.
//
//   perfbench --workload=live_fig07 --seed=1 --seconds=15 --trace=0 --work_dir=DIR
//
// A run sets up several times (the median is setup_s), then repeats measured
// passes of the workload for --seconds, then checks the outputs with the
// workload's oracles, and prints one JSON line: the end-to-end metrics with
// --trace=0, the per-layer metrics with --trace=1. The traced run alternates
// traced and untraced passes, keeps a span per call into the simulator in
// memory and writes them to DIR at the end. Workloads, metrics and oracles
// are documented in perfbench/README.md.
//
// The benchmark drives the simulator only through its public API:
// WorkloadInfo::run, Enclave, TraceRecorder/SaveTrace/MappedTrace/
// DecodedTrace, ReplayDecoded, SweepEngine::Run and RunFarm. Spans are taken
// here, around those calls, never inside the simulator.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/metrics.h"
#include "src/common/host_parallel.h"
#include "src/common/ir_engine.h"
#include "src/common/rng.h"
#include "src/enclave/enclave.h"
#include "src/farm/farm.h"
#include "src/policy/registry.h"
#include "src/trace/decoded_trace.h"
#include "src/trace/sweep.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_recorder.h"
#include "src/trace/trace_replay.h"
#include "src/workloads/workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using sgxb::PolicyKind;

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
// A run measures at least this many passes, even past --seconds.
constexpr int kMinPasses = 3;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent. Kept in memory, written once at the end.

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  // Opens a span under `parent` (0 = root); returns its id, 0 when disabled.
  uint32_t Open(const char* name, uint32_t parent) {
    if (!enabled_) {
      return 0;
    }
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, parent, ThreadIndex(), now, -1});
    return static_cast<uint32_t>(spans_.size());
  }

  void Close(uint32_t id) {
    if (id == 0) {
      return;
    }
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = now;
  }

  // Total seconds of the closed spans called `name` directly under `parent`.
  double Sum(const std::string& name, uint32_t parent) const {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t ns = 0;
    for (const Span& s : spans_) {
      if (s.parent == parent && s.end_ns >= 0 && name == s.name) {
        ns += s.end_ns - s.start_ns;
      }
    }
    return 1e-9 * static_cast<double>(ns);
  }

  // Chrome trace-event JSON (chrome://tracing, Perfetto): one complete event
  // per span, with its id and parent id in args.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(f, "{\"traceEvents\": [");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const int64_t end = s.end_ns >= 0 ? s.end_ns : s.start_ns;
      std::fprintf(f,
                   "%s\n  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %u}}",
                   i == 0 ? "" : ",", s.name, s.tid, 1e-3 * static_cast<double>(s.start_ns),
                   1e-3 * static_cast<double>(end - s.start_ns), i + 1, s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  struct Span {
    const char* name;  // string literal
    uint32_t parent;
    uint32_t tid;
    int64_t start_ns;
    int64_t end_ns;  // -1 while open
  };

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }
  static uint32_t ThreadIndex() {
    static std::atomic<uint32_t> next{0};
    thread_local const uint32_t index = next.fetch_add(1);
    return index;
  }

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, uint32_t parent)
      : log_(log), id_(log.Open(name, parent)) {}
  ~ScopedSpan() { log_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  SpanLog& log_;
  const uint32_t id_;
};

// ---------------------------------------------------------------------------
// Oracle bookkeeping: every benchmark operation and every output check is
// one attempt; a wrong output or an unexpected crash is one failure.

class Checker {
 public:
  void Expect(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "[perfbench] FAILED: %s\n", what.c_str());
    }
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

using Layers = std::map<std::string, double>;

struct Metric {
  double value = 0.0;
  const char* unit = "";
};
using Metrics = std::map<std::string, Metric>;

// ---------------------------------------------------------------------------
// Jobs: one WorkloadInfo::run call each.

struct Job {
  const sgxb::WorkloadInfo* info = nullptr;
  PolicyKind kind = PolicyKind::kNative;
  sgxb::PolicyOptions options;
  sgxb::WorkloadConfig cfg;
  bool opts_none = false;
  std::string label;
};

sgxb::PolicyOptions NoOpts(sgxb::PolicyOptions o) {
  o.opt_safe_elision = false;
  o.opt_hoist_checks = false;
  o.opt_redundant_elision = false;
  o.opt_pattern_loops = false;
  o.opt_infield_elision = false;
  return o;
}

// The registry is part of set-up: every set-up looks the jobs up afresh.
std::vector<Job> MakeJobs(const std::vector<std::string>& names,
                          const std::vector<PolicyKind>& kinds, sgxb::SizeClass size,
                          uint64_t seed, bool with_opts_none) {
  std::vector<Job> jobs;
  for (const std::string& name : names) {
    const sgxb::WorkloadInfo* info = sgxb::WorkloadRegistry::Instance().Find(name);
    if (info == nullptr) {
      std::fprintf(stderr, "[perfbench] workload '%s' is not registered\n", name.c_str());
      std::exit(1);
    }
    for (PolicyKind kind : kinds) {
      for (int none = 0; none <= (with_opts_none ? 1 : 0); ++none) {
        Job j;
        j.info = info;
        j.kind = kind;
        j.options = sgxb::SchemeOf(kind).default_options;
        if (none != 0) {
          j.options = NoOpts(j.options);
        }
        j.opts_none = none != 0;
        j.cfg.size = size;
        j.cfg.threads = 1;
        j.cfg.seed = seed;
        j.label = name + "/" + sgxb::SchemeOf(kind).id + (none != 0 ? "/opts=none" : "");
        jobs.push_back(std::move(j));
      }
    }
  }
  return jobs;
}

sgxb::RunResult RunJob(const Job& job, sgxb::TraceRecorder* recorder = nullptr,
                       sgxb::IrEngine engine = sgxb::IrEngine::kDefault) {
  sgxb::MachineSpec spec;  // inside the enclave, default 94 MiB EPC
  spec.trace = recorder;
  sgxb::PolicyOptions options = job.options;
  if (engine != sgxb::IrEngine::kDefault) {
    options.ir_engine = engine;
  }
  return job.info->run(job.kind, spec, options, job.cfg);
}

// Runs jobs[i] for every i in `which` over `threads` host threads, one
// "workloads.run" span per job under `parent`.
void RunJobs(const std::vector<Job>& jobs, const std::vector<size_t>& which, uint32_t threads,
             SpanLog& log, uint32_t parent, std::vector<sgxb::RunResult>* out) {
  out->assign(jobs.size(), sgxb::RunResult{});
  sgxb::ParallelFor(which.size(), threads, [&](size_t k) {
    const size_t i = which[k];
    ScopedSpan span(log, "workloads.run", parent);
    (*out)[i] = RunJob(jobs[i]);
  });
}

std::vector<size_t> AllIndices(size_t n) {
  std::vector<size_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = i;
  }
  return v;
}

// `k` indices out of [0, n), spread evenly, starting at an offset drawn from
// the seed: different seeds check different jobs.
std::vector<size_t> SampleIndices(size_t n, size_t k, uint64_t seed) {
  if (k >= n) {
    return AllIndices(n);
  }
  std::vector<size_t> v;
  for (size_t i = 0; i < k; ++i) {
    v.push_back((seed * 7 + i * n / k) % n);
  }
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

bool SameRun(const sgxb::RunResult& a, const sgxb::RunResult& b) {
  return a.cycles == b.cycles && a.counters == b.counters && a.crashed == b.crashed &&
         a.peak_vm_bytes == b.peak_vm_bytes && a.mpx_bt_count == b.mpx_bt_count;
}

// The one crash the paper expects from these jobs: MPX's bounds tables
// exhausting the enclave address space (§6.2). Every other crash of a
// benign job is a fault of the simulator.
bool ExpectedCrash(const Job& job, const sgxb::RunResult& r) {
  return job.kind == PolicyKind::kMpx && r.trap == sgxb::TrapKind::kOutOfMemory;
}

void CheckPass(const std::vector<Job>& jobs, const std::vector<sgxb::RunResult>& results,
               std::vector<sgxb::RunResult>* reference, Checker* check) {
  const bool first = reference->empty();
  if (first) {
    *reference = results;
  }
  for (size_t i = 0; i < jobs.size(); ++i) {
    const sgxb::RunResult& r = results[i];
    check->Expect(!r.crashed || ExpectedCrash(jobs[i], r),
                  jobs[i].label + " crashed: " + r.trap_message);
    if (!first) {
      check->Expect(SameRun(r, (*reference)[i]), jobs[i].label + " differs between passes");
    }
  }
}

// Per-layer counts common to every job-driven workload.
void AddJobCounts(const std::vector<sgxb::RunResult>& results, Layers* layers) {
  sgxb::PerfCounters c;
  for (const sgxb::RunResult& r : results) {
    c += r.counters;
  }
  (*layers)["enclave.constructs"] += static_cast<double>(results.size());
  (*layers)["workloads.app_accesses"] += static_cast<double>(c.loads + c.stores);
  (*layers)["policy.bounds_checks"] += static_cast<double>(c.bounds_checks);
  (*layers)["policy.metadata_accesses"] +=
      static_cast<double>(c.metadata_loads + c.metadata_stores);
  (*layers)["sim.l1_accesses"] += static_cast<double>(c.l1_accesses);
  (*layers)["sim.llc_misses"] += static_cast<double>(c.llc_misses);
  (*layers)["sim.epc_faults"] += static_cast<double>(c.epc_faults);
}

// Geomean over `jobs` of `kind` against the native run of the same workload
// (and the same opts), crashed pairs excluded.
double Overhead(const std::vector<Job>& jobs, const std::vector<sgxb::RunResult>& results,
                PolicyKind kind, bool vm) {
  std::vector<OverheadPair> pairs;
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].kind != kind || jobs[i].opts_none) {
      continue;
    }
    for (size_t b = 0; b < jobs.size(); ++b) {
      if (jobs[b].kind == PolicyKind::kNative && jobs[b].info == jobs[i].info &&
          !jobs[b].opts_none) {
        OverheadPair p;
        p.scheme = static_cast<double>(vm ? results[i].peak_vm_bytes : results[i].cycles);
        p.native = static_cast<double>(vm ? results[b].peak_vm_bytes : results[b].cycles);
        p.crashed = results[i].crashed || results[b].crashed;
        pairs.push_back(p);
      }
    }
  }
  return GeomeanOverhead(pairs);
}

// sim_overhead_<scheme id> for each of `kinds`.
void AddOverheads(const std::vector<Job>& jobs, const std::vector<sgxb::RunResult>& results,
                  const std::vector<PolicyKind>& kinds, Metrics* out) {
  for (PolicyKind kind : kinds) {
    (*out)[std::string("sim_overhead_") + sgxb::SchemeOf(kind).id] = {
        Overhead(jobs, results, kind, false), "ratio"};
  }
}

// Record -> decode -> replay under the recording config for each selected
// job: live == replay, and the recorded run equals the untraced one.
void LiveReplayOracle(const std::vector<Job>& jobs, const std::vector<size_t>& which,
                      const std::vector<sgxb::RunResult>& untraced, uint32_t threads,
                      SpanLog& log, uint32_t parent, Checker* check, Layers* layers) {
  std::vector<double> l1(jobs.size(), 0.0);
  std::vector<double> events(jobs.size(), 0.0);
  std::vector<double> bytes(jobs.size(), 0.0);
  sgxb::ParallelFor(which.size(), threads, [&](size_t k) {
    const size_t i = which[k];
    sgxb::TraceRecorder recorder(jobs[i].label);
    sgxb::RunResult live;
    {
      ScopedSpan span(log, "trace.record", parent);
      live = RunJob(jobs[i], &recorder);
    }
    sgxb::Trace trace = recorder.TakeTrace();
    std::unique_ptr<sgxb::DecodedTrace> decoded;
    {
      ScopedSpan span(log, "trace.decode", parent);
      decoded = std::make_unique<sgxb::DecodedTrace>(trace);
    }
    sgxb::ReplayResult replay;
    {
      ScopedSpan span(log, "sim.replay", parent);
      replay = sgxb::ReplayDecoded(*decoded, sgxb::SimConfigFromHeader(trace.header));
    }
    check->Expect(replay.cycles == live.cycles && replay.counters == live.counters &&
                      replay.crashed == live.crashed,
                  jobs[i].label + ": replay differs from the live run");
    check->Expect(SameRun(live, untraced[i]),
                  jobs[i].label + ": recording changed the simulated result");
    l1[i] = static_cast<double>(replay.counters.l1_accesses);
    events[i] = static_cast<double>(trace.summary.event_count);
    bytes[i] = static_cast<double>(trace.events.size());
  });
  double l1_total = 0.0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    l1_total += l1[i];
    (*layers)["trace.events"] += events[i];
    (*layers)["trace.encoded_bytes"] += bytes[i];
  }
  const double replay_s = log.Sum("sim.replay", parent);
  (*layers)["sim.replay_s"] += replay_s;
  (*layers)["trace.record_s"] += log.Sum("trace.record", parent);
  (*layers)["trace.decode_s"] += log.Sum("trace.decode", parent);
  (*layers)["sim.ns_per_access"] = l1_total > 0 ? 1e9 * replay_s / l1_total : 0.0;
  (*layers)["trace.bytes_per_access"] =
      l1_total > 0 ? (*layers)["trace.encoded_bytes"] / l1_total : 0.0;
}

// ---------------------------------------------------------------------------
// Workloads.

struct Context {
  uint64_t seed = 1;
  uint32_t threads = 1;
  bool trace = false;
  std::string work_dir;
};

class Workload {
 public:
  explicit Workload(const Context& ctx) : ctx_(ctx) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Everything before timing, warm-up included. Runs kSetups times; each
  // call starts over.
  virtual void Setup(SpanLog& log, uint32_t parent) = 0;
  // One measured pass; adds its per-layer counts to `layers`.
  virtual void Pass(SpanLog& log, uint32_t parent, Checker* check, Layers* layers) = 0;
  // Output checks after the measured phase; may add per-layer numbers.
  virtual void Oracles(SpanLog& log, uint32_t parent, Checker* check, Layers* layers) = 0;
  // The workload's simulated end-to-end metrics.
  virtual void SimMetrics(Metrics* out) const = 0;
  // Per-layer numbers derived once per run from the set-up spans.
  virtual void SetupLayers(const SpanLog& /*log*/, const std::vector<uint32_t>& /*setups*/,
                           Layers* /*layers*/) const {}
  // Enclave configuration the workload's runs construct.
  virtual sgxb::EnclaveConfig EnclaveCfg() const { return sgxb::EnclaveConfig(); }

 protected:
  const Context ctx_;
};

// live_fig07: Fig. 7 jobs run live, four schemes, in the enclave at 94 MiB.
class LiveFig07 : public Workload {
 public:
  using Workload::Workload;

  void Setup(SpanLog& log, uint32_t parent) override {
    // Heavy jobs first so the host threads finish together.
    jobs_ = MakeJobs({"mcf", "ferret", "dedup", "matrixmul", "kmeans", "histogram"},
                     {PolicyKind::kMpx, PolicyKind::kAsan, PolicyKind::kSgxBounds,
                      PolicyKind::kNative},
                     sgxb::SizeClass::kS, ctx_.seed, false);
    std::vector<sgxb::RunResult> discard;
    RunJobs(jobs_, AllIndices(std::min<size_t>(ctx_.threads, jobs_.size())), ctx_.threads, log,
            parent, &discard);
  }

  void Pass(SpanLog& log, uint32_t parent, Checker* check, Layers* layers) override {
    RunJobs(jobs_, AllIndices(jobs_.size()), ctx_.threads, log, parent, &results_);
    CheckPass(jobs_, results_, &reference_, check);
    AddJobCounts(results_, layers);
    (*layers)["workloads.job_s"] += log.Sum("workloads.run", parent);
  }

  void Oracles(SpanLog& log, uint32_t parent, Checker* check, Layers* layers) override {
    // The traced run replays every job: workloads.self_s needs the replay
    // time of the same jobs job_s covers.
    const std::vector<size_t> which = ctx_.trace ? AllIndices(jobs_.size())
                                                 : SampleIndices(jobs_.size(), ctx_.threads,
                                                                 ctx_.seed);
    LiveReplayOracle(jobs_, which, reference_, ctx_.threads, log, parent, check, layers);
  }

  void SimMetrics(Metrics* out) const override {
    AddOverheads(jobs_, reference_, {PolicyKind::kSgxBounds, PolicyKind::kAsan, PolicyKind::kMpx},
                 out);
    (*out)["sim_mem_overhead_sgxbounds"] = {
        Overhead(jobs_, reference_, PolicyKind::kSgxBounds, true), "ratio"};
  }

 private:
  std::vector<Job> jobs_;
  std::vector<sgxb::RunResult> results_;
  std::vector<sgxb::RunResult> reference_;
};

// ir_kernels: the IR suite under every registered scheme, with and without
// the check optimisations, on the default (threaded) engine.
class IrKernels : public Workload {
 public:
  using Workload::Workload;

  void Setup(SpanLog& log, uint32_t parent) override {
    std::vector<PolicyKind> kinds;
    for (const sgxb::SchemeDescriptor* s : sgxb::AllSchemes()) {
      kinds.push_back(s->kind);
    }
    jobs_ = MakeJobs({"ir_stencil", "ir_copy", "ir_mix", "ir_prng"}, kinds,
                     sgxb::SizeClass::kXL, ctx_.seed, true);
    // Warm-up: every job once.
    std::vector<sgxb::RunResult> discard;
    RunJobs(jobs_, AllIndices(jobs_.size()), ctx_.threads, log, parent, &discard);
  }

  void Pass(SpanLog& log, uint32_t parent, Checker* check, Layers* layers) override {
    const sgxb::IrExecStatsSnapshot before = sgxb::SnapshotIrExecStats();
    RunJobs(jobs_, AllIndices(jobs_.size()), ctx_.threads, log, parent, &results_);
    const sgxb::IrExecStatsSnapshot after = sgxb::SnapshotIrExecStats();
    CheckPass(jobs_, results_, &reference_, check);
    AddJobCounts(results_, layers);
    (*layers)["ir.job_s"] += log.Sum("workloads.run", parent);
    (*layers)["ir.decode_hits"] += static_cast<double>(after.decode_hits - before.decode_hits);
    (*layers)["ir.decode_misses"] +=
        static_cast<double>(after.decode_misses - before.decode_misses);
    for (const sgxb::RunResult& r : results_) {
      const sgxb::CheckPassStats& p = r.pass_stats;
      (*layers)["ir.checks_inserted"] += p.checks_inserted;
      (*layers)["ir.checks_elided"] +=
          p.checks_elided_safe + p.checks_elided_redundant + p.checks_elided_infield;
      (*layers)["ir.checks_hoisted"] += p.checks_hoisted + p.checks_pattern_hoisted;
    }
  }

  void Oracles(SpanLog& log, uint32_t parent, Checker* check, Layers* /*layers*/) override {
    // The reference interpreter is the oracle of the fast engines.
    const std::vector<size_t> which = SampleIndices(jobs_.size(), ctx_.threads, ctx_.seed);
    sgxb::ParallelFor(which.size(), ctx_.threads, [&](size_t k) {
      const size_t i = which[k];
      ScopedSpan span(log, "ir.reference_run", parent);
      const sgxb::RunResult ref = RunJob(jobs_[i], nullptr, sgxb::IrEngine::kReference);
      const sgxb::RunResult& fast = reference_[i];
      const sgxb::CheckPassStats& a = ref.pass_stats;
      const sgxb::CheckPassStats& b = fast.pass_stats;
      check->Expect(SameRun(ref, fast) && ref.trap == fast.trap &&
                        a.checks_inserted == b.checks_inserted &&
                        a.checks_elided_safe == b.checks_elided_safe &&
                        a.checks_hoisted == b.checks_hoisted,
                    jobs_[i].label + ": reference engine differs");
    });
  }

  void SimMetrics(Metrics* out) const override {
    AddOverheads(jobs_, reference_,
                 {PolicyKind::kSgxBounds, PolicyKind::kAsan, PolicyKind::kMpx, PolicyKind::kShadow},
                 out);
  }

 private:
  std::vector<Job> jobs_;
  std::vector<sgxb::RunResult> results_;
  std::vector<sgxb::RunResult> reference_;
};

// replay_sweep: traces recorded once in set-up; each pass loads, decodes and
// prices them over an EPC x cost-table x enclave-mode x L3 grid with a fresh
// SweepEngine.
class ReplaySweep : public Workload {
 public:
  using Workload::Workload;

  void Setup(SpanLog& log, uint32_t parent) override {
    jobs_ = MakeJobs({"histogram", "kmeans"}, {PolicyKind::kSgxBounds, PolicyKind::kNative},
                     sgxb::SizeClass::kS, ctx_.seed, false);
    recorded_.assign(jobs_.size(), sgxb::RunResult{});
    paths_.assign(jobs_.size(), std::string());
    accesses_ = 0.0;
    sgxb::ParallelFor(jobs_.size(), ctx_.threads, [&](size_t i) {
      sgxb::TraceRecorder recorder(jobs_[i].label);
      {
        ScopedSpan span(log, "trace.record", parent);
        recorded_[i] = RunJob(jobs_[i], &recorder);
      }
      const sgxb::Trace trace = recorder.TakeTrace();
      paths_[i] = ctx_.work_dir + "/" + std::to_string(i) + ".sgxtrace";
      std::string error;
      ScopedSpan span(log, "trace.save", parent);
      if (!sgxb::SaveTrace(trace, paths_[i], &error)) {
        std::fprintf(stderr, "[perfbench] cannot save %s: %s\n", paths_[i].c_str(),
                     error.c_str());
        std::exit(1);
      }
    });
    for (const sgxb::RunResult& r : recorded_) {
      accesses_ += static_cast<double>(r.counters.l1_accesses);
    }
    // Warm-up: load and decode every trace once.
    LoadAndDecode(log, parent);
  }

  void Pass(SpanLog& log, uint32_t parent, Checker* check, Layers* layers) override {
    LoadAndDecode(log, parent);
    requests_.clear();
    base_request_.assign(decoded_.size(), 0);
    for (size_t t = 0; t < decoded_.size(); ++t) {
      const sgxb::SimConfig base = sgxb::SimConfigFromHeader(decoded_[t]->header());
      for (uint32_t l3_shift : {0u, 1u}) {
        for (bool enclave : {true, false}) {
          for (uint32_t cost_pct : {100u, 150u}) {
            for (uint64_t epc_mib : {94u, 32u, 64u, 128u}) {
              sgxb::SimConfig cfg = base;
              cfg.l3_bytes = base.l3_bytes >> l3_shift;
              cfg.enclave_mode = enclave;
              cfg.epc_bytes = epc_mib * sgxb::kMiB;
              cfg.costs.dram = base.costs.dram * cost_pct / 100;
              cfg.costs.mee_line = base.costs.mee_line * cost_pct / 100;
              cfg.costs.epc_fault = base.costs.epc_fault * cost_pct / 100;
              if (cfg == base) {
                base_request_[t] = requests_.size();
              }
              requests_.push_back(sgxb::SweepRequest{decoded_[t].get(), cfg});
            }
          }
        }
      }
    }
    sgxb::SweepOptions options;
    options.threads = ctx_.threads;
    sgxb::SweepEngine engine(options);  // fresh: no memo carried across passes
    {
      ScopedSpan span(log, "sweep.engine", parent);
      answers_ = engine.Run(requests_);
    }
    const bool first = reference_.empty();
    if (first) {
      reference_ = answers_;
    }
    for (size_t i = 0; i < answers_.size(); ++i) {
      check->Expect(first || (answers_[i].cycles == reference_[i].cycles &&
                              answers_[i].counters == reference_[i].counters),
                    "sweep answer " + std::to_string(i) + " differs between passes");
    }
    const sgxb::SweepStats& st = engine.stats();
    double events = 0.0;
    double bytes = 0.0;
    for (const auto& d : decoded_) {
      events += static_cast<double>(d->event_count());
      bytes += static_cast<double>(d->encoded_bytes());
    }
    (*layers)["trace.load_s"] += log.Sum("trace.load", parent);
    (*layers)["trace.decode_s"] += log.Sum("trace.decode", parent);
    (*layers)["trace.events"] += events;
    (*layers)["trace.encoded_bytes"] += bytes;
    (*layers)["trace.bytes_per_access"] = accesses_ > 0 ? bytes / accesses_ : 0.0;
    (*layers)["sweep.engine_s"] += log.Sum("sweep.engine", parent);
    (*layers)["sweep.requests"] += static_cast<double>(st.requests);
    (*layers)["sweep.captures_built"] += static_cast<double>(st.captures_built);
    (*layers)["sweep.capture_replays"] += static_cast<double>(st.capture_replays);
    (*layers)["sweep.full_replays"] += static_cast<double>(st.full_replays);
    (*layers)["sweep.memo_hits"] += static_cast<double>(st.memo_hits);
    (*layers)["sweep.repriced_frac"] =
        st.requests > 0 ? static_cast<double>(st.capture_replays) / st.requests : 0.0;
  }

  void Oracles(SpanLog& log, uint32_t parent, Checker* check, Layers* layers) override {
    // Each trace replayed directly under its recording config must equal
    // the recorded live run and the sweep's answer for that config; a
    // seed-chosen sample of the other answers must equal direct replays.
    std::vector<size_t> which = SampleIndices(requests_.size(), ctx_.threads, ctx_.seed);
    const size_t n_base = decoded_.size();
    std::vector<sgxb::ReplayResult> direct(n_base + which.size());
    sgxb::ParallelFor(direct.size(), ctx_.threads, [&](size_t k) {
      const size_t req = k < n_base ? base_request_[k] : which[k - n_base];
      ScopedSpan span(log, k < n_base ? "sim.replay" : "sim.replay_sample", parent);
      direct[k] = sgxb::ReplayDecoded(*requests_[req].trace, requests_[req].config);
    });
    double l1 = 0.0;
    for (size_t k = 0; k < direct.size(); ++k) {
      const size_t req = k < n_base ? base_request_[k] : which[k - n_base];
      const sgxb::ReplayResult& d = direct[k];
      check->Expect(d.cycles == answers_[req].cycles && d.counters == answers_[req].counters &&
                        d.crashed == answers_[req].crashed,
                    "sweep answer " + std::to_string(req) + " differs from ReplayDecoded");
      if (k < n_base) {
        const sgxb::RunResult& live = recorded_[k];
        check->Expect(d.cycles == live.cycles && d.counters == live.counters &&
                          d.crashed == live.crashed,
                      jobs_[k].label + ": replay differs from the live run");
        l1 += static_cast<double>(d.counters.l1_accesses);
        (*layers)["sim.llc_misses"] += static_cast<double>(d.counters.llc_misses);
        (*layers)["sim.epc_faults"] += static_cast<double>(d.counters.epc_faults);
      }
    }
    const double replay_s = log.Sum("sim.replay", parent);
    (*layers)["sim.replay_s"] = replay_s;
    (*layers)["sim.l1_accesses"] = l1;
    (*layers)["sim.ns_per_access"] = l1 > 0 ? 1e9 * replay_s / l1 : 0.0;
  }

  void SimMetrics(Metrics* /*out*/) const override {}

  void SetupLayers(const SpanLog& log, const std::vector<uint32_t>& setups,
                   Layers* layers) const override {
    std::vector<double> record;
    std::vector<double> save;
    for (uint32_t s : setups) {
      record.push_back(log.Sum("trace.record", s));
      save.push_back(log.Sum("trace.save", s));
    }
    (*layers)["trace.record_s"] = Median(record);
    (*layers)["trace.save_s"] = Median(save);
  }

 private:
  void LoadAndDecode(SpanLog& log, uint32_t parent) {
    decoded_.clear();
    decoded_.resize(paths_.size());
    sgxb::ParallelFor(paths_.size(), ctx_.threads, [&](size_t i) {
      sgxb::MappedTrace mapped;
      std::string error;
      {
        ScopedSpan span(log, "trace.load", parent);
        if (!mapped.Load(paths_[i], &error)) {
          std::fprintf(stderr, "[perfbench] cannot load %s: %s\n", paths_[i].c_str(),
                       error.c_str());
          std::exit(1);
        }
      }
      ScopedSpan span(log, "trace.decode", parent);
      decoded_[i] = std::make_unique<sgxb::DecodedTrace>(
          mapped.header(), mapped.summary(), mapped.events_begin(), mapped.events_end());
    });
  }

  std::vector<Job> jobs_;
  std::vector<sgxb::RunResult> recorded_;
  std::vector<std::string> paths_;
  double accesses_ = 0.0;
  std::vector<std::unique_ptr<sgxb::DecodedTrace>> decoded_;
  std::vector<sgxb::SweepRequest> requests_;
  std::vector<size_t> base_request_;
  std::vector<sgxb::ReplayResult> answers_;
  std::vector<sgxb::ReplayResult> reference_;
};

// farm_faulted: memcached on 8 sgxbounds shards with sync transitions, a
// seeded crash + hang shard-fault plan under failover+hedge, open-loop
// (simulated) Poisson load on a fixed ladder of offered rates.
class FarmFaulted : public Workload {
 public:
  using Workload::Workload;

  static constexpr double kLadderKrps[] = {100, 200, 250, 300, 325, 350, 375, 400};
  static constexpr double kReferenceKrps = 200;
  static constexpr double kP99LimitUs = 50;
  static constexpr uint64_t kRequests = 200000;
  static constexpr uint64_t kFaultPlanSeed = 1;

  void Setup(SpanLog& log, uint32_t parent) override {
    proto_ = sgxb::FarmConfig();
    proto_.app = sgxb::FarmApp::kMemcached;
    proto_.policy = PolicyKind::kSgxBounds;
    proto_.shards = 8;
    proto_.load.requests = kRequests;
    proto_.load.seed = ctx_.seed;
    proto_.open_loop = true;
    proto_.host_threads = ctx_.threads;
    proto_.machine.seed = ctx_.seed;
    proto_.machine.costs.EnableTransitions(/*use_switchless=*/false);
    proto_.machine.recovery.enabled = true;
    proto_.resilience.enabled = true;
    proto_.resilience.mode = sgxb::RecoveryMode::kFailoverHedge;
    // One crash, then one hang on another shard, at points of fixed windows
    // drawn from the plan's own seed. The plan does not follow the workload
    // seed: where the retry-storm collapse starts depends on where the
    // faults land, and a plan that moved with the seed made
    // sim_max_krps_at_slo jump between ladder rungs from seed to seed.
    sgxb::Rng rng(kFaultPlanSeed);
    const uint32_t crash_shard = static_cast<uint32_t>(rng.NextBounded(proto_.shards));
    const uint32_t hang_shard = static_cast<uint32_t>(
        (crash_shard + 1 + rng.NextBounded(proto_.shards - 1)) % proto_.shards);
    sgxb::ShardFaultPlan plan;
    plan.seed = kFaultPlanSeed;
    plan.events.push_back({sgxb::ShardFaultKind::kCrash, crash_shard,
                           kRequests * 3 / 10 + rng.NextBounded(kRequests / 10)});
    plan.events.push_back({sgxb::ShardFaultKind::kHang, hang_shard,
                           kRequests * 5 / 10 + rng.NextBounded(kRequests / 10)});
    proto_.resilience.shard_faults = plan;
    // Warm-up: the whole ladder once.
    for (double krps : kLadderKrps) {
      RunAt(krps, ctx_.threads, log, parent);
    }
  }

  void Pass(SpanLog& log, uint32_t parent, Checker* check, Layers* layers) override {
    results_.clear();
    for (double krps : kLadderKrps) {
      results_.push_back(RunAt(krps, ctx_.threads, log, parent));
    }
    const bool first = digests_.empty();
    for (size_t i = 0; i < results_.size(); ++i) {
      const sgxb::FarmResult& r = results_[i];
      const sgxb::ResilienceReport& rr = r.resilience;
      const std::string rung = std::to_string(static_cast<int>(kLadderKrps[i])) + " krps";
      check->Expect(rr.completed + rr.failed_app + rr.failed_timeout == kRequests,
                    "farm at " + rung + ": completed + failed != requests");
      if (first) {
        digests_.push_back(r.digest);
      } else {
        check->Expect(r.digest == digests_[i], "farm at " + rung + ": digest differs");
      }
    }
    const sgxb::FarmResult& ref = results_[ReferenceIndex()];
    const sgxb::ResilienceReport& rr = ref.resilience;
    const double run_s = log.Sum("farm.run", parent);
    (*layers)["farm.run_s"] += run_s;
    (*layers)["farm.ms_per_request"] +=
        1e3 * run_s / static_cast<double>(kRequests * results_.size());
    (*layers)["farm.attempts"] += static_cast<double>(rr.attempts);
    (*layers)["farm.retries"] += static_cast<double>(rr.retries);
    (*layers)["farm.hedges"] += static_cast<double>(rr.hedges);
    (*layers)["farm.hedge_wins"] += static_cast<double>(rr.hedge_wins);
    (*layers)["farm.timed_out_attempts"] += static_cast<double>(rr.timed_out_attempts);
    (*layers)["farm.useful_attempt_frac"] =
        rr.attempts > 0 ? static_cast<double>(rr.completed) / rr.attempts : 0.0;
    (*layers)["farm.wasted_cycles"] += static_cast<double>(rr.wasted_cycles);
    (*layers)["farm.transition_share"] =
        ref.totals.cycles > 0
            ? static_cast<double>(ref.totals.transition_cycles) / ref.totals.cycles
            : 0.0;
    (*layers)["enclave.constructs"] += static_cast<double>(proto_.shards * results_.size());
    (*layers)["policy.bounds_checks"] += static_cast<double>(ref.totals.bounds_checks);
    (*layers)["policy.metadata_accesses"] +=
        static_cast<double>(ref.totals.metadata_loads + ref.totals.metadata_stores);
  }

  void Oracles(SpanLog& log, uint32_t parent, Checker* check, Layers* /*layers*/) override {
    // Host parallelism must not change a simulated byte.
    const sgxb::FarmResult one = RunAt(kReferenceKrps, 1, log, parent);
    check->Expect(one.digest == digests_[ReferenceIndex()],
                  "farm digest differs between 1 and " + std::to_string(ctx_.threads) +
                      " host threads");
  }

  void SimMetrics(Metrics* out) const override {
    const double ghz = proto_.ghz;
    auto us = [ghz](double cycles) { return cycles / (ghz * 1e3); };
    std::vector<LadderPoint> ladder;
    for (size_t i = 0; i < results_.size(); ++i) {
      const sgxb::FarmResult& r = results_[i];
      LadderPoint p;
      p.rate_krps = kLadderKrps[i];
      p.p99_us = us(P99Cycles(r));
      p.backlog_grows = BacklogGrows(kRequests, kLadderKrps[i] * 1e3, r.makespan_cycles, ghz);
      ladder.push_back(p);
      std::fprintf(stderr,
                   "[perfbench] rung %.0f krps: p99 %.1f sim_us, backlog %s, completed %" PRIu64
                   ", attempts %" PRIu64 "\n",
                   p.rate_krps, p.p99_us, p.backlog_grows ? "grows" : "steady",
                   r.resilience.completed, r.resilience.attempts);
    }
    const sgxb::FarmResult& ref = results_[ReferenceIndex()];
    const double limit_cycles = kP99LimitUs * ghz * 1e3;
    const double sim_s = static_cast<double>(ref.makespan_cycles) / (ghz * 1e9);
    (*out)["sim_p99_us"] = {us(P99Cycles(ref)), "sim_us"};
    (*out)["sim_goodput_krps"] = {
        static_cast<double>(CompletedWithin(ref.latency, limit_cycles)) / sim_s / 1e3, "krps"};
    (*out)["sim_max_krps_at_slo"] = {MaxRateAtSlo(ladder, kP99LimitUs), "krps"};
  }

  sgxb::EnclaveConfig EnclaveCfg() const override {
    sgxb::EnclaveConfig cfg;
    cfg.sim.costs = proto_.machine.costs;
    return cfg;
  }

 private:
  static size_t ReferenceIndex() {
    for (size_t i = 0; i < std::size(kLadderKrps); ++i) {
      if (kLadderKrps[i] == kReferenceKrps) {
        return i;
      }
    }
    return 0;
  }

  double P99Cycles(const sgxb::FarmResult& r) const {
    return CappedP99Cycles(r.latency, r.resilience.failed_app,
                           proto_.resilience.request_timeout_cycles);
  }

  sgxb::FarmResult RunAt(double krps, uint32_t threads, SpanLog& log, uint32_t parent) {
    sgxb::FarmConfig cfg = proto_;
    cfg.offered_rps = krps * 1e3;
    cfg.host_threads = threads;
    ScopedSpan span(log, "farm.run", parent);
    return sgxb::RunFarm(cfg);
  }

  sgxb::FarmConfig proto_;
  std::vector<sgxb::FarmResult> results_;
  std::vector<uint64_t> digests_;
};

// ---------------------------------------------------------------------------
// Metric names and units.

struct SimMetricInfo {
  const char* name;
  const char* unit;
};
constexpr SimMetricInfo kSimMetrics[] = {
    {"sim_overhead_sgxbounds", "ratio"},     {"sim_overhead_asan", "ratio"},
    {"sim_overhead_mpx", "ratio"},           {"sim_overhead_shadow", "ratio"},
    {"sim_mem_overhead_sgxbounds", "ratio"}, {"sim_p99_us", "sim_us"},
    {"sim_goodput_krps", "krps"},            {"sim_max_krps_at_slo", "krps"},
};

const char* const kLayerMetrics[] = {
    "enclave.construct_ms",   "enclave.constructs",      "workloads.job_s",
    "workloads.self_s",       "workloads.app_accesses",  "policy.bounds_checks",
    "policy.metadata_accesses", "sim.replay_s",          "sim.l1_accesses",
    "sim.llc_misses",         "sim.epc_faults",          "sim.ns_per_access",
    "trace.record_s",         "trace.save_s",            "trace.load_s",
    "trace.decode_s",         "trace.events",            "trace.encoded_bytes",
    "trace.bytes_per_access", "sweep.engine_s",          "sweep.requests",
    "sweep.captures_built",   "sweep.capture_replays",   "sweep.full_replays",
    "sweep.memo_hits",        "sweep.repriced_frac",     "ir.job_s",
    "ir.self_s",              "ir.decode_hits",          "ir.decode_misses",
    "ir.checks_inserted",     "ir.checks_elided",        "ir.checks_hoisted",
    "farm.run_s",             "farm.ms_per_request",     "farm.attempts",
    "farm.retries",           "farm.hedges",             "farm.hedge_wins",
    "farm.timed_out_attempts", "farm.useful_attempt_frac", "farm.wasted_cycles",
    "farm.transition_share",  "host.threads",            "host.busy_frac",
    "trace_overhead_frac",
};

const char* LayerUnit(const std::string& name) {
  const auto ends = [&name](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_s")) return "s";
  if (ends("_ms") || name == "farm.ms_per_request") return "ms";
  if (ends("_frac") || name == "farm.transition_share") return "ratio";
  if (name == "sim.ns_per_access") return "ns";
  if (name == "trace.encoded_bytes") return "B";
  if (name == "trace.bytes_per_access") return "B/access";
  if (name == "farm.wasted_cycles") return "cycles";
  return "count";
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const Context& ctx) {
  if (name == "live_fig07") return std::make_unique<LiveFig07>(ctx);
  if (name == "ir_kernels") return std::make_unique<IrKernels>(ctx);
  if (name == "replay_sweep") return std::make_unique<ReplaySweep>(ctx);
  if (name == "farm_faulted") return std::make_unique<FarmFaulted>(ctx);
  return nullptr;
}

double EnclaveConstructMs(const sgxb::EnclaveConfig& cfg, SpanLog& log, uint32_t parent) {
  constexpr int kProbes = 5;
  std::vector<double> ms;
  for (int i = 0; i < kProbes; ++i) {
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(log, "enclave.construct", parent);
      sgxb::Enclave enclave(cfg);
    }
    ms.push_back(1e3 * Since(t0));
  }
  return Median(ms);
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *value = arg + n + 1;
    return true;
  }
  return false;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload=live_fig07|replay_sweep|"
               "ir_kernels|farm_faulted --seed=N --seconds=S --trace=0|1 --work_dir=DIR "
               "[--host_threads=N]\n",
               why);
  std::exit(2);
}

uint64_t ParseU64(const std::string& text, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0') {
    Usage((std::string("bad value for --") + flag).c_str());
  }
  return v;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  std::string seed_text = "1";
  std::string seconds_text = "15";
  std::string trace_text = "0";
  std::string threads_text;
  Context ctx;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "--workload", &v)) {
      workload_name = v;
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      seed_text = v;
    } else if (ParseFlag(argv[i], "--seconds", &v)) {
      seconds_text = v;
    } else if (ParseFlag(argv[i], "--trace", &v)) {
      trace_text = v;
    } else if (ParseFlag(argv[i], "--work_dir", &v)) {
      ctx.work_dir = v;
    } else if (ParseFlag(argv[i], "--host_threads", &v)) {
      threads_text = v;
    } else {
      Usage((std::string("unknown argument ") + argv[i]).c_str());
    }
  }
  if (ctx.work_dir.empty()) {
    Usage("--work_dir is required");
  }
  if (trace_text != "0" && trace_text != "1") {
    Usage("--trace must be 0 or 1");
  }
  ctx.seed = ParseU64(seed_text, "seed");
  ctx.trace = trace_text == "1";
  const double seconds = static_cast<double>(ParseU64(seconds_text, "seconds"));
  // Fixed host-thread count: at most four, never more than the host has.
  ctx.threads = threads_text.empty()
                    ? std::min<uint32_t>(4, sgxb::HostHardwareThreads())
                    : static_cast<uint32_t>(ParseU64(threads_text, "host_threads"));
  if (ctx.threads == 0) {
    Usage("--host_threads must be at least 1");
  }
  std::unique_ptr<Workload> w = MakeWorkload(workload_name, ctx);
  if (w == nullptr) {
    Usage("unknown --workload");
  }

  SpanLog log(ctx.trace);
  Checker check;
  const uint32_t root = log.Open("run", 0);

  // Set-up, several times; setup_s is the median.
  std::vector<double> setup_s;
  std::vector<uint32_t> setup_spans;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    ScopedSpan span(log, "setup", root);
    w->Setup(log, span.id());
    setup_s.push_back(Since(t0));
    setup_spans.push_back(span.id());
  }

  // Measured phase. The traced run alternates untraced and traced passes so
  // both see the same host conditions; only traced passes open spans.
  SpanLog quiet(false);
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<double> traced_wall_s;
  std::vector<Layers> traced_layers;
  const Clock::time_point measure_start = Clock::now();
  for (int pass = 0;; ++pass) {
    const bool traced = ctx.trace && pass % 2 == 1;
    const int done = static_cast<int>(traced_wall_s.size() + wall_s.size());
    if (done >= kMinPasses + (ctx.trace ? kMinPasses : 0) && Since(measure_start) >= seconds &&
        (!ctx.trace || traced_wall_s.size() == wall_s.size())) {
      break;
    }
    SpanLog& plog = traced ? log : quiet;
    Layers layers;
    const double c0 = ProcessCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(plog, "pass", root);
      w->Pass(plog, span.id(), &check, &layers);
    }
    const double wall = Since(t0);
    const double cpu = ProcessCpuSeconds() - c0;
    std::fprintf(stderr, "[perfbench] pass %d%s wall %.4f s cpu %.4f s\n", pass,
                 traced ? " (traced)" : "", wall, cpu);
    if (traced) {
      layers["host.busy_frac"] = cpu / (wall * ctx.threads);
      traced_wall_s.push_back(wall);
      traced_layers.push_back(std::move(layers));
    } else {
      wall_s.push_back(wall);
      cpu_s.push_back(cpu);
    }
  }
  const double peak_rss_mib = PeakRssMiB();

  Layers oracle_layers;
  {
    ScopedSpan span(log, "oracles", root);
    w->Oracles(log, span.id(), &check, &oracle_layers);
  }

  Metrics metrics;
  if (!ctx.trace) {
    metrics["wall_s"] = {Median(wall_s), "s"};
    metrics["cpu_s"] = {Median(cpu_s), "s"};
    metrics["setup_s"] = {Median(setup_s), "s"};
    metrics["peak_rss_mb"] = {peak_rss_mib, "MiB"};
    // Every simulated metric is printed on every workload; one that the
    // workload does not define reads 1, so it can never move.
    for (const SimMetricInfo& m : kSimMetrics) {
      metrics[m.name] = {1.0, m.unit};
    }
    w->SimMetrics(&metrics);
  } else {
    // Per-layer metrics: the median over traced passes, plus what the
    // set-ups and oracles measured once.
    Layers layers;
    for (const char* name : kLayerMetrics) {
      std::vector<double> v;
      for (const Layers& l : traced_layers) {
        const auto it = l.find(name);
        v.push_back(it == l.end() ? 0.0 : it->second);
      }
      layers[name] = Median(v);
    }
    for (const auto& [name, value] : oracle_layers) {
      layers[name] = value;
    }
    w->SetupLayers(log, setup_spans, &layers);
    const uint32_t probe = log.Open("enclave.probe", root);
    layers["enclave.construct_ms"] = EnclaveConstructMs(w->EnclaveCfg(), log, probe);
    log.Close(probe);
    const double construct_s = layers["enclave.constructs"] * layers["enclave.construct_ms"] / 1e3;
    if (layers["workloads.job_s"] > 0) {
      layers["workloads.self_s"] =
          SelfSeconds(layers["workloads.job_s"], {layers["sim.replay_s"], construct_s});
    }
    if (layers["ir.job_s"] > 0) {
      layers["ir.self_s"] = SelfSeconds(layers["ir.job_s"], {construct_s});
    }
    layers["host.threads"] = ctx.threads;
    layers["trace_overhead_frac"] = Median(traced_wall_s) / Median(wall_s);
    for (const auto& [name, value] : layers) {
      metrics[name] = {value, LayerUnit(name)};
    }
  }
  log.Close(root);

  if (ctx.trace) {
    const std::string path = ctx.work_dir + "/spans-" + workload_name + "-seed" +
                             std::to_string(ctx.seed) + ".json";
    if (!log.Write(path)) {
      std::fprintf(stderr, "[perfbench] cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "[perfbench] wrote %zu spans to %s\n", log.size(), path.c_str());
  }

  const double pass_share =
      check.attempted() == 0
          ? 0.0
          : static_cast<double>(check.attempted() - check.failed()) / check.attempted();
  if (!ctx.trace) {
    metrics["pass_share"] = {pass_share, "ratio"};
  }
  std::fprintf(stderr, "[perfbench] peak RSS at exit %.1f MiB\n", PeakRssMiB());
  std::printf("workload=%s seed=%" PRIu64 " host_threads=%u passes=%zu traced_passes=%zu\n",
              workload_name.c_str(), ctx.seed, ctx.threads, wall_s.size(),
              traced_wall_s.size());
  for (const auto& [name, m] : metrics) {
    std::printf("  %-28s %16.6f %s\n", name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              check.failed() == 0 ? "true" : "false", check.attempted(), check.failed());
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), m.value, m.unit);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
