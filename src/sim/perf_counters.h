// Hardware-counter analogues collected during simulation. Table 3 of the
// paper reports LLC misses, page faults and bounds-table counts; these
// counters are the source for that reproduction and for all cycle totals.

#ifndef SGXBOUNDS_SRC_SIM_PERF_COUNTERS_H_
#define SGXBOUNDS_SRC_SIM_PERF_COUNTERS_H_

#include <cstdint>

namespace sgxb {

// The one list of counters. The struct's fields, operator== and operator+=
// all expand it, so a new counter cannot silently drop out of the
// engine-differential and live == replay oracles.
#define SGXB_PERF_COUNTER_FIELDS(X)                                          \
  /* Cycle account (the "time" axis of every figure). */                    \
  X(cycles)                                                                  \
  /* Instruction mix. */                                                     \
  X(alu_ops) X(branches) X(fp_ops) X(calls) X(syscalls)                      \
  /* Application memory traffic. */                                          \
  X(loads) X(stores)                                                         \
  /* Metadata traffic added by a hardening scheme (shadow memory, bounds     \
     tables, LB footers), counted separately so instrumentation cost is      \
     attributable. */                                                        \
  X(metadata_loads) X(metadata_stores)                                       \
  /* Cache behaviour. */                                                     \
  X(l1_accesses) X(l1_misses) X(l2_misses) X(llc_accesses) X(llc_misses)     \
  /* Paging behaviour. */                                                    \
  X(epc_faults) X(minor_faults)                                              \
  /* Bounds-check outcome counts (security-relevant). */                     \
  X(bounds_checks) X(bounds_violations)                                      \
  /* Enclave transitions (zero unless CostModel::TransitionsEnabled()).      \
     `ocalls` mirrors enclave-mode syscalls when the axis is on;             \
     `transition_cycles` is the slice of `cycles` attributable to world      \
     switches, so transition overhead is separable in every table. */        \
  X(ecalls) X(ocalls) X(transition_cycles)

struct PerfCounters {
#define SGXB_PERF_COUNTER_DECLARE(name) uint64_t name = 0;
  SGXB_PERF_COUNTER_FIELDS(SGXB_PERF_COUNTER_DECLARE)
#undef SGXB_PERF_COUNTER_DECLARE

  uint64_t instructions() const { return alu_ops + branches + fp_ops + loads + stores; }
  uint64_t page_faults() const { return epc_faults + minor_faults; }

  // Exact equality across every counter - the engine-differential tests'
  // definition of "bit-identical simulation".
  bool operator==(const PerfCounters& other) const {
#define SGXB_PERF_COUNTER_EQ(name) name == other.name&&
    return SGXB_PERF_COUNTER_FIELDS(SGXB_PERF_COUNTER_EQ) true;
#undef SGXB_PERF_COUNTER_EQ
  }
  bool operator!=(const PerfCounters& other) const { return !(*this == other); }

  PerfCounters& operator+=(const PerfCounters& other) {
#define SGXB_PERF_COUNTER_ADD(name) name += other.name;
    SGXB_PERF_COUNTER_FIELDS(SGXB_PERF_COUNTER_ADD)
#undef SGXB_PERF_COUNTER_ADD
    return *this;
  }
};

// Every field comes from the list: a counter declared by hand outside it
// would be missed by operator== and operator+=, and trips this.
#define SGXB_PERF_COUNTER_ONE(name) +1
static_assert(sizeof(PerfCounters) ==
                  (0 SGXB_PERF_COUNTER_FIELDS(SGXB_PERF_COUNTER_ONE)) * sizeof(uint64_t),
              "every PerfCounters field must be in SGXB_PERF_COUNTER_FIELDS");
#undef SGXB_PERF_COUNTER_ONE

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_SIM_PERF_COUNTERS_H_
