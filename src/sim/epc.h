// Enclave Page Cache (EPC) residency simulator.
//
// Intel SGX keeps enclave pages in a small MEE-protected region (128 MiB on
// the paper's hardware, ~94 MiB usable). When the enclave working set exceeds
// the EPC, the OS pages encrypted pages in and out ("EPC thrashing"), which is
// the dominant performance effect in the paper's experiments (SS2.1, Table 3).
//
// This model tracks the resident page set with true LRU replacement. A touch
// of a non-resident page is an EPC fault; the cost is charged by the caller
// from CostModel::epc_fault.
//
// The LRU list is intrusive over a single packed node array: one 8-byte node
// per page holds both links, and residency is encoded as a sentinel in the
// prev link. A touch of a resident page (every L2 miss in enclave mode) thus
// costs one cache line for the page's own state instead of three.
//
// The 8 MiB node array is an anonymous zero mapping, and the links are stored
// XOR their sentinels so that zero bytes decode to "not resident, no next".
// Construction therefore writes nothing: the host faults in only the node
// pages a run touches, instead of filling 2^20 nodes per enclave.

#ifndef SGXBOUNDS_SRC_SIM_EPC_H_
#define SGXBOUNDS_SRC_SIM_EPC_H_

#include <cstdint>

namespace sgxb {

class EpcSim {
 public:
  // capacity_bytes: usable EPC size. The page table covers the whole 32-bit
  // enclave address space (2^20 pages of 4 KiB).
  explicit EpcSim(uint64_t capacity_bytes);
  ~EpcSim();
  EpcSim(const EpcSim&) = delete;
  EpcSim& operator=(const EpcSim&) = delete;

  // Marks a page access. Returns true if this access faulted (page was not
  // resident and had to be paged in, possibly evicting the LRU page).
  bool Touch(uint32_t page) {
    Node& nd = nodes_[page];
    if (nd.resident()) {
      if (head_ != page) {
        Unlink(nd);
        PushFront(nd, page);
      }
      return false;
    }
    return Fault(nd, page);
  }

  bool Resident(uint32_t page) const;

  // Discards residency for a page (e.g. pages decommitted by the allocator).
  void Invalidate(uint32_t page);

  void Reset();

  uint64_t capacity_pages() const { return capacity_pages_; }
  uint64_t resident_pages() const { return resident_count_; }
  uint64_t faults() const { return faults_; }
  uint64_t evictions() const { return evictions_; }

 private:
  static constexpr uint32_t kNil = 0xffffffffu;
  // prev-link sentinel marking a non-resident page. Never a valid page id.
  static constexpr uint32_t kNotResident = 0xfffffffeu;
  static constexpr uint32_t kMaxPages = 1u << 20;  // 4 GiB / 4 KiB

  // Links stored XOR their "absent" values: an all-zero node is a
  // non-resident page with no links.
  struct Node {
    uint32_t prev_x = 0;
    uint32_t next_x = 0;

    bool resident() const { return prev_x != 0; }
    uint32_t prev() const { return prev_x ^ kNotResident; }
    uint32_t next() const { return next_x ^ kNil; }
    void set_prev(uint32_t p) { prev_x = p ^ kNotResident; }
    void set_next(uint32_t n) { next_x = n ^ kNil; }
  };

  void Unlink(Node& nd) {
    const uint32_t p = nd.prev();
    const uint32_t n = nd.next();
    if (p != kNil) {
      nodes_[p].set_next(n);
    } else {
      head_ = n;
    }
    if (n != kNil) {
      nodes_[n].set_prev(p);
    } else {
      tail_ = p;
    }
  }

  void PushFront(Node& nd, uint32_t page) {
    nd.set_prev(kNil);
    nd.set_next(head_);
    if (head_ != kNil) {
      nodes_[head_].set_prev(page);
    }
    head_ = page;
    if (tail_ == kNil) {
      tail_ = page;
    }
  }

  // Non-resident touch: page-in, evicting the LRU page when full.
  bool Fault(Node& nd, uint32_t page);

  uint64_t capacity_pages_;
  uint64_t resident_count_ = 0;
  uint64_t faults_ = 0;
  uint64_t evictions_ = 0;
  uint32_t head_ = kNil;  // MRU
  uint32_t tail_ = kNil;  // LRU
  Node* nodes_ = nullptr;  // kMaxPages nodes, anonymous zero mapping
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_SIM_EPC_H_
