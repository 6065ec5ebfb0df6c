/**
 * Enclave Page Cache Map (EPCM).
 *
 * The reverse map from each EPC physical page to (owner enclave, expected
 * virtual address, permissions, type). This is the structure the TLB-miss
 * validation flow consults (paper §II-B); nested enclave leaves it
 * unchanged (paper §IV-D: "the information in EPCM does not change").
 */
#pragma once

#include <array>
#include <mutex>
#include <vector>

#include "hw/types.h"
#include "sgx/types.h"
#include "support/status.h"

namespace nesgx::sgx {

struct EpcmEntry {
    bool valid = false;
    bool blocked = false;   ///< EBLOCK'ed, pending eviction
    PageType type = PageType::Reg;
    hw::Paddr ownerSecs = 0;  ///< SECS physical address of the owner
    hw::Vaddr vaddr = 0;      ///< enclave-specified virtual address
    PagePerms perms;
};

class Epcm {
  public:
    /** Stripe fan-out for the per-frame mutexes. 64 stripes keep two
     *  concurrent paging/validation flows on distinct frames from ever
     *  colliding in practice while costing one cacheline each. */
    static constexpr std::size_t kStripes = 64;

    explicit Epcm(std::uint64_t pageCount) : entries_(pageCount) {}

    EpcmEntry& entry(std::uint64_t pageIndex) { return entries_[pageIndex]; }
    const EpcmEntry& entry(std::uint64_t pageIndex) const
    {
        return entries_[pageIndex];
    }

    std::uint64_t pageCount() const { return entries_.size(); }

    /** Number of valid entries owned by the given SECS, by a full scan.
     *  Leaves read `Secs::epcPages` instead; the checker's oracle
     *  cross-checks the two. */
    std::uint64_t countOwnedBy(hw::Paddr secsPa) const;

    /**
     * Striped per-frame lock, keyed by EPC frame index. The TLB-miss
     * validation walk (machine_access.cpp) snapshots the entry under
     * this lock so a concurrent paging-leaf mutation of the *same frame*
     * can never be observed torn; distinct frames map to distinct
     * stripes (mod kStripes) and proceed in parallel.
     */
    std::unique_lock<std::mutex> lockFrame(std::uint64_t pageIndex) const
    {
        return std::unique_lock<std::mutex>(stripes_[pageIndex % kStripes].m);
    }

  private:
    struct alignas(64) Stripe {
        std::mutex m;
    };

    std::vector<EpcmEntry> entries_;
    mutable std::array<Stripe, kStripes> stripes_;
};

}  // namespace nesgx::sgx
