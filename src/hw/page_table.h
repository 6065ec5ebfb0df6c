/**
 * Per-process page tables, owned and freely manipulated by the (untrusted)
 * OS model. The SGX access-validation flow treats these as hostile input:
 * nothing here is trusted, exactly as in real SGX where the kernel owns
 * the page tables and the EPCM re-validates every translation.
 */
#pragma once

#include <mutex>
#include <optional>
#include <unordered_map>

#include "hw/types.h"

namespace nesgx::hw {

struct Pte {
    Paddr paddr = 0;     ///< physical page base
    bool writable = true;
    bool executable = true;
    bool present = true;
};

class PageTable {
  public:
    /** Installs/overwrites a translation for the page containing `va`. */
    void map(Vaddr va, Paddr pa, bool writable = true, bool executable = true);

    /** Removes the translation (subsequent walks miss). */
    void unmap(Vaddr va);

    /** Marks a translation not-present without forgetting the target. */
    void setPresent(Vaddr va, bool present);

    /** Walks the table; nullopt when no present entry exists. */
    std::optional<Pte> walk(Vaddr va) const;

    /** Raw entry even if not present (used by the OS paging code). */
    std::optional<Pte> entry(Vaddr va) const;

  private:
    /** One process page table is walked by every core of the process
     *  (translation misses) while the OS model maps/unmaps/evicts from
     *  other threads; walks return Pte copies, never references, so the
     *  lock scope is the map operation alone. */
    mutable std::mutex m_;
    std::unordered_map<std::uint64_t, Pte> entries_;  // keyed by VPN
};

}  // namespace nesgx::hw
