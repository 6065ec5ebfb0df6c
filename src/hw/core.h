/**
 * Logical processor state relevant to SGX.
 *
 * Mirrors the control-register view "Intel SGX Explained" describes:
 * enclave-mode flag, the active SECS (CR_ACTIVE_SECS), the active TCS, and
 * the per-core TLB. Nested enclave adds a small stack of enclave contexts
 * because NEENTER pushes the outer context rather than leaving the enclave.
 */
#pragma once

#include <vector>

#include "hw/tlb.h"
#include "hw/types.h"

namespace nesgx::hw {

/** One saved enclave execution context (outer frame under NEENTER). */
struct EnclaveFrame {
    Paddr secs = 0;  ///< SECS physical address of the enclave
    Paddr tcs = 0;   ///< TCS physical address in use
    /** Enclave id at entry time. SECS physical addresses are reused by
     *  later enclaves; ids never are, so a saved frame can be checked
     *  against the enclave that actually lives at `secs` now. */
    std::uint64_t eid = 0;
};

/**
 * One-entry snapshot of the most recent successful translation ("L0").
 * Only trusted while `generation` matches the TLB's — any flush,
 * eviction, or overwrite bumps the TLB generation and kills the snapshot.
 */
struct TranslationCache {
    bool valid = false;
    std::uint64_t generation = 0;
    std::uint64_t vpn = 0;
    TlbEntry entry;
};

class Core {
  public:
    explicit Core(CoreId id) : id_(id) {}

    CoreId id() const { return id_; }

    bool inEnclaveMode() const { return !frames_.empty(); }

    /** Currently executing enclave (innermost frame). */
    Paddr currentSecs() const { return frames_.empty() ? 0 : frames_.back().secs; }
    Paddr currentTcs() const { return frames_.empty() ? 0 : frames_.back().tcs; }

    /** Bottom-most TCS of the nest — where an AEX saves the frame stack
     *  and what ERESUME takes to restore it (0 outside enclave mode). */
    Paddr bottomTcs() const { return frames_.empty() ? 0 : frames_.front().tcs; }

    /** Enclave nesting depth on this core (0 = untrusted). */
    std::size_t depth() const { return frames_.size(); }

    const std::vector<EnclaveFrame>& frames() const { return frames_; }

    void pushFrame(Paddr secs, Paddr tcs, std::uint64_t eid = 0)
    {
        frames_.push_back({secs, tcs, eid});
    }
    EnclaveFrame popFrame()
    {
        EnclaveFrame f = frames_.back();
        frames_.pop_back();
        return f;
    }
    void clearFrames() { frames_.clear(); }

    /** Page-table root (set by the OS when scheduling a process). */
    void setPageTable(const void* pt) { pageTable_ = pt; }
    const void* pageTable() const { return pageTable_; }

    Tlb& tlb() { return tlb_; }
    const Tlb& tlb() const { return tlb_; }

    /** Last-translation snapshot; valid only while the stored generation
     *  matches `tlb().generation()`. */
    const TranslationCache& lastTranslation() const { return lastXlate_; }
    void setLastTranslation(std::uint64_t vpn, const TlbEntry& entry)
    {
        lastXlate_ = {true, tlb_.generation(), vpn, entry};
    }
    void clearLastTranslation() { lastXlate_.valid = false; }

  private:
    CoreId id_;
    std::vector<EnclaveFrame> frames_;
    const void* pageTable_ = nullptr;
    Tlb tlb_;
    TranslationCache lastXlate_;
};

}  // namespace nesgx::hw
