/**
 * Cycle cost model for the emulated platform.
 *
 * Three parameter sets reproduce the paper's Table II calibration points
 * (i7-7700 @ 3.6 GHz):
 *   - HW SGX:           ecall 3.45 us, ocall 3.13 us
 *   - emulated SGX:     ecall 1.25 us, ocall 1.14 us
 *   - emulated nested:  n_ecall 1.11 us, n_ocall 1.06 us
 * The component costs below sum to those round-trip figures; every other
 * experiment then *derives* its timing from the same components instead of
 * being fitted per-figure.
 */
#pragma once

#include <cstdint>

namespace nesgx::hw {

/** Which emulation fidelity the platform models (paper Table II rows). */
enum class CostPreset {
    HwSgx,          ///< real-hardware SGX transition costs
    EmulatedSgx,    ///< paper's SDK-simulation-mode costs
    EmulatedNested, ///< paper's nested-enclave emulation costs
};

struct CostModel {
    // --- transition components (cycles) ------------------------------
    std::uint64_t tlbFlush = 0;          ///< full TLB invalidation
    std::uint64_t ctxSave = 0;           ///< save registers/stack on entry
    std::uint64_t ctxRestore = 0;        ///< restore on exit
    std::uint64_t zeroRegs = 0;          ///< scrub registers on NEEXIT
    std::uint64_t enterCheck = 0;        ///< EENTER TCS/mode validation
    std::uint64_t exitCheck = 0;         ///< EEXIT validation
    std::uint64_t nestedEnterCheck = 0;  ///< NEENTER inner/outer validation
    std::uint64_t nestedExitCheck = 0;   ///< NEEXIT validation
    std::uint64_t ecallDispatch = 0;     ///< urts marshalling + dispatch
    std::uint64_t ocallDispatch = 0;     ///< trts ocall marshalling
    std::uint64_t nEcallDispatch = 0;    ///< n_ecall marshalling (via outer)
    std::uint64_t nOcallDispatch = 0;    ///< n_ocall marshalling (via outer)

    // --- address translation ------------------------------------------
    std::uint64_t tlbHit = 1;            ///< translation already cached
    std::uint64_t tlbMissWalk = 80;      ///< page walk + EPCM validation
    std::uint64_t nestedCheckExtra = 10; ///< extra outer-level check per hop
    std::uint64_t tlbTagCompare = 1;     ///< context-tag match on lookup
    /** Contiguous-range fast path: the previous page's translation
     *  register already covers the next frame, no TLB port needed. */
    std::uint64_t tlbHitContiguous = 0;
    /** Transition cost with a context-tagged TLB: switch the active tag
     *  instead of invalidating every entry. Replaces `tlbFlush` in the
     *  transition helpers when `tagged` is requested. */
    std::uint64_t tlbTagSwitch = 0;

    // --- memory hierarchy (per 64 B cacheline) -------------------------
    std::uint64_t llcHitLine = 12;       ///< on-chip, no MEE involvement
    std::uint64_t dramLine = 120;        ///< off-chip, non-EPC
    std::uint64_t meeLine = 250;         ///< off-chip EPC: AES-CTR + tree

    // --- software crypto (AES-GCM channel baseline) --------------------
    std::uint64_t gcmInit = 2000;        ///< per-message setup + tag
    std::uint64_t gcmPerByte = 3;        ///< software AES-GCM streaming

    // --- enclave lifecycle ---------------------------------------------
    std::uint64_t ecreate = 2000;
    std::uint64_t eadd = 500;            ///< per 4 KiB page
    std::uint64_t eextendChunk = 400;    ///< per 256 B measured chunk
    std::uint64_t einit = 50000;         ///< SIGSTRUCT RSA verification
    std::uint64_t nasso = 20000;         ///< association + digest checks
    std::uint64_t ereport = 3000;
    std::uint64_t egetkey = 3000;
    std::uint64_t ewbPage = 9000;        ///< encrypt + MAC one page out
    std::uint64_t elduPage = 9000;       ///< verify + decrypt one page in

    // --- switchless call layer -----------------------------------------
    /** One poll of a shared ring header by a parked in-enclave core: a
     *  cached load + compare on a shared cacheline. Orders of magnitude
     *  below any transition — that gap is the whole point. */
    std::uint64_t ringPoll = 40;
    /** Host-side doorbell after a post: a store to the shared word plus
     *  the (modelled) cost of waking the consumer's spin loop. */
    std::uint64_t ringDoorbell = 150;

    // --- platform ------------------------------------------------------
    std::uint64_t ipi = 1500;            ///< inter-processor interrupt
    std::uint64_t aex = 2500;            ///< asynchronous enclave exit
    std::uint64_t copyPerByteNum = 1;    ///< plain memcpy cost numerator
    std::uint64_t copyPerByteDen = 8;    ///< ... per byte = num/den cycles

    /** TLB component of a transition: full flush in the paper-faithful
     *  model, tag switch when the TLB is context-tagged. The default
     *  (`tagged = false`) keeps the Table II calibration exact. */
    std::uint64_t transitionTlb(bool tagged = false) const
    {
        return tagged ? tlbTagSwitch : tlbFlush;
    }

    /** Full EENTER cost. */
    std::uint64_t eenterCycles(bool tagged = false) const
    {
        return transitionTlb(tagged) + ctxSave + enterCheck;
    }
    /** Full EEXIT cost. */
    std::uint64_t eexitCycles(bool tagged = false) const
    {
        return transitionTlb(tagged) + ctxRestore + exitCheck;
    }
    /** Full NEENTER cost. */
    std::uint64_t neenterCycles(bool tagged = false) const
    {
        return transitionTlb(tagged) + ctxSave + nestedEnterCheck;
    }
    /** Full NEEXIT cost (includes register scrubbing). */
    std::uint64_t neexitCycles(bool tagged = false) const
    {
        return transitionTlb(tagged) + ctxRestore + zeroRegs + nestedExitCheck;
    }

    /** Round-trip ecall (EENTER + EEXIT + urts dispatch). */
    std::uint64_t ecallRoundTrip(bool tagged = false) const
    {
        return eenterCycles(tagged) + eexitCycles(tagged) + ecallDispatch;
    }
    std::uint64_t ocallRoundTrip(bool tagged = false) const
    {
        return eexitCycles(tagged) + eenterCycles(tagged) + ocallDispatch;
    }
    std::uint64_t nEcallRoundTrip(bool tagged = false) const
    {
        return neenterCycles(tagged) + neexitCycles(tagged) + nEcallDispatch;
    }
    std::uint64_t nOcallRoundTrip(bool tagged = false) const
    {
        return neexitCycles(tagged) + neenterCycles(tagged) + nOcallDispatch;
    }

    /** AES-GCM software cost for an n-byte message. */
    std::uint64_t gcmMessage(std::uint64_t bytes) const
    {
        return gcmInit + gcmPerByte * bytes;
    }

    /** Plain copy cost for n bytes. */
    std::uint64_t copyBytes(std::uint64_t bytes) const
    {
        return (bytes * copyPerByteNum + copyPerByteDen - 1) / copyPerByteDen;
    }

    static CostModel forPreset(CostPreset preset);
};

}  // namespace nesgx::hw
