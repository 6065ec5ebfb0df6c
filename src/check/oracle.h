/**
 * Cross-layer invariant oracle for the orderliness checker.
 *
 * After every step the oracle inspects the Machine (SECS/TCS tables,
 * EPCM, per-core TLBs and frame stacks) and the Kernel (EPC free list,
 * driver records) together, and reports the first broken invariant:
 *
 *  - TLB coherence: the §VII-A invariants 1-4, plus "no stale context
 *    tag" and "no translation into a blocked/removed frame".
 *  - TCS busy conservation: a TCS is busy exactly when some core frame
 *    or some live TCS's AEX-saved nest references it — out-of-order
 *    teardown must neither wedge a TCS busy forever nor free one that
 *    an ERESUME could still re-enter.
 *  - Frame validity: every frame on every core names a live initialized
 *    SECS with the recorded enclave id, a live TCS owned by it, and an
 *    association edge to the frame below it.
 *  - Saved-chain validity: for every AEX-parked nest in a TCS's
 *    savedFrames, live eid-matching links must keep their association
 *    edges (sgx/chain.h) — stale links are ERESUME's problem, but a
 *    broken adjacency between live links means a hop entered unchecked.
 *  - Closure coherence: the memoized outer-closure cache always equals
 *    a fresh BFS, the graph stays acyclic, and inner/outer edge lists
 *    stay symmetric.
 *  - EPC accounting: every EPC frame is on the free list XOR has a
 *    valid EPCM entry — anything else is a leak or a double-use, unless
 *    it is a page the *checker itself* hostilely evicted (orphans).
 *  - Kernel record coherence: driver records and EPCM agree page by
 *    page; an EPCM-valid page owned by a recorded enclave but missing
 *    from its record is a driver-side leak.
 */
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "os/kernel.h"
#include "sgx/machine.h"
#include "trace/ring_sink.h"

namespace nesgx::check {

enum class Rule : std::uint8_t {
    TlbNonEnclavePrm,      ///< invariant 1: untrusted entry maps into PRM
    TlbOutsideElrange,     ///< invariant 2: out-of-ELRANGE entry -> PRM
    TlbEpcmCoherence,      ///< invariants 3/4 + stale tag/blocked frame
    TcsBusyConservation,
    FrameValidity,
    /** Every AEX-parked frame stack (TCS savedFrames) whose links are
     *  all live with matching eids is a valid ancestor chain under
     *  sgx/chain.h. Stale parked nests (dead/recycled links) are
     *  legitimate — ERESUME refuses them — but a broken adjacency
     *  between live links can only come from a NEENTER hop that skipped
     *  validation (NESGX_BUG_CHAIN_SKIP); the live-frame rule never sees
     *  it because the poisoned nest only exists saved. */
    SavedChainValidity,
    ClosureCoherence,
    EpcAccounting,
    KernelRecordCoherence,
    /** Trace rule: every successful ERESUME consumes a token set by a
     *  matching successful AEX on the same TCS. */
    TraceAexResumePairing,
    /** Trace rule: between an AEX and the ERESUME/EENTER that next gives
     *  the interrupted core an enclave context, that core performs no
     *  enclave-mode memory event. */
    TraceQuiescedWindow,
    /** Trace rule: switchless rings are FIFO and lossless — every
     *  SwitchlessPost is matched, in order, by a SwitchlessDrain of the
     *  same sequence number or cleared by a SwitchlessFallback, and
     *  nothing is left outstanding at teardown. A wraparound overwrite
     *  (NESGX_BUG_RING_WRAP) leaves a header the consumer refuses, so
     *  its posts are still outstanding at teardown. */
    TraceSwitchlessPairing,
};

const char* ruleName(Rule rule);

struct Violation {
    Rule rule;
    std::string message;
};

class InvariantOracle {
  public:
    /**
     * Returns the first violation found, or nullopt when all invariants
     * hold. `orphans` (pages the checker hostilely evicted) is updated
     * in place: an orphan that resurfaced on the free list or in the
     * EPCM is healed and subject to full accounting again.
     */
    std::optional<Violation> check(const sgx::Machine& machine,
                                   const os::Kernel& kernel,
                                   std::set<hw::Paddr>& orphans) const;

  private:
    std::optional<Violation> checkTlbs(const sgx::Machine& machine) const;
    std::optional<Violation> checkBusyFlags(const sgx::Machine& machine) const;
    std::optional<Violation> checkFrames(const sgx::Machine& machine) const;
    std::optional<Violation> checkSavedChains(
        const sgx::Machine& machine) const;
    std::optional<Violation> checkClosures(const sgx::Machine& machine) const;
    std::optional<Violation> checkEpcAccounting(
        const sgx::Machine& machine, const os::Kernel& kernel,
        std::set<hw::Paddr>& orphans) const;
    std::optional<Violation> checkKernelRecords(
        const sgx::Machine& machine, const os::Kernel& kernel,
        const std::set<hw::Paddr>& orphans) const;
};

/**
 * Stateful trace-level oracle: consumes the event stream captured in a
 * RingBufferSink incrementally (by sequence cursor, so each event is
 * inspected exactly once) and checks ordering properties no state
 * snapshot can see:
 *
 *  - TraceAexResumePairing: a successful AEX on TCS T deposits a resume
 *    token for T; a successful ERESUME of T must consume exactly that
 *    token. A second successful ERESUME of the same token — the classic
 *    stale-`hasSavedFrames` bug — has no token to consume and trips the
 *    rule. Tokens are keyed by TCS physical address; a later AEX on a
 *    rebuilt enclave at the same frame legitimately overwrites.
 *  - TraceQuiescedWindow: after an AEX the OS owns the interrupted core;
 *    until a successful ERESUME/EENTER gives it an enclave context
 *    again, no enclave-mode memory event (TLB hit/miss, nested check,
 *    access fault with a nonzero enclave id) may appear on that core.
 *    Machine-global events carry `core = trace::kNoCore` and are exempt.
 *
 * Unlike InvariantOracle this object carries state across steps; use one
 * instance per world, fed after every step.
 */
class TraceOracle {
  public:
    /** Consumes all new ring records; returns the first violation. */
    std::optional<Violation> consume(const trace::RingBufferSink& ring);

    /** End-of-run check: every switchless post must have been drained or
     *  abandoned by now — in-flight ring entries at teardown are exactly
     *  the silent drop the switchless layer promises never to commit. */
    std::optional<Violation> finish() const;

  private:
    std::optional<Violation> inspect(const trace::TraceEvent& event);

    std::uint64_t cursor_ = 0;
    /** TCS PA -> interrupted eid of the AEX that armed the token. */
    std::map<hw::Paddr, std::uint64_t> pendingResume_;
    /** Cores inside an AEX→ERESUME quiesced window. */
    std::set<hw::CoreId> quiesced_;
    /** Ring id -> FIFO of posted-but-undrained sequence numbers. */
    std::map<std::uint64_t, std::deque<std::uint64_t>> switchlessPosted_;
};

}  // namespace nesgx::check
