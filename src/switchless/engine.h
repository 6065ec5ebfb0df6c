/**
 * SwitchlessEngine: the exit-less call layer.
 *
 * Classic serving pays a transition pair per chain link on every
 * dispatch: EENTER/EEXIT into the chain root and NEENTER/NEEXIT into
 * each deeper enclave. This engine removes them from the steady-state
 * request path with one hop per chain link. A hop owns a request/response
 * descriptor ring pair plus a staging buffer in its *parent's* memory —
 * host-shared untrusted memory for the chain root, the parent's trusted
 * heap below it — and a poller core parked inside the hop's own enclave
 * (one initial EENTER, then one NEENTER per deeper link). Enclave code
 * may legally read/write untrusted memory, and an inner reaches its
 * outer's heap through the nested-EPCM outer-closure walk (paper Fig. 6),
 * so no poller ever needs a transition to reach its rings.
 *
 * A request then flows host -> root -> ... -> leaf and back entirely
 * through memory: post, poll, drain. Steady-state transitions per
 * request -> 0; the only classic entries left are (re-)arming and idle
 * fallback — a poller whose rings stay empty past `idleParkCycles` gives
 * the core back (NEEXITs + EEXIT) and the next request re-parks it with
 * classic entries. Transitions therefore scale with *idleness*, not load.
 *
 * Security argument: a ring descriptor is [len, seq] and names no
 * memory. Each consumer reads the staging window its hop fixed at arm
 * time with its own access rights, so a hostile producer cannot aim a
 * poller's enclave-privileged read anywhere. The header and the length
 * are fetched once and bounded before use (ring capacity, staging size,
 * the payload's slot header); a lie fails the call typed and the caller
 * retries classically. Every failure after a post abandons the rings of
 * every hop on the chain, so rings are empty between calls and a pop
 * only ever meets the descriptor of the call in flight.
 *
 * The engine is deliberately serve-layer agnostic: tenants are keyed by
 * an opaque `key` (the serve layer passes tenant ids) and each call
 * carries an Endpoint resolved by the caller, so this library depends
 * only on the SDK beneath it.
 */
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sdk/runtime.h"
#include "switchless/ring.h"
#include "support/counter.h"

namespace nesgx::switchless {

struct Config {
    bool enabled = false;
    /** Ring idle time (cycles) after which a parked poller falls back:
     *  it exits the enclave and the next request re-arms it with a
     *  classic EENTER. ~14 ms at 3.6 GHz. */
    std::uint64_t idleParkCycles = 50'000'000;
    /** Cores [0, hostCores) stay with host workers; poller cores are
     *  taken from the top of the core space downward. 0 counts as 1:
     *  core 0 is always the host's. */
    std::uint32_t hostCores = 1;
};

/** Slots per descriptor ring. */
inline constexpr std::uint64_t kRingCapacity = 16;
/** Staging buffer per hop (bytes): the largest request or response
 *  blob a ring call carries. */
inline constexpr std::uint64_t kStagingBytes = 16 * 1024;

/** Per-call routing, resolved by the caller (serve layer). */
struct Endpoint {
    /** Ancestor chain, root first, serving leaf last (size >= 2). The
     *  engine arms one hop per link; a flat gateway -> tenant pair is
     *  just the depth-2 case. */
    std::vector<sdk::LoadedEnclave*> chain;
    /** Leaf n_ecall the parked leaf poller dispatches to. */
    std::string innerCall;
    /** Caller slot id; every relay hop cross-checks it against the
     *  payload header before forwarding (defense in depth). */
    std::uint32_t slot = 0;
};

/** Cumulative engine statistics (monotonic). */
struct EngineStats {
    /** Relaxed atomics: read by other threads while a call runs. */
    Counter calls;          ///< requests pumped switchlessly
    Counter armings;        ///< channel park operations
    Counter idleFallbacks;  ///< pollers unparked for idleness
    Counter ringStalls;     ///< injected ring-stall faults
    Counter pollerWedges;   ///< injected poller-wedge faults
};

/** Snapshot of one tenant channel's liveness for external supervision. */
struct ChannelProgress {
    bool armed = false;    ///< a channel exists for the key
    bool wedged = false;   ///< poller stopped draining (injected wedge)
    std::uint64_t lastActive = 0;  ///< sim cycles of last successful pump
};

class SwitchlessEngine {
  public:
    SwitchlessEngine(sdk::Urts& urts, Config config);
    ~SwitchlessEngine();

    SwitchlessEngine(const SwitchlessEngine&) = delete;
    SwitchlessEngine& operator=(const SwitchlessEngine&) = delete;

    const Config& config() const { return config_; }
    const EngineStats& engineStats() const { return stats_; }

    /**
     * True when a switchless channel is armed (arming it now if needed)
     * for `key` over `ep`. False — caller uses the classic path — when
     * the engine is disabled or arming failed (no spare core, heap or
     * TCS); arming failure is degradation, never an error.
     */
    bool ready(std::uint64_t key, const Endpoint& ep);

    /**
     * Pumps one request blob down every hop of the chain and returns the
     * response bytes, exactly as the classic gw_dispatch ecall would.
     * Requires a `ready()` channel. Errors surface with the same typed
     * codes the classic path uses, so the caller's retry/breaker/rebuild
     * machinery applies unchanged.
     */
    Result<Bytes> call(std::uint64_t key, const Endpoint& ep, ByteView blob,
                       hw::CoreId hostCore);

    /**
     * Tears down `key`'s channel: releases every hop of its chain,
     * deepest first. A hop whose last rider leaves disarms — in-flight
     * ring entries are abandoned (SwitchlessFallback — never a silent
     * drop), its poller unparks and its ring memory is freed. Must run
     * before any enclave of the chain is rebuilt or unloaded.
     */
    void disarm(std::uint64_t key);

    /** Disarms every channel (and with them every hop). */
    void disarmAll();

    /**
     * Liveness snapshot for `key` — the supervisor's view of ring
     * progress. A wedged channel stays armed but refuses every call
     * (Err::Unavailable) until something disarms it; disarm + re-arm is
     * the recovery (the supervisor's "kick" rung).
     */
    ChannelProgress channelProgress(std::uint64_t key) const;

  private:
    using Chain = std::vector<sdk::LoadedEnclave*>;

    /**
     * One link of a serving chain, keyed by its chain prefix (root …
     * self): a descriptor ring pair plus the staging buffer payloads are
     * copied through, all in the parent's memory (host memory when the
     * hop is the chain root, the parent's trusted heap otherwise), and a
     * poller core parked inside `self` at the hop's depth. Refcounted by
     * the tenant chains riding it; disarmed when the last one leaves.
     */
    struct Hop {
        DescRing req;
        DescRing resp;
        hw::Vaddr reqVa = 0;  ///< allocations to free on disarm
        hw::Vaddr respVa = 0;
        hw::Vaddr stagingVa = 0;
        hw::CoreId core = 0;
        /** Park TCSes, chain root first (the whole nest saves into the
         *  front one on AEX). */
        std::vector<hw::Paddr> tcses;
        bool parked = false;
        std::uint64_t lastActive = 0;
        std::uint64_t riders = 0;
        /** Serialises the hop's poller core: several leaves relay
         *  through one hop. Lock order: root hop first. */
        std::mutex coreM;
    };

    /** A tenant key's chain (its hops are the chain's prefixes). */
    struct Tenant {
        Chain chain;
        /** Injected poller-wedge: posts land but nothing drains. The
         *  channel stays armed and every call fails typed until a
         *  disarm (supervisor kick) tears it down. */
        bool wedged = false;
    };

    sgx::Machine& machine();
    std::uint64_t now();

    /** Grabs a poller core from the top of the core space; false when
     *  none is spare. */
    bool takeCore(hw::CoreId& out);
    void releaseCore(hw::CoreId core);

    /** Places a root hop's rings in host memory — a region released by
     *  a disarmed root when one is free, else freshly mapped untrusted
     *  pages — and initialises both rings from the host side. */
    bool mapHostRings(Hop& hop);
    /** Returns the ring memory of the hop at `prefix` to where it came
     *  from: the host-region free list or the parent's heap. */
    void freeRings(Hop& hop, const Chain& prefix);

    /** The hop for `prefix`, armed now unless it exists; nullptr when
     *  arming fails. */
    Hop* armHop(const Chain& prefix);
    /** Enters `prefix` on the hop's core, root first, initialising
     *  parent-heap rings from inside the parent when `initRings`. */
    bool park(Hop& hop, const Chain& prefix, bool initRings);
    /** Re-enters an AEX'd parked poller (ERESUME); false -> disarm. */
    bool resume(Hop& hop);
    void unpark(Hop& hop);
    /** Abandons everything outstanding on the hop's two rings from the
     *  side that can reach them: the host for host-memory rings, else
     *  the parked poller if it can resume. False when nothing can. */
    bool abandonRings(Hop& hop, bool hostRings);
    void disarmHop(const Chain& prefix);
    /** disarm() with the engine lock already held: the teardown every
     *  in-lock failure path (a changed chain in ready(), a poisoned
     *  call()) and disarmAll() share. */
    void disarmLocked(std::uint64_t key);
    /** Drops one rider from each of the first `depth` hops of `chain`,
     *  deepest first, disarming every hop left without riders. */
    void release(const Chain& chain, std::size_t depth);

    /** Idle fallback for every hop on the chain, deepest first. */
    void idleCheck(const Chain& chain, const std::vector<Hop*>& hops);

    /**
     * The in-enclave middle of a call: each relay hop's poller drains
     * its own ring and forwards one hop deeper (root first), the leaf
     * poller serves without a transition, and the response is relayed
     * back up hop by hop onto the host-facing ring.
     */
    Status pumpEnclaveSide(const Chain& chain, const std::vector<Hop*>& hops,
                           const Endpoint& ep);

    sdk::Urts& urts_;
    Config config_;
    EngineStats stats_;
    /**
     * One engine-wide lock over the hop and tenant maps, the core and
     * host-region free lists and every public entry point. Not
     * recursive: a teardown under the lock calls disarmLocked(), and
     * only the public disarm() takes it. Worker threads serialise on
     * the engine for a whole call. Lock order: engine lock -> hop core
     * mutexes -> urts/kernel/machine, never the reverse.
     */
    mutable std::mutex m_;
    std::map<Chain, Hop> hops_;
    std::map<std::uint64_t, Tenant> tenants_;
    std::vector<hw::CoreId> freeCores_;
    hw::CoreId nextHighCore_ = 0;
    bool coresInit_ = false;
    /** Host ring regions of disarmed roots: the kernel never frees
     *  untrusted frames, so re-arming a root reuses one. */
    std::vector<hw::Vaddr> freeHostRegions_;
};

}  // namespace nesgx::switchless
