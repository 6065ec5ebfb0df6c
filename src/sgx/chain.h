/**
 * Ancestor-chain checks shared by the transition microcode
 * (machine_transitions.cpp), the orderliness oracle (check/oracle.cpp)
 * and the SDK's chain-routed entry (sdk/runtime.cpp, through
 * `Machine::chainLinked`). `chainAdjacent` decides one hop: NEENTER,
 * NEEXIT and the SDK walk.
 * `validateFrameChain` decides a whole frame stack: ERESUME's saved nest
 * and the oracle's SavedChainValidity rule.
 *
 * A nest is valid when every frame's SECS is live and initialized, the
 * enclave id still matches (ids are never reused, so a match proves the
 * SECS frame was not recycled), and each frame's enclave lists the frame
 * below it among its outers — the same adjacency NEENTER enforces one
 * hop at a time (paper §IV-B; under kAttrMultiOuter any listed outer
 * qualifies). Routing every chain check through this header keeps the
 * microcode, the oracle and the SDK agreeing on what "valid chain"
 * means, so a skipped hop in one layer is caught by another.
 */
#pragma once

#include <cstddef>
#include <cstdint>

#include "sgx/secs.h"

namespace nesgx::sgx {

/** Why a chain failed validation. */
enum class ChainCheck : std::uint8_t {
    Ok,
    DeadSecs,          ///< no live, initialized SECS at the address
    EidMismatch,       ///< SECS frame was recycled for a newer enclave
    BrokenAdjacency,   ///< link i does not list link i-1 as an outer
};

struct ChainVerdict {
    ChainCheck check = ChainCheck::Ok;
    std::size_t index = 0;  ///< first offending link (== n when Ok)

    bool ok() const { return check == ChainCheck::Ok; }
};

/** One NEENTER hop: is `inner` directly nested inside the SECS at
 *  `outerPa`?  Thin named wrapper over Secs::hasOuter so every adjacency
 *  decision reads as a chain check. */
inline bool
chainAdjacent(const Secs& inner, hw::Paddr outerPa)
{
    return inner.hasOuter(outerPa);
}

/**
 * Validates a core's live frames or a TCS's saved frames (any container
 * of hw::EnclaveFrame, root first) as an ancestor chain. `secsAt` maps a
 * SECS physical address to a live `const Secs*` (null when dead) — pass
 * a lambda over Machine::secsAt or the oracle's table view.
 */
template <typename Frames, typename Lookup>
ChainVerdict
validateFrameChain(const Frames& frames, Lookup&& secsAt)
{
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const Secs* secs = secsAt(frames[i].secs);
        if (!secs || !secs->initialized) {
            return {ChainCheck::DeadSecs, i};
        }
        if (secs->eid != frames[i].eid) {
            return {ChainCheck::EidMismatch, i};
        }
        if (i > 0 && !chainAdjacent(*secs, frames[i - 1].secs)) {
            return {ChainCheck::BrokenAdjacency, i};
        }
    }
    return {ChainCheck::Ok, frames.size()};
}

}  // namespace nesgx::sgx
