/**
 * SGX Enclave Control Structure (SECS) and Thread Control Structure (TCS)
 * as the microcode-internal view of the model.
 *
 * The nested-enclave extension (paper Fig. 3) adds exactly two fields:
 * `outerEids` (SECS addresses of the associated outer enclaves — one in
 * the paper's default model, several under the §VIII multi-outer
 * extension) and `innerEids` (all associated inner enclaves).
 */
#pragma once

#include <atomic>
#include <optional>
#include <set>
#include <vector>

#include "crypto/sha256.h"
#include "hw/core.h"
#include "hw/types.h"
#include "sgx/measurement.h"
#include "sgx/sigstruct.h"
#include "sgx/types.h"

namespace nesgx::sgx {

struct Secs {
    EnclaveId eid = 0;              ///< unique id, never reused
    hw::Vaddr baseAddr = 0;         ///< ELRANGE base
    std::uint64_t size = 0;         ///< ELRANGE size (bytes)
    bool initialized = false;       ///< EINIT completed

    Measurement mrenclave{};        ///< finalized at EINIT
    Measurement mrsigner{};         ///< SHA-256 of the author's modulus
    std::uint64_t attributes = 0;

    // --- nested-enclave extension (paper Fig. 3) -----------------------
    /**
     * SECS PAs of the associated outer enclaves. Front entry is the
     * primary outer; more than one entry only with kAttrMultiOuter
     * (paper §VIII "multiple outer enclaves"). Empty = not nested.
     */
    std::vector<hw::Paddr> outerEids;
    std::vector<hw::Paddr> innerEids;       ///< SECS PAs of inner enclaves

    /** Primary outer enclave's SECS PA (0 when not nested). */
    hw::Paddr outerEid() const
    {
        return outerEids.empty() ? 0 : outerEids.front();
    }

    bool hasOuter(hw::Paddr secsPa) const
    {
        for (hw::Paddr pa : outerEids) {
            if (pa == secsPa) return true;
        }
        return false;
    }

    // Author-signed association expectations, copied from SIGSTRUCT at
    // EINIT so NASSO validates against tamper-proof state.
    std::optional<PeerExpectation> expectedOuter;
    std::vector<PeerExpectation> allowedInners;

    // --- microcode-internal bookkeeping --------------------------------
    /** Measurement accumulation before EINIT. */
    MeasurementLog measurementLog;
    /** Valid EPCM entries this SECS owns, its own page included: what
     *  `Epcm::countOwnedBy` finds by scanning. ECREATE, EADD, EREMOVE,
     *  EWB and ELDU keep it, each under the exclusive state lock, so
     *  EREMOVE of a SECS need not scan the EPCM. */
    std::uint64_t epcPages = 0;
    /** Cores whose stale translations ETRACK is still waiting on. */
    std::set<hw::CoreId> trackingSet;
    bool trackingActive = false;

    bool inELRange(hw::Vaddr va) const
    {
        return va >= baseAddr && va < baseAddr + size;
    }
};

struct Tcs {
    /** An LP is executing on this thread. EENTER/NEENTER claim it with
     *  one exchange, so two cores can never both take the same TCS. */
    std::atomic<bool> busy{false};
    hw::Vaddr entryPoint = 0;
    /** Frame stack saved by AEX for later ERESUME. */
    std::vector<hw::EnclaveFrame> savedFrames;
    bool hasSavedFrames = false;
};

}  // namespace nesgx::sgx
