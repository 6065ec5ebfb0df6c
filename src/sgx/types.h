/**
 * Shared SGX-model types: enclave ids, page types, permissions.
 */
#pragma once

#include <cstdint>

#include "crypto/sha256.h"
#include "hw/types.h"

namespace nesgx::sgx {

/** Unique (never reused) enclave id assigned at ECREATE. */
using EnclaveId = std::uint64_t;

/** Enclave attribute bits. */
constexpr std::uint64_t kAttrDebug = 1ull << 0;
/**
 * Opt-in to the §VIII "multiple outer enclaves" extension: an inner
 * enclave with this attribute may associate with more than one outer
 * (the general lattice model). Without it, the paper's default
 * single-outer-per-inner rule is enforced at NASSO.
 */
constexpr std::uint64_t kAttrMultiOuter = 1ull << 1;

using Measurement = crypto::Sha256Digest;

/** EPC page types tracked by the EPCM. */
enum class PageType : std::uint8_t {
    Secs,  ///< enclave control structure
    Tcs,   ///< thread control structure
    Reg,   ///< regular code/data page
};

/** EPCM access permissions for a regular page. */
struct PagePerms {
    bool r = true;
    bool w = true;
    bool x = false;

    static PagePerms rw() { return {true, true, false}; }
    static PagePerms rx() { return {true, false, true}; }

    bool allows(hw::Access a) const
    {
        switch (a) {
          case hw::Access::Read: return r;
          case hw::Access::Write: return w;
          case hw::Access::Execute: return x;
        }
        return false;
    }

    std::uint8_t bits() const
    {
        return std::uint8_t((r ? 1 : 0) | (w ? 2 : 0) | (x ? 4 : 0));
    }
};

}  // namespace nesgx::sgx
