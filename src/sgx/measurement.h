/**
 * MRENCLAVE accumulation.
 *
 * ECREATE, EADD and EEXTEND fold records into an incremental SHA-256,
 * binding the virtual layout, page attributes and page contents into the
 * enclave identity, in the same spirit (and chunking) as real SGX.
 */
#pragma once

#include <unordered_map>

#include "crypto/sha256.h"
#include "hw/types.h"
#include "sgx/types.h"

namespace nesgx::sgx {

/** Size of one EEXTEND-measured chunk, as in SGX. */
constexpr std::uint64_t kMeasureChunk = 256;

class MeasurementLog {
  public:
    /** Folds the ECREATE record (enclave size, SSA config). */
    void recordCreate(std::uint64_t enclaveSize);

    /** Folds an EADD record (page offset within ELRANGE, type, perms). */
    void recordAdd(std::uint64_t pageOffset, PageType type, PagePerms perms);

    /** Folds one page's EEXTEND records: its kPageSize / kMeasureChunk
     *  chunks in order, each tagged with its offset within ELRANGE.
     *  `page` holds hw::kPageSize bytes. */
    void extendPage(std::uint64_t pageOffset, const std::uint8_t* page);

    /** Finalizes into the MRENCLAVE value. */
    Measurement finalize();

  private:
    friend class PageFoldMemo;

    crypto::Sha256 ctx_;
};

/**
 * The machine's memo of EEXTEND page folds.
 *
 * SHA-256 is a pure function of its input, so folding the same page
 * bytes at the same offset into a context that has absorbed the same
 * prefix always ends in the same context. A fold is replayed only when
 * all three match: the absorbed state, the page offset, and every byte
 * of the page against the stored copy (an all-zero page stores no
 * bytes, and its test is an all-zero check). Anything else is hashed.
 * At most kCapacity folds are kept; an insert that would pass the cap
 * clears the memo first.
 */
class PageFoldMemo {
  public:
    static constexpr std::size_t kCapacity = 4096;

    /** `log.extendPage(pageOffset, page)`, replaying a stored fold on an
     *  exact match. */
    void extendPage(MeasurementLog& log, std::uint64_t pageOffset,
                    const std::uint8_t* page);

    /** Folds replayed so far (clearing the memo keeps the count). */
    std::uint64_t hits() const { return hits_; }

  private:
    struct Fold {
        crypto::Sha256 before;
        std::uint64_t pageOffset = 0;
        Bytes page;  ///< empty for an all-zero page
        crypto::Sha256 after;
    };

    /** Keyed by the state hash of `before`, mixed with the offset. */
    std::unordered_multimap<std::uint64_t, Fold> folds_;
    std::uint64_t hits_ = 0;
};

}  // namespace nesgx::sgx
