/**
 * DescRing: a single-producer/single-consumer descriptor ring living in
 * *simulated* memory — the transport of the switchless (exit-less) call
 * layer (Occlum-style, PAPERS.md).
 *
 * Layout at `baseVa` (any memory both endpoints can legally reach —
 * untrusted pages for the host<->gateway tier, gateway heap pages for
 * the gateway<->inner tier):
 *
 *   header (16 B): [head u64][tail u64]
 *   slots  (capacity x 16 B): [len u64][seq u64]
 *
 * head/tail are absolute monotonic counters; a descriptor occupies slot
 * `seq % capacity` and records `seq` in the slot itself. The capacity is
 * the consumer's own constant, not a header word.
 *
 * Descriptors carry no address: the payload sits in the staging window
 * both endpoints fixed at arm time, which the consumer reads with its own
 * access rights, so the producer cannot steer that read. A push or pop
 * reads the header once, reads or writes its slot once and writes its
 * own index word once, so no word the other side wrote is fetched twice.
 *
 * Every access goes through Machine::read/write on an explicit core, so
 * the full access-validation flow (untrusted case, enclave-own case,
 * outer-closure walk for inner->outer-heap accesses) and the data-path
 * cycle costs are paid exactly as a real shared-memory ring would pay
 * them.
 *
 * Trace contract: every successful push publishes SwitchlessPost
 * (arg0 = the ring's base address, arg1 = seq), every successful pop
 * SwitchlessDrain, and abandon() publishes one SwitchlessFallback
 * covering everything still outstanding. A full ring refuses with
 * Err::Backpressure — producers must never stall or silently drop — and
 * a header claiming more entries than the ring holds refuses the pop
 * with Err::BadCallBuffer and one SwitchlessRefuse.
 */
#pragma once

#include "sgx/machine.h"

namespace nesgx::switchless {

/** One ring descriptor: the payload length in the ring's staging window
 *  and the sequence number the ring assigned on push. */
struct Desc {
    std::uint64_t len = 0;
    std::uint64_t seq = 0;
};

class DescRing {
  public:
    static constexpr std::uint64_t kHeaderBytes = 16;
    static constexpr std::uint64_t kSlotBytes = 16;

    /** Memory footprint of a ring with `capacity` slots. */
    static std::uint64_t bytesFor(std::uint64_t capacity)
    {
        return kHeaderBytes + capacity * kSlotBytes;
    }

    DescRing() = default;

    /**
     * Binds this handle to `baseVa` and writes a fresh header through
     * `core` (head = tail = 0). `ownerEid` stamps the ring's trace
     * events with the enclave the ring belongs to (0 = host memory).
     */
    Status init(sgx::Machine& machine, hw::CoreId core, hw::Vaddr baseVa,
                std::uint64_t capacity, std::uint64_t ownerEid = 0);

    /**
     * Producer side: appends a descriptor for `len` payload bytes and
     * rings the doorbell. Err::Backpressure when the ring is full (never
     * a stall, never an overwrite — unless NESGX_BUG_RING_WRAP reverts
     * exactly that check, which the orderliness checker must catch).
     */
    Status tryPush(sgx::Machine& machine, hw::CoreId core, std::uint64_t len);

    /**
     * Consumer side: one poll of the header (SwitchlessPoll + poll
     * cost), then a pop when a descriptor is pending. Err::NotFound
     * when the ring is empty; Err::BadCallBuffer, no slot read, `head`
     * untouched and a SwitchlessRefuse, when `tail - head` > capacity.
     */
    Result<Desc> tryPop(sgx::Machine& machine, hw::CoreId core);

    /**
     * Discards everything outstanding; when entries were pending,
     * publishes one SwitchlessFallback (arg1 = entries discarded). Used
     * when a failed call leaves entries behind and on tenant teardown,
     * so no SwitchlessPost is ever left unmatched.
     */
    Result<std::uint64_t> abandon(sgx::Machine& machine, hw::CoreId core);

    /**
     * Trace-only abandon for when the ring's backing memory is no
     * longer reachable (enclave torn down with entries in flight):
     * publishes the SwitchlessFallback marker that clears this ring's
     * outstanding entries in the orderliness oracle — poison-and-retry,
     * never a silent drop.
     */
    void markAbandoned(sgx::Machine& machine);

  private:
    struct Header {
        std::uint64_t head = 0;
        std::uint64_t tail = 0;
    };

    /** Both counters in one read. */
    Result<Header> readHeader(sgx::Machine& machine, hw::CoreId core);
    hw::Vaddr slotVa(std::uint64_t seq) const;
    Status writeU64(sgx::Machine& machine, hw::CoreId core, hw::Vaddr va,
                    std::uint64_t v);

    hw::Vaddr baseVa_ = 0;
    std::uint64_t capacity_ = 0;
    std::uint64_t ownerEid_ = 0;
};

}  // namespace nesgx::switchless
