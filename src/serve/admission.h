/**
 * AdmissionController: bounded per-tenant request queues with
 * backpressure and deadline-based shedding.
 *
 * Submission into a full queue is refused with Err::Backpressure (the
 * client's signal to back off); queued requests that outlive their
 * deadline are shed at dequeue time — the service never spends an
 * enclave transition on a request whose client has given up. The
 * worker pool takes one batch per tenant per sweep, so one hot tenant
 * cannot starve the rest.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>

#include "serve/protocol.h"
#include "sgx/machine.h"
#include "support/counter.h"

namespace nesgx::serve {

struct Request {
    std::uint64_t id = 0;
    TenantId tenant = 0;
    std::uint64_t enqueuedAt = 0;  ///< sim-clock cycles at submit
    std::uint64_t deadline = 0;    ///< absolute cycles; 0 = none
    Bytes sealed;
};

class AdmissionController {
  public:
    struct Config {
        std::size_t maxQueueDepth = 64;
        /** Relative deadline applied at submit; 0 disables shedding. */
        std::uint64_t deadlineCycles = 0;
    };

    AdmissionController(sgx::Machine& machine, Config config)
        : machine_(&machine), config_(config)
    {
    }

    /** Enqueues one sealed request; Err::Backpressure when full. */
    Status submit(TenantId tenant, Bytes sealed);

    /** Pops up to `max` live requests for the tenant, shedding expired
     *  ones from the head first. Each shed request gets its own
     *  ServeShed event, and when `shedOut` is given the shed requests
     *  are handed back so the caller can complete them typed
     *  (Err::Deadline) instead of letting them vanish. */
    std::vector<Request> takeBatch(TenantId tenant, std::size_t max,
                                   std::vector<Request>* shedOut = nullptr);

    /** Removes and returns the tenant's entire queue (tenant rebuild:
     *  every queued seal targets the dead server instance). */
    std::vector<Request> purge(TenantId tenant);

    std::size_t depth(TenantId tenant) const;
    /** Requests queued over every tenant. */
    std::size_t totalQueued() const;

    std::uint64_t rejected() const { return rejected_; }
    std::uint64_t shed() const { return shed_; }

  private:
    sgx::Machine* machine_;
    Config config_;
    /** One coarse lock over the queue map: queue ops are
     *  microseconds next to a batched enclave dispatch, so worker
     *  threads contend here far less than they work. Leaf-level — held
     *  across nothing but the map and the trace publish. */
    mutable std::mutex m_;
    std::map<TenantId, std::deque<Request>> queues_;
    std::uint64_t nextId_ = 1;
    Counter rejected_;
    Counter shed_;
};

}  // namespace nesgx::serve
