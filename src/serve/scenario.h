/**
 * One serving scenario, described once and driven once: nesgx_serve
 * builds it from its flags, every single-host section of bench_serve
 * from its parameters (DESIGN.md §10). runScenario sizes the machine,
 * onboards attested tenants, arms rings and then faults, drives the
 * closed- or open-loop request stream (backpressure, live migrations,
 * optional supervisor), and with faults armed ends in a fault-free
 * recovery phase. The callers keep only printing and gates.
 */
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/injector.h"
#include "migrate/engine.h"
#include "serve/client.h"
#include "serve/histogram.h"
#include "supervise/supervisor.h"
#include "trace/stats.h"

namespace nesgx::serve {

/** Every field is a nesgx_serve flag (`cvm` is `--topology cvm`) or a
 *  bench_serve section parameter. */
struct Scenario {
    std::uint64_t tenants = 8;
    std::uint64_t requests = 200;
    std::size_t batch = 8;
    std::uint64_t epcPages = 0;    ///< 0 = ample EPC
    std::uint64_t deadline = 0;    ///< relative cycles; 0 = no shedding
    std::size_t queueDepth = 64;
    std::size_t threads = 1;       ///< pool workers (WorkerPool::run)
    bool cvm = false;              ///< depth-3 CVM -> gateway -> tenant tree
    bool switchless = false;       ///< exit-less ring dispatch
    bool openLoop = false;         ///< burst arrivals instead of paced
    bool attest = true;            ///< NEREPORT-gated onboarding
    std::uint32_t attestExpectDepth = 0;  ///< 0 = the topology's depth
    std::string faultSpec{};       ///< FaultPlan spec; empty = no injector
    std::uint64_t faultSeed = 1;
    std::uint64_t migrateEvery = 0;  ///< one live move per K submits
    bool supervise = false;        ///< failure-domain watchdog
    std::string chromeTracePath{}; ///< empty = no trace sink
};

/** The chaos fault plan: storage corruption, periodic leaf and allocator
 *  refusals, an interrupt storm and ring stalls, plus the migrate-stage
 *  sites when moves run mid-storm and the failure-domain sites when a
 *  supervisor is there to heal them. */
std::string chaosPlan(bool migrate, bool supervise);

/** Request accounting over drained completions, shared by the driver
 *  and bench_serve's two-host sections. */
struct Tally {
    std::uint64_t verified = 0;
    std::uint64_t typedErrors = 0;
    std::array<std::uint64_t, kErrCount> typedByErr{};
    std::uint64_t silentEmpties = 0;  ///< failed without a typed error
    Histogram latency;

    /** Settles one drain against `clients` (indexed by tenant id),
     *  keeping each client's mirror exact across rebuilds; returns the
     *  tenant of every typed failure. */
    std::vector<TenantId> settle(
        std::vector<Completion> done,
        const std::vector<std::unique_ptr<TenantClient>>& clients);
};

struct ScenarioResult : Tally {
    std::uint64_t submitted = 0;
    std::uint64_t failures = 0;       ///< responses failing client checks
    std::uint64_t backpressured = 0;
    std::uint64_t recovered = 0;      ///< tenants healed after the faults

    /** The machine's counters at the end, also the source of sheds,
     *  retries, breaker and watermark figures (one event per count). */
    trace::StatsCounters counters;
    std::size_t gateways = 0;
    /** EENTER+NEENTER after the post-arming snapshot: the request-path
     *  transition count the per-request figure divides. */
    std::uint64_t transitions = 0;
    std::uint64_t channels = 0;       ///< switchless channels armed
    std::uint64_t ringCalls = 0;

    std::uint64_t rebuilds = 0;
    std::uint64_t subtreeRebuilds = 0;
    Histogram rebuildLatency;
    std::uint64_t faultsInjected = 0;
    std::array<std::uint64_t, fault::kFaultSiteCount> injected{};
    std::array<std::uint64_t, fault::kFaultSiteCount> occurrences{};

    migrate::MigrationStats migration;
    supervise::SupervisorStats supervision;

    std::size_t traceEvents = 0;      ///< written to chromeTracePath

    /** Distinct fault sites that actually fired. */
    std::uint64_t faultSites() const;
};

/** The machine a scenario runs on: poller cores under switchless, the
 *  PRM shrunk to `epcPages`, one core per worker thread. */
sgx::Machine::Config machineConfig(const Scenario& scenario);

/** The service it runs: batching, queues, threads, rings, the CVM root
 *  sized for the fleet, chaos breaker settings whenever a fault plan is
 *  armed, and attested onboarding. */
TenantService::Config serviceConfig(const Scenario& scenario);

/** Runs one scenario. A refused onboarding, a failed submit or an
 *  unwritable trace prints an "error:" line on stderr and comes back as
 *  that status. */
Result<ScenarioResult> runScenario(const Scenario& scenario);

}  // namespace nesgx::serve
