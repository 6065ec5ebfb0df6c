/**
 * nesgx_serve: multi-tenant serving demo over the emulated nested-SGX
 * machine. Spins up N tenants (one inner enclave each, pooled into
 * shared gateway outers), pushes a closed-loop request stream through
 * the admission controller and worker pool, and verifies every sealed
 * response client-side. The run itself is serve::runScenario
 * (src/serve/scenario.h); this binary parses flags into a Scenario,
 * prints the result and turns it into an exit code.
 *
 *   nesgx_serve --tenants 8 --requests 200 [--batch 8] [--epc-pages 0]
 *               [--deadline 0] [--queue-depth 64] [--threads 1]
 *               [--topology flat|cvm] [--chrome-trace p.json]
 *               [--faults SPEC] [--fault-seed N] [--chaos SEED]
 *               [--attest 1] [--attest-expect-depth N] [--migrate K]
 *               [--supervise 1] [--help]
 *
 * Exit codes are part of the CI contract: 0 = success, 1 = integrity /
 * attestation / self-healing failure (a refused onboarding, a sealed
 * response that failed verification, a chaos gate missed), 2 = flag
 * error (an unknown flag, a missing or malformed number, an unknown
 * topology, a malformed --faults spec — the diagnostic, with a "did you
 * mean" suggestion for typo'd names, goes to stderr).
 *
 * --supervise 1 attaches the failure-domain supervisor (src/supervise):
 * a health watchdog ticks after every pump, classifies wedged tenants
 * from heartbeat counters and climbs the escalation ladder (kick ->
 * tenant rebuild -> gateway-subtree rebuild -> evacuate). Under --chaos
 * the fault plan gains the gateway-crash and poller-wedge sites — a
 * crashed gateway can ONLY heal through the supervisor's subtree rung,
 * so the chaos gates require the watchdog to have fired.
 *
 * --attest 1 (the default) onboards every tenant through the NEREPORT
 * trust path: the tenant is admitted only after its evidence chain
 * verifies, and clients seal with the EGETKEY-rooted session key from
 * the attested exchange instead of an out-of-band secret. A tenant that
 * fails attestation (e.g. a policy/topology mismatch forced with
 * --attest-expect-depth) makes the run exit nonzero. --attest 0 reverts
 * to legacy faith-based admission.
 *
 * --migrate K live-migrates one tenant (round-robin) to a different
 * gateway after every K submissions — sealed snapshot export, EWB
 * drain, staged rebuild, re-attestation, import — while the request
 * stream keeps flowing; sessions must survive with sequence continuity.
 * Under --chaos the default fault plan gains the migrate-export/import
 * sites, so some moves abort mid-storm and must roll back cleanly.
 *
 * --topology cvm nests the whole fleet one level deeper: a single
 * depth-1 "CVM" root enclave hosts every gateway as a depth-2 inner and
 * tenants serve at depth 3 (paper §VIII). A dispatch is then one EENTER
 * plus two NEENTERs down the validated ancestor chain. The default flat
 * layout is byte-identical to the historical two-level registry.
 *
 * --threads N drains the queues with N workers, worker t pinning
 * simulated core t and owning the gateways whose index is t mod N (see
 * WorkerPool::run). Worker 0 runs on the main thread, the others as
 * real OS threads, so N=1 is the same loop with one worker on core 0:
 * its traces and counters are deterministic.
 *
 * --faults arms the deterministic fault injector (src/fault) with a
 * site@trigger spec, e.g. "ewb-corrupt@n=3;eenter-fail@every=40".
 *
 * --chaos SEED is the self-healing acceptance mode: a 24-tenant
 * 4x-oversubscribed run with the default multi-site fault plan armed
 * after setup, followed by a fault-free recovery phase. It exits
 * nonzero unless faults actually fired at >= 5 distinct sites, at
 * least one tenant was rebuilt, every request either verified or
 * carried a typed error (zero silent empties), and every tenant
 * serves verified responses again once the faults stop.
 */
#include <cstdio>
#include <cstring>

#include "serve/scenario.h"
#include "support/flags.h"

namespace {

using namespace nesgx;

const char* kUsage =
    "usage: nesgx_serve [--tenants N] [--requests N] [--batch N]\n"
    "                   [--epc-pages N] [--deadline CYCLES]\n"
    "                   [--queue-depth N] [--threads N]\n"
    "                   [--topology flat|cvm] [--switchless 1]\n"
    "                   [--chrome-trace PATH] [--faults SPEC]\n"
    "                   [--fault-seed N] [--chaos SEED] [--attest 0|1]\n"
    "                   [--attest-expect-depth N] [--migrate K]\n"
    "                   [--supervise 1] [--help]\n"
    "\n"
    "  --faults arms the deterministic injector with a site@trigger\n"
    "  spec, e.g. \"ewb-corrupt@n=3;eenter-fail@every=40\"; a typo'd\n"
    "  site or trigger name is a flag error with a suggestion.\n"
    "  --supervise 1 attaches the failure-domain watchdog (wedge\n"
    "  detection, escalation ladder, evacuation).\n"
    "\n"
    "exit codes:\n"
    "  0  every sealed response verified and all gates passed\n"
    "  1  integrity/attestation/self-healing failure\n"
    "  2  flag error (unknown flag, malformed number, unknown topology,\n"
    "     malformed --faults spec)\n";

using ull = unsigned long long;

}  // namespace

int
main(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            std::printf("%s", kUsage);
            return 0;
        }
    }

    const Flags flags(argc, argv);
    flags.rejectUnknown({"tenants", "requests", "batch", "epc-pages",
                         "deadline", "queue-depth", "threads", "topology",
                         "switchless", "chrome-trace", "faults", "fault-seed",
                         "chaos", "attest", "attest-expect-depth", "migrate",
                         "supervise"});
    const bool chaos = flags.has("chaos");

    const std::string topology = flags.str("topology", "flat");
    if (topology != "flat" && topology != "cvm") {
        std::fprintf(stderr, "error: --topology must be flat or cvm\n");
        return 2;
    }

    serve::Scenario s;
    s.cvm = topology == "cvm";
    s.tenants = flags.u64("tenants", chaos ? 24 : 8);
    s.requests = flags.u64("requests", chaos ? 960 : 200);
    s.batch = flags.u64("batch", 8);
    // The cvm tree's root + per-gateway TCS pools are unevictable, so
    // its pressure runs need a slightly larger (still heavily
    // oversubscribed) EPC floor.
    s.epcPages = flags.u64("epc-pages", chaos ? (s.cvm ? 1280 : 1024) : 0);
    s.deadline = flags.u64("deadline", 0);
    s.queueDepth = flags.u64("queue-depth", 64);
    s.switchless = flags.u64("switchless", 0) != 0;
    s.threads = flags.u64("threads", 1);
    s.chromeTracePath = flags.str("chrome-trace", "");
    s.attest = flags.u64("attest", 1) != 0;
    s.attestExpectDepth = std::uint32_t(flags.u64("attest-expect-depth", 0));
    s.migrateEvery = flags.u64("migrate", 0);
    s.supervise = flags.u64("supervise", 0) != 0;
    s.faultSpec = flags.str(
        "faults", chaos ? serve::chaosPlan(s.migrateEvery > 0, s.supervise)
                        : "");
    s.faultSeed = flags.u64("fault-seed", flags.u64("chaos", 1));
    if (!s.faultSpec.empty()) {
        std::string parseError;
        if (!fault::FaultPlan::parse(s.faultSpec, &parseError)) {
            std::fprintf(stderr, "error: --faults: %s\n", parseError.c_str());
            return 2;
        }
    }
    const bool faults = !s.faultSpec.empty();

    auto run = serve::runScenario(s);
    if (!run) return 1;
    const serve::ScenarioResult& r = run.value();
    const trace::StatsCounters& c = r.counters;

    std::printf("nesgx_serve: %llu tenants, %llu requests%s%s\n",
                (ull)s.tenants, (ull)r.submitted,
                s.cvm ? " [cvm depth-3]" : "", chaos ? " [chaos]" : "");
    std::printf("  gateways            : %zu\n", r.gateways);
    std::printf("  verified ok         : %llu\n", (ull)r.verified);
    std::printf("  integrity failures  : %llu\n", (ull)r.failures);
    std::printf("  shed (deadline)     : %llu\n", (ull)c.serveSheds);
    std::printf("  backpressured       : %llu\n", (ull)r.backpressured);
    std::printf("  batches             : %llu (%.2f req/batch)\n",
                (ull)c.serveBatches,
                c.serveBatches ? double(c.serveBatchedRequests) /
                                     double(c.serveBatches)
                               : 0.0);
    std::printf("  tenant evictions    : %llu (reloads %llu)\n",
                (ull)c.serveTenantEvictions, (ull)c.serveTenantReloads);
    std::printf("  EENTER/NEENTER      : %llu / %llu\n", (ull)c.eenterCount,
                (ull)c.neenterCount);
    if (s.switchless) {
        std::printf("  switchless          : %llu channels, %llu ring calls, "
                    "%llu polls\n",
                    (ull)r.channels, (ull)r.ringCalls, (ull)c.switchlessPolls);
        std::printf("  transitions/request : %.4f (post-arming)\n",
                    r.submitted ? double(r.transitions) / double(r.submitted)
                                : 0.0);
    }
    std::printf("  latency cycles      : p50 %llu  p95 %llu  p99 %llu\n",
                (ull)r.latency.p50(), (ull)r.latency.p95(),
                (ull)r.latency.p99());
    if (s.attest) {
        std::printf("  attested onboarding : %llu tenants (session keys "
                    "EGETKEY-rooted)\n",
                    (ull)s.tenants);
    }
    if (s.migrateEvery > 0) {
        const auto& ms = r.migration;
        std::printf("  --- live migration ---\n");
        std::printf("  migrations          : %llu attempted, %llu "
                    "committed, %llu aborted (%llu rolled back)\n",
                    (ull)ms.attempts, (ull)ms.gatewayMoves, (ull)ms.aborted,
                    (ull)ms.rolledBack);
        std::printf("  pages drained       : %llu\n", (ull)ms.pagesDrained);
        std::printf("  migration cycles    : p50 %llu  p95 %llu\n",
                    (ull)ms.latency.p50(), (ull)ms.latency.p95());
    }
    if (faults) {
        std::printf("  --- fault injection / self-healing ---\n");
        std::printf("  faults injected     : %llu\n", (ull)r.faultsInjected);
        for (std::size_t i = 0; i < fault::kFaultSiteCount; ++i) {
            if (r.injected[i] == 0) continue;
            std::printf("    %-17s : %llu (of %llu occurrences)\n",
                        fault::siteName(fault::FaultSite(i)),
                        (ull)r.injected[i], (ull)r.occurrences[i]);
        }
        std::printf("  typed errors        : %llu\n", (ull)r.typedErrors);
        for (std::size_t e = 0; e < kErrCount; ++e) {
            if (r.typedByErr[e] == 0) continue;
            std::printf("    %-17s : %llu\n", errName(Err(e)),
                        (ull)r.typedByErr[e]);
        }
        std::printf("  silent empties      : %llu\n", (ull)r.silentEmpties);
        std::printf("  retries             : %llu\n", (ull)c.serveRetries);
        std::printf("  tenant rebuilds     : %llu (subtree %llu)\n",
                    (ull)r.rebuilds, (ull)r.subtreeRebuilds);
        std::printf("  breaker open/close  : %llu / %llu\n",
                    (ull)c.serveBreakerOpens, (ull)c.serveBreakerCloses);
        std::printf("  watermark misses    : %llu\n",
                    (ull)c.serveWatermarkMisses);
        if (!r.rebuildLatency.empty()) {
            std::printf("  rebuild cycles      : p50 %llu  p95 %llu\n",
                        (ull)r.rebuildLatency.p50(),
                        (ull)r.rebuildLatency.p95());
        }
        std::printf("  recovered tenants   : %llu / %llu\n",
                    (ull)r.recovered, (ull)s.tenants);
    }
    const auto& ss = r.supervision;
    if (s.supervise) {
        std::printf("  --- supervision ---\n");
        std::printf("  watchdog ticks      : %llu (wedges %llu)\n",
                    (ull)ss.ticks, (ull)ss.wedges);
        std::printf("  ladder actions      : kick %llu, tenant rebuild "
                    "%llu, subtree rebuild %llu, evacuate %llu\n",
                    (ull)ss.kicks, (ull)ss.tenantRebuilds,
                    (ull)ss.subtreeRebuilds, (ull)ss.evacuations);
        if (!ss.detectionLatency.empty()) {
            std::printf("  detection cycles    : p50 %llu  p95 %llu\n",
                        (ull)ss.detectionLatency.p50(),
                        (ull)ss.detectionLatency.p95());
        }
    }
    if (!s.chromeTracePath.empty()) {
        std::printf("  [chrome trace written to %s]\n",
                    s.chromeTracePath.c_str());
    }

    bool fail = r.failures > 0 || r.silentEmpties > 0;
    if (r.failures > 0) {
        std::fprintf(stderr, "FAIL: %llu integrity failures\n",
                     (ull)r.failures);
    }
    if (r.silentEmpties > 0) {
        std::fprintf(stderr, "FAIL: %llu completions failed without a "
                             "typed error\n",
                     (ull)r.silentEmpties);
    }
    if (faults && r.recovered < s.tenants) {
        std::fprintf(stderr, "FAIL: only %llu/%llu tenants recovered\n",
                     (ull)r.recovered, (ull)s.tenants);
        fail = true;
    }
    if (chaos) {
        if (r.faultsInjected == 0 || r.faultSites() < 5) {
            std::fprintf(stderr,
                         "FAIL: chaos run injected %llu faults at %llu "
                         "sites (need > 0 at >= 5 sites)\n",
                         (ull)r.faultsInjected, (ull)r.faultSites());
            fail = true;
        }
        if (r.rebuilds == 0) {
            std::fprintf(stderr, "FAIL: chaos run rebuilt no tenant\n");
            fail = true;
        }
        // Supervised chaos armed the failure-domain sites, and a
        // crashed gateway / wedged poller only heals through the
        // watchdog: the run is broken if the ladder never fired. Every
        // batch passes the registry's dispatch gate, so gateway-crash
        // trips subtree rebuilds on either path; armed rings also trip
        // poller-wedge into kicks.
        const std::uint64_t ladderActions = ss.kicks + ss.tenantRebuilds +
                                            ss.subtreeRebuilds +
                                            ss.evacuations;
        if (s.supervise && (ss.wedges == 0 || ladderActions == 0)) {
            std::fprintf(stderr,
                         "FAIL: supervised chaos run must wedge (got "
                         "%llu) and act (got %llu ladder actions)\n",
                         (ull)ss.wedges, (ull)ladderActions);
            fail = true;
        }
    }
    if (s.migrateEvery > 0 && r.migration.gatewayMoves == 0) {
        std::fprintf(stderr, "FAIL: --migrate armed but no live "
                             "migration committed\n");
        fail = true;
    }
    if (fail) return 1;
    std::printf("OK\n");
    return 0;
}
