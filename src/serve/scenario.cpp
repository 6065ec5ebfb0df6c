#include "serve/scenario.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <vector>

#include "serve/client.h"
#include "serve/service.h"
#include "trace/chrome_sink.h"

namespace nesgx::serve {

std::string
chaosPlan(bool migrate, bool supervise)
{
    // Seven always-live sites, so a ">= 5 distinct kinds" gate has
    // slack. ring-stall only has occurrences on the switchless path.
    std::string plan =
        "ewb-corrupt@n=3; ewb-drop-slot@n=9; eldu-fail@n=15;"
        "eenter-fail@every=40; neenter-fail@every=45;"
        "epc-alloc-fail@every=150; aex-storm@every=100;"
        " ring-stall@every=30";
    // Some moves abort at export or import and must roll back with the
    // source still serving.
    if (migrate) plan += "; migrate-export-fail@n=2; migrate-import-fail@n=2";
    // A crashed gateway refuses every dispatch until the supervisor's
    // subtree rung rebuilds it, and a wedged poller refuses until the
    // kick rung disarms it (poller-wedge only occurs on the switchless
    // path).
    if (supervise) plan += "; gateway-crash@n=2; poller-wedge@n=2";
    return plan;
}

std::vector<TenantId>
Tally::settle(std::vector<Completion> done,
              const std::vector<std::unique_ptr<TenantClient>>& clients)
{
    std::vector<TenantId> typed;
    // A tenant is rebuilt at most once per pump, so one reset per
    // (tenant, drain) keeps the client mirror exact.
    std::set<TenantId> rebuiltSeen;
    for (Completion& c : done) {
        latency.add(c.latencyCycles);
        TenantClient& client = *clients[c.tenant];
        if (c.tenantRebuilt && rebuiltSeen.insert(c.tenant).second) {
            client.onTenantRebuilt();
        }
        if (c.ok) {
            if (client.onResponse(c.sealedResponse)) ++verified;
        } else if (c.status.isOk()) {
            ++silentEmpties;
        } else {
            ++typedErrors;
            ++typedByErr[std::size_t(c.error())];
            // Rebuild-marked errors already reset the whole client;
            // otherwise retire the oldest pending expectation.
            if (!c.tenantRebuilt) client.onDropped();
            typed.push_back(c.tenant);
        }
    }
    return typed;
}

std::uint64_t
ScenarioResult::faultSites() const
{
    return std::count_if(injected.begin(), injected.end(),
                         [](std::uint64_t n) { return n > 0; });
}

namespace {

/** Gateways the fleet fills at the registry's default tenantsPerOuter. */
std::uint64_t
gatewaysFor(const Scenario& s)
{
    const std::uint64_t perGateway = TenantRegistry::Config{}.tenantsPerOuter;
    return (s.tenants + perGateway - 1) / perGateway;
}

}  // namespace

sgx::Machine::Config
machineConfig(const Scenario& s)
{
    sgx::Machine::Config mc;
    mc.dramBytes = 256ull << 20;
    mc.prmBase = 128ull << 20;
    mc.prmBytes = 64ull << 20;
    if (s.switchless) {
        // One parked poller core per tenant, one per gateway, plus the
        // host workers: polling trades cores for transitions. The cvm
        // tree parks one more poller inside the shared root.
        mc.coreCount =
            std::uint32_t(s.tenants + gatewaysFor(s) + (s.cvm ? 3 : 2));
    }
    // Shrink the PRM so EPC pressure kicks in at small scale (+64 pages
    // of VA-tracking slack).
    if (s.epcPages > 0) mc.prmBytes = (s.epcPages + 64) * hw::kPageSize;
    if (s.threads > 1 && mc.coreCount < s.threads) {
        mc.coreCount = std::uint32_t(s.threads);
    }
    return mc;
}

TenantService::Config
serviceConfig(const Scenario& s)
{
    TenantService::Config sc;
    sc.admission.maxQueueDepth = s.queueDepth;
    sc.admission.deadlineCycles = s.deadline;
    sc.pool.batchSize = s.batch;
    sc.pool.threads = s.threads;
    sc.switchless.enabled = s.switchless;
    sc.switchless.hostCores = 2;
    if (s.cvm) {
        const std::uint64_t gateways = gatewaysFor(s);
        sc.registry.topology = Topology::Cvm;
        // The root's TCS pool carries every concurrent entry into the
        // tree: worker threads, and under switchless one parked poller
        // per tenant and gateway plus the root's own.
        sc.registry.cvmTcs =
            std::uint32_t(s.tenants + gateways + s.threads + 4);
        // Per-gateway ring pairs and staging live in the root's heap.
        sc.registry.cvmHeapPages = 64 + 8 * gateways;
    }
    if (!s.faultSpec.empty()) {
        // One failed batch opens the breaker, so the open -> half-open
        // probe -> close cycle runs within the fault window; the
        // cooldown is roughly one batch of service time.
        sc.pool.breakerThreshold = 1;
        sc.pool.breakerCooldownCycles = 150000;
    }
    sc.attestOnboarding = s.attest;
    if (s.attestExpectDepth > 0) sc.attestDepthOverride = s.attestExpectDepth;
    return sc;
}

Result<ScenarioResult>
runScenario(const Scenario& s)
{
    sgx::Machine machine(machineConfig(s));
    os::Kernel kernel(machine);
    const os::Pid pid = kernel.createProcess();
    sdk::Urts urts(kernel, pid);
    for (hw::CoreId c = 0; c < machine.coreCount(); ++c) {
        kernel.schedule(c, pid);
    }

    std::unique_ptr<trace::ChromeTraceSink> sink;
    if (!s.chromeTracePath.empty()) {
        sink = std::make_unique<trace::ChromeTraceSink>(
            machine.clock().frequencyHz() / 1e6, false);
        machine.trace().subscribe(sink.get());
    }

    const TenantService::Config sc = serviceConfig(s);
    // Outlives the service: its switchless teardown still drains rings
    // through the machine's fault hooks.
    std::unique_ptr<fault::FaultInjector> injector;
    TenantService service(urts, sc);

    // sql expectations replay on a client-side shadow database, which
    // needs lossless delivery; deadline shedding and fault injection
    // both drop requests, so those runs stick to echo/svm.
    std::vector<Workload> mix = {Workload::Echo, Workload::Sql,
                                 Workload::Svm};
    if (s.deadline != 0 || !s.faultSpec.empty()) {
        mix = {Workload::Echo, Workload::Svm};
    }
    std::vector<std::unique_ptr<TenantClient>> clients;
    for (std::uint64_t t = 0; t < s.tenants; ++t) {
        const Workload workload = mix[t % mix.size()];
        auto handle = service.addTenant(TenantId(t), workload);
        if (!handle) {
            std::fprintf(stderr,
                         "error: tenant %llu refused at onboarding: %s\n",
                         (unsigned long long)t, handle.status().name());
            return handle.status();
        }
        // Attested onboarding hands the client the EGETKEY-rooted
        // session key; an empty key falls back to the legacy
        // out-of-band secret.
        clients.push_back(std::make_unique<TenantClient>(
            TenantId(t), workload, service.sessionKeyFor(TenantId(t))));
    }

    // Park the switchless pollers while the world is still fault-free,
    // then snapshot the transition counters: everything after this is
    // the request path the transitions-per-request figure describes.
    ScenarioResult r;
    r.channels = service.armSwitchless();
    const auto& counters = machine.trace().counters();
    const std::uint64_t transitionsBase =
        counters.eenterCount + counters.neenterCount;

    // Armed only now: setup must succeed unconditionally, and trigger
    // occurrence counts exclude the setup's leaf traffic.
    if (!s.faultSpec.empty()) {
        injector = std::make_unique<fault::FaultInjector>(
            fault::FaultPlan::parse(s.faultSpec).orThrow("fault spec"),
            s.faultSeed);
        machine.setFaultInjector(injector.get());
    }

    migrate::MigrationEngine migrator;
    std::unique_ptr<supervise::Supervisor> supervisor;
    if (s.supervise) {
        supervisor = std::make_unique<supervise::Supervisor>(service);
        supervisor->attachEngine(migrator);
    }

    // The watchdog ticks after every pump, so wedges are detected at
    // batch granularity and its ladder acts between pumps. maxBatches
    // bounds each worker.
    auto pump = [&](std::size_t maxBatches) {
        service.pool().run(s.threads, maxBatches);
        if (supervisor) supervisor->tick();
    };
    auto drain = [&]() { r.settle(service.drain(), clients); };

    // Closed loop pumps once per round of batches; open loop keeps
    // bursting until backpressure does the pacing.
    const std::uint64_t window = s.openLoop ? s.requests : s.batch * s.tenants;
    std::uint64_t cursor = 0;
    std::uint64_t migrateCursor = 0;
    while (r.submitted < s.requests) {
        const TenantId t = TenantId(cursor++ % s.tenants);
        Status st = service.submit(t, clients[t]->nextRequest());
        if (st.code() == Err::Backpressure) {
            ++r.backpressured;
            clients[t]->onRefused();
            pump(4);  // let the pool catch up, then move on
            drain();
            continue;
        }
        if (!st) {
            std::fprintf(stderr, "error: submit: %s\n", st.name());
            return st;
        }
        ++r.submitted;
        // The moved tenant's queued and future requests must keep
        // verifying with no reseal; failed moves roll back to the
        // intact source and are only counted.
        if (s.migrateEvery > 0 && r.submitted % s.migrateEvery == 0) {
            (void)migrator.migrateToGateway(
                service, TenantId(migrateCursor++ % s.tenants));
        }
        if (r.submitted % window == 0) {
            pump(std::size_t(-1));
            drain();
        }
    }
    pump(std::size_t(-1));
    drain();

    if (injector) {
        // Recovery: stop injecting and drive every tenant until it
        // serves a verified response again. The clock charge between
        // rounds lets half-open breaker probes come due.
        injector->disarm();
        std::vector<bool> healed(s.tenants, false);
        for (int round = 0; round < 64 && r.recovered < s.tenants; ++round) {
            for (std::uint64_t t = 0; t < s.tenants; ++t) {
                if (healed[t]) continue;
                const std::uint64_t was = clients[t]->verified();
                Status st =
                    service.submit(TenantId(t), clients[t]->nextRequest());
                if (!st) clients[t]->onRefused();
                pump(std::size_t(-1));
                drain();
                if (clients[t]->verified() > was) {
                    healed[t] = true;
                    ++r.recovered;
                }
            }
            machine.charge(sc.pool.breakerCooldownCycles + 1);
        }
        // A tenant that never healed is a bug somewhere in the recovery
        // machinery; dump its failure-domain state next to the FAIL.
        if (r.recovered < s.tenants) {
            std::size_t resident = 0;
            for (const auto& [secs, rec] : kernel.enclaveTable()) {
                resident += 1 + rec.pages.size();
            }
            std::fprintf(stderr,
                         "epc: %zu free, %zu enclaves (%zu resident "
                         "pages), %zu gateways\n",
                         kernel.freeEpcPages(), kernel.enclaveTable().size(),
                         resident, service.registry().gatewayCount());
        }
        for (std::uint64_t t = 0; t < s.tenants; ++t) {
            if (healed[t]) continue;
            const TenantHandle* h = service.registry().find(TenantId(t));
            std::fprintf(
                stderr,
                "unrecovered tenant %llu: queued %zu, breaker %s, gateway "
                "%s, inner %s\n",
                (unsigned long long)t, service.admission().depth(TenantId(t)),
                h && h->breaker.open ? "open" : "closed",
                h && service.registry().gatewayCrashed(h->gatewayIndex)
                    ? "crashed"
                    : "up",
                h ? (h->inner ? "alive" : "missing") : "gone");
        }
        r.faultsInjected = injector->totalInjected();
        for (std::size_t i = 0; i < fault::kFaultSiteCount; ++i) {
            r.injected[i] = injector->injected(fault::FaultSite(i));
            r.occurrences[i] = injector->occurrences(fault::FaultSite(i));
        }
    }

    for (const auto& client : clients) r.failures += client->failures();
    r.gateways = service.registry().gatewayCount();
    r.counters = counters;
    r.transitions =
        counters.eenterCount + counters.neenterCount - transitionsBase;
    if (const auto* engine = service.switchlessEngine()) {
        r.ringCalls = engine->engineStats().calls;
    }
    const WorkerPool& pool = service.pool();
    r.rebuilds = pool.rebuilds();
    r.subtreeRebuilds = pool.subtreeRebuilds();
    r.rebuildLatency = pool.rebuildLatency();
    r.migration = migrator.stats();
    if (supervisor) r.supervision = supervisor->stats();

    if (sink) {
        machine.trace().unsubscribe(sink.get());
        if (!sink->writeFile(s.chromeTracePath)) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         s.chromeTracePath.c_str());
            return Err::OsError;
        }
        r.traceEvents = sink->eventCount();
    }
    return r;
}

}  // namespace nesgx::serve
