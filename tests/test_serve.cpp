/**
 * Serving-layer tests: tenant registry pooling/spillover, batched
 * dispatch transition accounting, admission backpressure and deadline
 * shedding, and correctness under EPC pressure — including an eviction
 * racing a pending NEENTER, in both TLB-tag modes.
 */
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "fault/injector.h"
#include "harness.h"
#include "serve/client.h"
#include "serve/service.h"
#include "trace/sink.h"

namespace nesgx::test {
namespace {

using serve::TenantId;
using serve::Workload;

/** Collects, per tenant, the cores its ServeBatchBegin events land on
 *  (scheduling proof). */
struct BatchCoreSink : trace::TraceSink {
    std::map<TenantId, std::set<hw::CoreId>> cores;
    void onEvent(const trace::TraceEvent& event) override
    {
        if (event.kind == trace::EventKind::ServeBatchBegin) {
            cores[TenantId(event.arg0)].insert(event.core);
        }
    }
};

/** Small enclave shapes so pressure tests stay fast. */
serve::TenantService::Config
smallServiceConfig()
{
    serve::TenantService::Config sc;
    sc.registry.tenantsPerOuter = 3;
    sc.registry.outerCodePages = 12;
    sc.registry.outerHeapPages = 24;
    sc.registry.innerCodePages = 4;
    sc.registry.innerHeapPages = 8;
    sc.pool.batchSize = 4;
    sc.pressure.lowWatermarkPages = 16;
    return sc;
}

/** An EPC small enough that 6 such tenants cannot all stay resident. */
sgx::Machine::Config
pressedConfig(bool taggedTlb)
{
    auto config = World::smallConfig();
    config.taggedTlb = taggedTlb;
    config.prmBytes = 176 * hw::kPageSize;
    return config;
}

/** Cvm topology: one shared depth-1 root above the gateways, tenants
 *  at depth 3. Root shape kept small so pressure tests stay fast. */
serve::TenantService::Config
cvmServiceConfig()
{
    auto sc = smallServiceConfig();
    sc.registry.topology = serve::Topology::Cvm;
    sc.registry.cvmCodePages = 8;
    sc.registry.cvmHeapPages = 24;
    sc.registry.cvmTcs = 4;
    return sc;
}

TEST(ServeRegistry, SpillsIntoFreshGatewaysWhenFull)
{
    World world;
    auto sc = smallServiceConfig();
    sc.registry.tenantsPerOuter = 2;
    serve::TenantService service(*world.urts, sc);

    for (TenantId t = 0; t < 5; ++t) {
        ASSERT_TRUE(service.addTenant(t, Workload::Echo).isOk()) << t;
    }
    EXPECT_EQ(service.registry().tenantCount(), 5u);
    // ceil(5 / 2) gateways; tenants land in creation order.
    EXPECT_EQ(service.registry().gatewayCount(), 3u);
    EXPECT_EQ(service.registry().find(4)->gatewayIndex, 2u);
    EXPECT_EQ(service.registry().find(0)->gatewayIndex, 0u);

    // Re-ensuring an existing tenant is idempotent: no new gateway.
    ASSERT_TRUE(service.addTenant(3, Workload::Echo).isOk());
    EXPECT_EQ(service.registry().gatewayCount(), 3u);
    EXPECT_EQ(service.registry().tenantCount(), 5u);

    EXPECT_EQ(service.registry().find(7), nullptr);
    EXPECT_EQ(service.submit(7, Bytes{1, 2, 3}).code(), Err::NotFound);
}

TEST(ServeWorkerPool, BatchCostsOneEnterPairRegardlessOfSize)
{
    World world;
    auto sc = smallServiceConfig();
    sc.pool.batchSize = 8;
    serve::TenantService service(*world.urts, sc);
    ASSERT_TRUE(service.addTenant(0, Workload::Echo).isOk());
    serve::TenantClient client(0, Workload::Echo);

    const auto before = world.machine.trace().counters();
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(service.submit(0, client.nextRequest()).isOk());
    }
    service.pump();
    std::uint64_t verified = 0;
    for (serve::Completion& done : service.drain()) {
        if (client.onResponse(done.sealedResponse)) ++verified;
        EXPECT_GT(done.latencyCycles, 0u);
    }
    const auto& after = world.machine.trace().counters();

    EXPECT_EQ(verified, 8u);
    EXPECT_EQ(client.failures(), 0u);
    // 8 requests, one batch: exactly one EENTER (gateway) and one
    // NEENTER (tenant inner) — the amortization bench_serve measures.
    EXPECT_EQ(after.eenterCount - before.eenterCount, 1u);
    EXPECT_EQ(after.neenterCount - before.neenterCount, 1u);
    EXPECT_EQ(after.serveBatches - before.serveBatches, 1u);
    EXPECT_EQ(after.serveBatchedRequests - before.serveBatchedRequests, 8u);
}

TEST(ServeAdmission, BackpressureRefusesWhenQueueFull)
{
    World world;
    auto sc = smallServiceConfig();
    sc.admission.maxQueueDepth = 4;
    serve::TenantService service(*world.urts, sc);
    ASSERT_TRUE(service.addTenant(0, Workload::Echo).isOk());
    serve::TenantClient client(0, Workload::Echo);

    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(service.submit(0, client.nextRequest()).isOk());
    }
    EXPECT_EQ(service.submit(0, client.nextRequest()).code(),
              Err::Backpressure);
    client.onDropped();
    EXPECT_EQ(service.admission().rejected(), 1u);
    EXPECT_EQ(service.admission().depth(0), 4u);

    // Draining makes room again.
    service.pump();
    EXPECT_EQ(service.admission().depth(0), 0u);
    EXPECT_TRUE(service.submit(0, client.nextRequest()).isOk());
}

TEST(ServeAdmission, RefusedSubmitsResealAndEveryAcceptedResponseVerifies)
{
    World world;
    auto sc = smallServiceConfig();
    sc.admission.maxQueueDepth = 2;
    serve::TenantService service(*world.urts, sc);
    const Workload workloads[] = {Workload::Echo, Workload::Sql};
    std::vector<std::unique_ptr<serve::TenantClient>> clients;
    for (TenantId t = 0; t < 2; ++t) {
        ASSERT_TRUE(service.addTenant(t, workloads[t]).isOk());
        clients.push_back(
            std::make_unique<serve::TenantClient>(t, workloads[t]));
    }

    // Three submits per tenant per round against a queue of two: the
    // third is refused, and the client seals its plaintext again as the
    // first request of the next round.
    std::uint64_t accepted = 0;
    std::uint64_t refused = 0;
    std::uint64_t verified = 0;
    for (int round = 0; round < 6; ++round) {
        for (TenantId t = 0; t < 2; ++t) {
            for (int i = 0; i < 3; ++i) {
                Status st = service.submit(t, clients[t]->nextRequest());
                if (st.isOk()) {
                    ++accepted;
                } else {
                    ASSERT_EQ(st.code(), Err::Backpressure);
                    clients[t]->onRefused();
                    ++refused;
                }
            }
        }
        service.pump();
        for (serve::Completion& done : service.drain()) {
            ASSERT_TRUE(done.ok) << done.status.name();
            EXPECT_TRUE(clients[done.tenant]->onResponse(done.sealedResponse))
                << "tenant " << done.tenant << " round " << round;
            ++verified;
        }
    }
    EXPECT_EQ(refused, 12u);
    EXPECT_EQ(verified, accepted);
    for (const auto& client : clients) {
        EXPECT_EQ(client->failures(), 0u);
        EXPECT_EQ(client->pending(), 0u);
    }
}

TEST(ServeAdmission, DeadlineShedsStaleRequestsAtDequeue)
{
    World world;
    auto sc = smallServiceConfig();
    sc.pool.batchSize = 4;
    // One cycle: the first batch is dequeued before the clock moves (so
    // it beats its deadline), and dispatching it burns enough cycles
    // that everything still queued has expired.
    sc.admission.deadlineCycles = 1;
    serve::TenantService service(*world.urts, sc);
    ASSERT_TRUE(service.addTenant(0, Workload::Echo).isOk());
    serve::TenantClient client(0, Workload::Echo);

    for (int i = 0; i < 16; ++i) {
        ASSERT_TRUE(service.submit(0, client.nextRequest()).isOk());
    }
    service.pump();
    std::uint64_t verified = 0;
    std::uint64_t deadlined = 0;
    for (serve::Completion& done : service.drain()) {
        if (done.ok) {
            if (client.onResponse(done.sealedResponse)) ++verified;
        } else {
            // Shed entries complete typed — never a silent disappearance.
            EXPECT_EQ(done.status.code(), Err::Deadline);
            EXPECT_TRUE(done.sealedResponse.empty());
            ++deadlined;
        }
    }

    // The first batch beats the deadline; later ones are shed without
    // spending an enclave transition, and nothing miscomputes.
    EXPECT_EQ(verified, 4u);
    EXPECT_EQ(deadlined, 12u);
    EXPECT_EQ(service.admission().shed(), 12u);
    EXPECT_EQ(client.failures(), 0u);
    EXPECT_EQ(service.admission().totalQueued(), 0u);
}

/** Interleaved submissions from 4 tenants, served under the owner
 *  rule: pump() runs one worker, so every batch lands on core 0;
 *  pumpParallel(2) serves each tenant on core gatewayIndex % 2, which
 *  with three tenants per gateway puts tenants 0-2 on core 0 and
 *  tenant 3 on core 1. */
void
interleavedTenantsAcrossCores(bool taggedTlb)
{
    auto config = World::smallConfig();
    config.taggedTlb = taggedTlb;
    World world(config);
    auto sc = smallServiceConfig();
    sc.pool.batchSize = 2;
    serve::TenantService service(*world.urts, sc);

    const Workload mix[] = {Workload::Echo, Workload::Sql, Workload::Svm,
                            Workload::Echo};
    std::vector<std::unique_ptr<serve::TenantClient>> clients;
    for (TenantId t = 0; t < 4; ++t) {
        ASSERT_TRUE(service.addTenant(t, mix[t]).isOk());
        clients.push_back(std::make_unique<serve::TenantClient>(t, mix[t]));
    }
    ASSERT_EQ(service.registry().gatewayCount(), 2u);

    // Six interleaved rounds, pumped every second round and at the end;
    // returns the verified responses and the cores each tenant ran on.
    // threads == 0 drives pump().
    auto serveRounds = [&](std::size_t threads, BatchCoreSink& cores) {
        std::uint64_t verified = 0;
        auto pumpAndSettle = [&] {
            threads == 0 ? service.pump() : service.pumpParallel(threads);
            for (serve::Completion& done : service.drain()) {
                if (clients[done.tenant]->onResponse(done.sealedResponse)) {
                    ++verified;
                }
            }
        };
        world.machine.trace().subscribe(&cores);
        for (int round = 0; round < 6; ++round) {
            for (TenantId t = 0; t < 4; ++t) {
                EXPECT_TRUE(
                    service.submit(t, clients[t]->nextRequest()).isOk());
            }
            if (round % 2 == 1) pumpAndSettle();
        }
        pumpAndSettle();
        world.machine.trace().unsubscribe(&cores);
        return verified;
    };

    BatchCoreSink serial;
    EXPECT_EQ(serveRounds(0, serial), 24u);
    ASSERT_EQ(serial.cores.size(), 4u);
    for (const auto& [tenant, cores] : serial.cores) {
        EXPECT_EQ(cores, std::set<hw::CoreId>{0}) << "tenant " << tenant;
    }

    BatchCoreSink parallel;
    EXPECT_EQ(serveRounds(2, parallel), 24u);
    ASSERT_EQ(parallel.cores.size(), 4u);
    std::set<hw::CoreId> used;
    for (const auto& [tenant, cores] : parallel.cores) {
        const hw::CoreId owner =
            hw::CoreId(service.registry().find(tenant)->gatewayIndex % 2);
        EXPECT_EQ(cores, std::set<hw::CoreId>{owner}) << "tenant " << tenant;
        used.insert(cores.begin(), cores.end());
    }
    EXPECT_EQ(used, (std::set<hw::CoreId>{0, 1}));
    for (const auto& client : clients) {
        EXPECT_EQ(client->failures(), 0u);
    }
}

TEST(ServeWorkerPool, InterleavedTenantsAcrossCoresFlushedTlb)
{
    interleavedTenantsAcrossCores(false);
}

TEST(ServeWorkerPool, InterleavedTenantsAcrossCoresTaggedTlb)
{
    interleavedTenantsAcrossCores(true);
}

/** Six tenants over two gateways, three requests queued for each: at
 *  batch size 2 that is two batches per tenant, twelve in all. */
struct QueuedFleet {
    World world;
    serve::TenantService service;
    std::vector<std::unique_ptr<serve::TenantClient>> clients;

    QueuedFleet() : service(*world.urts, fleetConfig())
    {
        const Workload mix[] = {Workload::Echo, Workload::Sql,
                                Workload::Svm};
        for (TenantId t = 0; t < 6; ++t) {
            EXPECT_TRUE(service.addTenant(t, mix[t % 3]).isOk()) << t;
            clients.push_back(
                std::make_unique<serve::TenantClient>(t, mix[t % 3]));
        }
        for (int i = 0; i < 3; ++i) {
            for (TenantId t = 0; t < 6; ++t) {
                EXPECT_TRUE(
                    service.submit(t, clients[t]->nextRequest()).isOk());
            }
        }
    }

    static serve::TenantService::Config fleetConfig()
    {
        auto sc = smallServiceConfig();
        sc.pool.batchSize = 2;
        return sc;
    }

    /** Drains completions, counting the ones the clients verify. */
    std::vector<serve::Completion> settle(std::uint64_t* verified)
    {
        std::vector<serve::Completion> done = service.drain();
        for (const serve::Completion& c : done) {
            if (clients[c.tenant]->onResponse(c.sealedResponse)) {
                ++*verified;
            }
        }
        return done;
    }
};

TEST(ServeWorkerPool, PumpIsPumpParallelWithOneWorker)
{
    // One scheduler: pump() and pumpParallel(1) run the same one-worker
    // loop, so identical fleets deliver the same completions in the
    // same order, fold the same counters and end on the same cycle.
    QueuedFleet serial;
    QueuedFleet parallel;
    EXPECT_EQ(serial.service.pump(), 12u);
    EXPECT_EQ(parallel.service.pumpParallel(1), 12u);

    std::uint64_t verified[2] = {0, 0};
    const auto a = serial.settle(&verified[0]);
    const auto b = parallel.settle(&verified[1]);
    EXPECT_EQ(verified[0], 18u);
    EXPECT_EQ(verified[1], 18u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id) << i;
        EXPECT_EQ(a[i].tenant, b[i].tenant) << i;
        EXPECT_EQ(a[i].latencyCycles, b[i].latencyCycles) << i;
        EXPECT_EQ(a[i].sealedResponse, b[i].sealedResponse) << i;
    }

    auto figures = [](const trace::StatsCounters& c) {
        return std::vector<std::uint64_t>{
            c.tlbMisses,    c.tlbHits,      c.nestedChecks,
            c.eenterCount,  c.eexitCount,   c.neenterCount,
            c.neexitCount,  c.meeLines,     c.llcHitLines,
            c.tlbFlushes,   c.flushesAvoided, c.closureCacheHits,
            c.serveBatches, c.serveBatchedRequests};
    };
    EXPECT_EQ(figures(serial.world.machine.trace().counters()),
              figures(parallel.world.machine.trace().counters()));
    EXPECT_EQ(serial.world.machine.clock().cycles(),
              parallel.world.machine.clock().cycles());
}

TEST(ServeWorkerPool, PumpServesAtMostMaxBatches)
{
    // pump(n) stops after n batches with work still queued; the open-
    // loop scenario's backpressure path relies on it to pace a burst.
    QueuedFleet fleet;
    const auto& counters = fleet.world.machine.trace().counters();
    const std::uint64_t base = counters.serveBatches;
    std::uint64_t verified = 0;

    EXPECT_EQ(fleet.service.pump(0), 0u);
    EXPECT_EQ(fleet.service.pump(5), 5u);
    EXPECT_EQ(counters.serveBatches - base, 5u);
    // The sweep's first five tenants, one batch of two each.
    const auto first = fleet.settle(&verified);
    ASSERT_EQ(first.size(), 10u);
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].tenant, TenantId(i / 2)) << i;
    }
    EXPECT_EQ(fleet.service.admission().totalQueued(), 8u);

    // Seven batches remain; a larger budget serves exactly those.
    EXPECT_EQ(fleet.service.pump(100), 7u);
    EXPECT_EQ(counters.serveBatches - base, 12u);
    fleet.settle(&verified);
    EXPECT_EQ(verified, 18u);
    EXPECT_EQ(fleet.service.admission().totalQueued(), 0u);
}

TEST(ServePressure, EvictionSkipsTenantWithPendingNeenter)
{
    World world;
    serve::TenantService service(*world.urts, smallServiceConfig());
    ASSERT_TRUE(service.addTenant(0, Workload::Echo).isOk());
    ASSERT_TRUE(service.addTenant(1, Workload::Echo).isOk());
    serve::TenantClient c0(0, Workload::Echo), c1(1, Workload::Echo);

    // Make both resident (tenant 0 colder: dispatched first).
    ASSERT_TRUE(service.submit(0, c0.nextRequest()).isOk());
    service.pump();
    ASSERT_TRUE(service.submit(1, c1.nextRequest()).isOk());
    service.pump();
    service.drain();

    // Tenant 0 has a NEENTER in flight: the pressure manager must pass
    // it over even though it is the LRU victim, and evict tenant 1.
    service.registry().find(0)->busy = true;
    ASSERT_TRUE(
        service.pressure().ensureFree(world.kernel.freeEpcPages() + 8)
            .isOk());
    EXPECT_EQ(service.registry().find(0)->evictions, 0u);
    EXPECT_EQ(service.registry().find(1)->evictions, 1u);

    // With every tenant pinned there is no legal victim left.
    service.registry().find(1)->busy = true;
    EXPECT_FALSE(
        service.pressure().ensureFree(world.kernel.freeEpcPages() + 8)
            .isOk());

    // Once the dispatches retire, the evicted tenant reloads
    // transparently on its next request and still answers correctly.
    service.registry().find(0)->busy = false;
    service.registry().find(1)->busy = false;
    ASSERT_TRUE(service.submit(1, c1.nextRequest()).isOk());
    service.pump();
    std::uint64_t verified = 0;
    for (serve::Completion& done : service.drain()) {
        if (c1.onResponse(done.sealedResponse)) ++verified;
    }
    EXPECT_EQ(verified, 1u);
    EXPECT_EQ(c1.failures(), 0u);
    EXPECT_GE(service.registry().find(1)->reloads, 1u);
}

TEST(ServePressure, ExplicitEvictThenDispatchReloadsTransparently)
{
    World world;
    serve::TenantService service(*world.urts, smallServiceConfig());
    ASSERT_TRUE(service.addTenant(0, Workload::Sql).isOk());
    serve::TenantClient client(0, Workload::Sql);

    // Seed some tenant state (a table with rows), then page it out.
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(service.submit(0, client.nextRequest()).isOk());
    }
    service.pump();
    for (serve::Completion& done : service.drain()) {
        ASSERT_TRUE(client.onResponse(done.sealedResponse));
    }
    EXPECT_GT(service.registry().evictTenant(*service.registry().find(0)),
              0u);

    // Follow-up statements read the pre-eviction rows: any page lost or
    // corrupted in the round trip shows up as a shadow-db mismatch.
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(service.submit(0, client.nextRequest()).isOk());
    }
    service.pump();
    for (serve::Completion& done : service.drain()) {
        EXPECT_TRUE(client.onResponse(done.sealedResponse));
    }
    EXPECT_EQ(client.failures(), 0u);
    EXPECT_GE(service.registry().find(0)->reloads, 1u);
}

/** Six tenants on an EPC that holds only a few of them: the service
 *  must keep verifying every response while the pressure manager pages
 *  tenants in and out underneath. */
void
survivesEpcPressure(bool taggedTlb)
{
    World world(pressedConfig(taggedTlb));
    serve::TenantService service(*world.urts, smallServiceConfig());

    const Workload mix[] = {Workload::Echo, Workload::Sql, Workload::Svm};
    std::vector<std::unique_ptr<serve::TenantClient>> clients;
    for (TenantId t = 0; t < 6; ++t) {
        ASSERT_TRUE(service.addTenant(t, mix[t % 3]).isOk()) << t;
        clients.push_back(
            std::make_unique<serve::TenantClient>(t, mix[t % 3]));
    }

    std::uint64_t verified = 0;
    auto drainInto = [&]() {
        for (serve::Completion& done : service.drain()) {
            if (clients[done.tenant]->onResponse(done.sealedResponse)) {
                ++verified;
            }
        }
    };
    for (int round = 0; round < 12; ++round) {
        for (TenantId t = 0; t < 6; ++t) {
            ASSERT_TRUE(
                service.submit(t, clients[t]->nextRequest()).isOk());
        }
        if (round % 4 == 3) {
            service.pump();
            drainInto();
        }
    }
    service.pump();
    drainInto();

    EXPECT_EQ(verified, 72u);
    for (const auto& client : clients) {
        EXPECT_EQ(client->failures(), 0u);
    }
    const auto& counters = world.machine.trace().counters();
    EXPECT_GE(counters.serveTenantEvictions, 1u)
        << "EPC was not actually under pressure";
    EXPECT_GE(counters.serveTenantReloads, 1u);
}

TEST(ServePressure, SurvivesEpcPressureFlushedTlb)
{
    survivesEpcPressure(false);
}

TEST(ServePressure, SurvivesEpcPressureTaggedTlb)
{
    survivesEpcPressure(true);
}

/** A tenant whose swapped-out state is corrupted in untrusted memory
 *  (injected EWB bit-flip -> PagingIntegrity at ELDU) must be torn
 *  down and rebuilt — and then serve verified responses again. */
void
rebuildsPoisonedTenant(bool taggedTlb)
{
    auto config = World::smallConfig();
    config.taggedTlb = taggedTlb;
    World world(config);
    serve::TenantService service(*world.urts, smallServiceConfig());
    ASSERT_TRUE(service.addTenant(0, Workload::Echo).isOk());
    serve::TenantClient client(0, Workload::Echo);

    // Healthy warm-up round.
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(service.submit(0, client.nextRequest()).isOk());
    }
    service.pump();
    for (serve::Completion& done : service.drain()) {
        ASSERT_TRUE(client.onResponse(done.sealedResponse));
    }

    // Corrupt the first page the eviction writes back, then queue work
    // and page the tenant out: the reload hits PagingIntegrity and the
    // pool must rebuild instead of retrying into the poisoned instance.
    auto plan = fault::FaultPlan::parse("ewb-corrupt@n=1").orThrow("plan");
    fault::FaultInjector injector(plan, 7);
    world.machine.setFaultInjector(&injector);

    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(service.submit(0, client.nextRequest()).isOk());
    }
    EXPECT_GT(service.registry().evictTenant(*service.registry().find(0)),
              0u);
    EXPECT_EQ(injector.injected(fault::FaultSite::EwbCorrupt), 1u);
    service.pump();

    // Every queued request comes back typed and rebuild-marked — never
    // ok, never silently empty.
    std::uint64_t rebuildMarked = 0;
    for (serve::Completion& done : service.drain()) {
        EXPECT_FALSE(done.ok);
        EXPECT_FALSE(done.status.isOk());
        EXPECT_TRUE(done.error() == Err::Unavailable ||
                    done.error() == Err::PagingIntegrity)
            << errName(done.error());
        if (done.tenantRebuilt && rebuildMarked++ == 0) {
            client.onTenantRebuilt();
        }
    }
    EXPECT_GE(rebuildMarked, 1u);
    EXPECT_GE(service.pool().rebuilds(), 1u);
    EXPECT_GE(service.registry().find(0)->rebuilds, 1u);
    EXPECT_GE(client.rebuildsSeen(), 1u);

    // The rebuilt tenant serves verified responses again (the client
    // reseals after the reset; its sequence runs on).
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(service.submit(0, client.nextRequest()).isOk());
    }
    service.pump();
    std::uint64_t verifiedAfter = 0;
    for (serve::Completion& done : service.drain()) {
        EXPECT_TRUE(client.onResponse(done.sealedResponse));
        ++verifiedAfter;
    }
    EXPECT_EQ(verifiedAfter, 4u);
    EXPECT_EQ(client.failures(), 0u);
}

TEST(ServeSelfHealing, RebuildsPoisonedTenantFlushedTlb)
{
    rebuildsPoisonedTenant(false);
}

TEST(ServeSelfHealing, RebuildsPoisonedTenantTaggedTlb)
{
    rebuildsPoisonedTenant(true);
}

TEST(ServeSelfHealing, BreakerOpensOnRepeatedFailureAndProbesClosed)
{
    World world;
    auto sc = smallServiceConfig();
    sc.pool.breakerThreshold = 1;
    sc.pool.breakerCooldownCycles = 100000;
    serve::TenantService service(*world.urts, sc);
    ASSERT_TRUE(service.addTenant(0, Workload::Echo).isOk());
    serve::TenantClient client(0, Workload::Echo);

    // Refuse every EENTER: the whole retry budget fails, the batch
    // completes typed, and one failed batch trips the breaker.
    auto plan =
        fault::FaultPlan::parse("eenter-fail@every=1").orThrow("plan");
    fault::FaultInjector injector(plan, 7);
    world.machine.setFaultInjector(&injector);

    ASSERT_TRUE(service.submit(0, client.nextRequest()).isOk());
    service.pump();
    for (serve::Completion& done : service.drain()) {
        EXPECT_FALSE(done.ok);
        EXPECT_EQ(done.error(), Err::GeneralProtection);
        client.onDropped();
    }
    EXPECT_TRUE(service.registry().find(0)->breaker.open);
    EXPECT_EQ(service.pool().breakerOpens(), 1u);
    EXPECT_GE(service.pool().retries(), 1u);

    // While open and before the cooldown: refused outright, typed
    // Unavailable, without touching the enclave.
    ASSERT_TRUE(service.submit(0, client.nextRequest()).isOk());
    service.pump();
    for (serve::Completion& done : service.drain()) {
        EXPECT_FALSE(done.ok);
        EXPECT_EQ(done.error(), Err::Unavailable);
        client.onDropped();
    }
    EXPECT_TRUE(service.registry().find(0)->breaker.open);

    // Fault gone and cooldown elapsed: the next batch is the half-open
    // probe, it succeeds, and the breaker closes.
    injector.disarm();
    world.machine.charge(sc.pool.breakerCooldownCycles + 1);
    ASSERT_TRUE(service.submit(0, client.nextRequest()).isOk());
    service.pump();
    std::uint64_t verified = 0;
    for (serve::Completion& done : service.drain()) {
        EXPECT_TRUE(client.onResponse(done.sealedResponse));
        ++verified;
    }
    EXPECT_EQ(verified, 1u);
    EXPECT_FALSE(service.registry().find(0)->breaker.open);
    EXPECT_EQ(service.pool().breakerCloses(), 1u);
    EXPECT_EQ(client.failures(), 0u);
}

TEST(ServeSelfHealing, TransientLeafFailureRetriesWithinBudget)
{
    World world;
    serve::TenantService service(*world.urts, smallServiceConfig());
    ASSERT_TRUE(service.addTenant(0, Workload::Echo).isOk());
    serve::TenantClient client(0, Workload::Echo);

    // Exactly the first EENTER fails; the retry dispatches cleanly and
    // the client still verifies every response.
    auto plan = fault::FaultPlan::parse("eenter-fail@n=1").orThrow("plan");
    fault::FaultInjector injector(plan, 7);
    world.machine.setFaultInjector(&injector);

    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(service.submit(0, client.nextRequest()).isOk());
    }
    service.pump();
    std::uint64_t verified = 0;
    for (serve::Completion& done : service.drain()) {
        EXPECT_TRUE(done.ok);
        EXPECT_TRUE(done.status.isOk());
        EXPECT_TRUE(client.onResponse(done.sealedResponse));
        ++verified;
    }
    EXPECT_EQ(verified, 4u);
    EXPECT_EQ(service.pool().retries(), 1u);
    EXPECT_EQ(service.pool().rebuilds(), 0u);
    EXPECT_EQ(client.failures(), 0u);
}

/** Depth-3 dispatch accounting: under the Cvm topology one batch costs
 *  exactly one EENTER (CVM root) plus two NEENTERs (gateway, tenant) no
 *  matter how many requests ride in it — the flat amortization claim,
 *  one level deeper. */
void
cvmBatchCostsOneEnterPlusTwoNeenters(bool taggedTlb)
{
    auto config = World::smallConfig();
    config.taggedTlb = taggedTlb;
    World world(config);
    auto sc = cvmServiceConfig();
    sc.pool.batchSize = 8;
    serve::TenantService service(*world.urts, sc);
    ASSERT_TRUE(service.addTenant(0, Workload::Echo).isOk());
    serve::TenantClient client(0, Workload::Echo);

    EXPECT_EQ(service.registry().topology(), serve::Topology::Cvm);
    ASSERT_NE(service.registry().cvmRoot(), nullptr);
    auto chain = service.registry().dispatchChain(
        *service.registry().find(0));
    ASSERT_EQ(chain.size(), 3u);
    EXPECT_EQ(chain.front(), service.registry().cvmRoot());

    const auto before = world.machine.trace().counters();
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(service.submit(0, client.nextRequest()).isOk());
    }
    service.pump();
    std::uint64_t verified = 0;
    for (serve::Completion& done : service.drain()) {
        if (client.onResponse(done.sealedResponse)) ++verified;
    }
    const auto& after = world.machine.trace().counters();

    EXPECT_EQ(verified, 8u);
    EXPECT_EQ(client.failures(), 0u);
    EXPECT_EQ(after.eenterCount - before.eenterCount, 1u);
    EXPECT_EQ(after.neenterCount - before.neenterCount, 2u);
}

TEST(ServeCvm, BatchCostsOneEnterPlusTwoNeentersFlushedTlb)
{
    cvmBatchCostsOneEnterPlusTwoNeenters(false);
}

TEST(ServeCvm, BatchCostsOneEnterPlusTwoNeentersTaggedTlb)
{
    cvmBatchCostsOneEnterPlusTwoNeenters(true);
}

/** Six depth-3 tenants on an EPC that cannot hold the whole tree: the
 *  pressure manager pages tenant subtrees out, the registry reloads
 *  chains transparently, and every response still verifies. The CVM
 *  root's pool is unevictable, so the floor is a little above the flat
 *  pressure test's. */
void
cvmSurvivesEpcPressure(bool taggedTlb)
{
    auto config = World::smallConfig();
    config.taggedTlb = taggedTlb;
    config.prmBytes = 240 * hw::kPageSize;
    World world(config);
    serve::TenantService service(*world.urts, cvmServiceConfig());

    const Workload mix[] = {Workload::Echo, Workload::Sql, Workload::Svm};
    std::vector<std::unique_ptr<serve::TenantClient>> clients;
    for (TenantId t = 0; t < 6; ++t) {
        ASSERT_TRUE(service.addTenant(t, mix[t % 3]).isOk()) << t;
        clients.push_back(
            std::make_unique<serve::TenantClient>(t, mix[t % 3]));
    }

    std::uint64_t verified = 0;
    auto drainInto = [&]() {
        for (serve::Completion& done : service.drain()) {
            if (clients[done.tenant]->onResponse(done.sealedResponse)) {
                ++verified;
            }
        }
    };
    for (int round = 0; round < 12; ++round) {
        for (TenantId t = 0; t < 6; ++t) {
            ASSERT_TRUE(
                service.submit(t, clients[t]->nextRequest()).isOk());
        }
        if (round % 4 == 3) {
            service.pump();
            drainInto();
        }
    }
    service.pump();
    drainInto();

    EXPECT_EQ(verified, 72u);
    for (const auto& client : clients) {
        EXPECT_EQ(client->failures(), 0u);
    }
    const auto& counters = world.machine.trace().counters();
    EXPECT_GE(counters.serveTenantEvictions, 1u)
        << "EPC was not actually under pressure";
    EXPECT_GE(counters.serveTenantReloads, 1u);
}

TEST(ServeCvm, SurvivesEpcPressureFlushedTlb)
{
    cvmSurvivesEpcPressure(false);
}

TEST(ServeCvm, SurvivesEpcPressureTaggedTlb)
{
    cvmSurvivesEpcPressure(true);
}

/** The chaos scenario at depth 3: a depth-3 tenant whose swapped-out
 *  state is corrupted in untrusted memory must be rebuilt in place
 *  under its gateway and then serve verified responses again. */
void
cvmRebuildsPoisonedTenant(bool taggedTlb)
{
    auto config = World::smallConfig();
    config.taggedTlb = taggedTlb;
    World world(config);
    serve::TenantService service(*world.urts, cvmServiceConfig());
    ASSERT_TRUE(service.addTenant(0, Workload::Echo).isOk());
    serve::TenantClient client(0, Workload::Echo);

    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(service.submit(0, client.nextRequest()).isOk());
    }
    service.pump();
    for (serve::Completion& done : service.drain()) {
        ASSERT_TRUE(client.onResponse(done.sealedResponse));
    }

    auto plan = fault::FaultPlan::parse("ewb-corrupt@n=1").orThrow("plan");
    fault::FaultInjector injector(plan, 7);
    world.machine.setFaultInjector(&injector);

    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(service.submit(0, client.nextRequest()).isOk());
    }
    EXPECT_GT(service.registry().evictTenant(*service.registry().find(0)),
              0u);
    service.pump();

    std::uint64_t rebuildMarked = 0;
    for (serve::Completion& done : service.drain()) {
        EXPECT_FALSE(done.ok);
        if (done.tenantRebuilt && rebuildMarked++ == 0) {
            client.onTenantRebuilt();
        }
    }
    EXPECT_GE(rebuildMarked, 1u);
    EXPECT_GE(service.pool().rebuilds(), 1u);

    // The rebuilt depth-3 tenant answers verified again: the fresh inner
    // re-associated under the same gateway, still below the CVM root.
    ASSERT_EQ(service.registry()
                  .dispatchChain(*service.registry().find(0))
                  .size(),
              3u);
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(service.submit(0, client.nextRequest()).isOk());
    }
    service.pump();
    std::uint64_t verifiedAfter = 0;
    for (serve::Completion& done : service.drain()) {
        EXPECT_TRUE(client.onResponse(done.sealedResponse));
        ++verifiedAfter;
    }
    EXPECT_EQ(verifiedAfter, 4u);
    EXPECT_EQ(client.failures(), 0u);
}

TEST(ServeCvm, RebuildsPoisonedTenantFlushedTlb)
{
    cvmRebuildsPoisonedTenant(false);
}

TEST(ServeCvm, RebuildsPoisonedTenantTaggedTlb)
{
    cvmRebuildsPoisonedTenant(true);
}

TEST(ServeCvm, SubtreeEvictAndRebuildRoundTrip)
{
    // The registry's whole-subtree operations: page a gateway's subtree
    // out and serve through the transparent chain reload, then rebuild
    // the subtree bottom-up and verify the fleet recovers.
    World world;
    serve::TenantService service(*world.urts, cvmServiceConfig());
    ASSERT_TRUE(service.addTenant(0, Workload::Echo).isOk());
    ASSERT_TRUE(service.addTenant(1, Workload::Echo).isOk());
    serve::TenantClient c0(0, Workload::Echo), c1(1, Workload::Echo);

    auto serveRound = [&](serve::TenantClient& client, TenantId id) {
        ASSERT_TRUE(service.submit(id, client.nextRequest()).isOk());
        service.pump();
        auto done = service.drain();
        ASSERT_EQ(done.size(), 1u);
        ASSERT_TRUE(done[0].ok) << done[0].status.name();
        ASSERT_TRUE(client.onResponse(done[0].sealedResponse));
    };
    serveRound(c0, 0);
    serveRound(c1, 1);

    // Both tenants share gateway 0 (tenantsPerOuter = 3).
    ASSERT_EQ(service.registry().find(0)->gatewayIndex, 0u);
    ASSERT_EQ(service.registry().find(1)->gatewayIndex, 0u);
    EXPECT_GT(service.registry().evictSubtree(0), 0u);

    // Dispatch reloads the evicted chain transparently.
    serveRound(c0, 0);
    serveRound(c1, 1);
    EXPECT_GE(service.registry().find(0)->reloads, 1u);

    // The recovery of last resort: rebuild the whole gateway subtree.
    // Every tenant in it loses its in-enclave state, so the clients
    // reset and reseal.
    ASSERT_TRUE(service.registry().rebuildGatewaySubtree(0).isOk());
    c0.onTenantRebuilt();
    c1.onTenantRebuilt();
    serveRound(c0, 0);
    serveRound(c1, 1);
    EXPECT_EQ(c0.failures(), 0u);
    EXPECT_EQ(c1.failures(), 0u);
}

}  // namespace
}  // namespace nesgx::test
