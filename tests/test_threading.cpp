/**
 * Real-thread parallelism tests: serial runs stay byte-identical
 * (determinism golden), a 4-thread drain under EPC pressure verifies
 * every response, four workers publishing to an attached sink deliver
 * every event exactly once with per-core time order intact, parallel
 * workers drive armed switchless rings down a CVM tree end to end, and
 * the eviction victim lookup runs alongside another tenant's rebuild.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "serve/client.h"
#include "serve/service.h"
#include "trace/sink.h"

namespace nesgx::test {
namespace {

using serve::TenantId;
using serve::Workload;

/** Retains every event field-by-field (text copied: it is borrowed). */
struct RecordingSink : trace::TraceSink {
    struct Rec {
        trace::EventKind kind;
        trace::Leaf leaf;
        std::uint16_t code;
        hw::CoreId core;
        std::uint64_t eid;
        std::uint64_t time;
        std::uint64_t arg0;
        std::uint64_t arg1;
        std::string text;

        bool operator==(const Rec& o) const
        {
            return kind == o.kind && leaf == o.leaf && code == o.code &&
                   core == o.core && eid == o.eid && time == o.time &&
                   arg0 == o.arg0 && arg1 == o.arg1 && text == o.text;
        }
    };
    std::vector<Rec> events;

    void onEvent(const trace::TraceEvent& event) override
    {
        events.push_back({event.kind, event.leaf, event.code, event.core,
                          event.eid, event.time, event.arg0, event.arg1,
                          event.text ? std::string(event.text) : std::string()});
    }
};

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
    return sc;
}

/** One full serial serve run; returns the recorded trace stream. */
std::vector<RecordingSink::Rec>
serialRun()
{
    World world;
    RecordingSink sink;
    world.machine.trace().subscribe(&sink);

    auto sc = smallServiceConfig();
    serve::TenantService service(*world.urts, sc);
    const std::vector<Workload> mix = {Workload::Echo, Workload::Sql,
                                       Workload::Svm};
    std::vector<std::unique_ptr<serve::TenantClient>> clients;
    for (TenantId t = 0; t < 6; ++t) {
        auto workload = mix[t % mix.size()];
        EXPECT_TRUE(service.addTenant(t, workload).isOk()) << t;
        clients.push_back(
            std::make_unique<serve::TenantClient>(t, workload));
    }
    for (int i = 0; i < 4; ++i) {
        for (TenantId t = 0; t < 6; ++t) {
            EXPECT_TRUE(
                service.submit(t, clients[t]->nextRequest()).isOk());
        }
    }
    service.pump();
    std::uint64_t verified = 0;
    for (serve::Completion& done : service.drain()) {
        if (done.ok && clients[done.tenant]->onResponse(done.sealedResponse)) {
            ++verified;
        }
    }
    EXPECT_EQ(verified, 24u);

    world.machine.trace().unsubscribe(&sink);
    return std::move(sink.events);
}

TEST(ThreadingDeterminism, SerialRunsAreByteIdentical)
{
    // The `--threads 1` contract: with no parallel mode armed, two
    // identical runs publish the exact same event stream — kind, core,
    // cycle stamp, args and text all equal, in the same order. This is
    // what keeps the golden traces of test_trace valid after the
    // sharded-machine refactor.
    const auto first = serialRun();
    const auto second = serialRun();

    ASSERT_FALSE(first.empty());
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        ASSERT_TRUE(first[i] == second[i]) << "event " << i << " diverged";
    }
}

TEST(ThreadingStress, FourThreadDrainVerifiesEveryResponseUnderPressure)
{
    // 24 tenants on an EPC that cannot hold them all, drained by 4 real
    // OS worker threads: evictions, reloads and concurrent dispatch must
    // still produce 480/480 client-verified sealed responses.
    auto config = World::smallConfig();
    config.dramBytes = 256ull << 20;
    config.prmBase = 128ull << 20;
    config.prmBytes = (1024 + 64) * hw::kPageSize;
    World world(config);

    auto sc = smallServiceConfig();
    sc.admission.maxQueueDepth = 20;
    serve::TenantService service(*world.urts, sc);
    const std::vector<Workload> mix = {Workload::Echo, Workload::Sql,
                                       Workload::Svm};
    std::vector<std::unique_ptr<serve::TenantClient>> clients;
    for (TenantId t = 0; t < 24; ++t) {
        auto workload = mix[t % mix.size()];
        ASSERT_TRUE(service.addTenant(t, workload).isOk()) << t;
        clients.push_back(
            std::make_unique<serve::TenantClient>(t, workload));
    }
    for (int i = 0; i < 20; ++i) {
        for (TenantId t = 0; t < 24; ++t) {
            ASSERT_TRUE(
                service.submit(t, clients[t]->nextRequest()).isOk());
        }
    }

    service.pumpParallel(4);

    std::uint64_t verified = 0;
    for (serve::Completion& done : service.drain()) {
        ASSERT_TRUE(done.ok) << done.status.name();
        if (clients[done.tenant]->onResponse(done.sealedResponse)) {
            ++verified;
        }
    }
    EXPECT_EQ(verified, 480u);
    for (auto& client : clients) {
        EXPECT_EQ(client->failures(), 0u);
    }
}

TEST(ThreadingTrace, FourWorkersDeliverEveryEventOnceToAttachedSink)
{
    // Four worker threads publish into one attached sink. The bus calls
    // sinks inline under its own lock, so the sink needs no lock of its
    // own and every event arrives exactly once: the successful EENTER
    // and NEENTER exits the sink saw equal the counters' deltas over the
    // same window.
    World world;
    auto sc = smallServiceConfig();
    serve::TenantService service(*world.urts, sc);
    const std::vector<Workload> mix = {Workload::Echo, Workload::Sql,
                                       Workload::Svm};
    std::vector<std::unique_ptr<serve::TenantClient>> clients;
    for (TenantId t = 0; t < 12; ++t) {  // 4 gateways, one per worker
        auto workload = mix[t % mix.size()];
        ASSERT_TRUE(service.addTenant(t, workload).isOk()) << t;
        clients.push_back(
            std::make_unique<serve::TenantClient>(t, workload));
    }
    ASSERT_EQ(service.registry().gatewayCount(), 4u);
    for (int i = 0; i < 8; ++i) {
        for (TenantId t = 0; t < 12; ++t) {
            ASSERT_TRUE(
                service.submit(t, clients[t]->nextRequest()).isOk());
        }
    }

    // Attach only while no worker runs.
    const auto& counters = world.machine.trace().counters();
    const std::uint64_t eenterBase = counters.eenterCount;
    const std::uint64_t neenterBase = counters.neenterCount;
    RecordingSink sink;
    world.machine.trace().subscribe(&sink);
    service.pumpParallel(4);
    world.machine.trace().unsubscribe(&sink);

    std::uint64_t verified = 0;
    for (serve::Completion& done : service.drain()) {
        if (done.ok && clients[done.tenant]->onResponse(done.sealedResponse)) {
            ++verified;
        }
    }
    EXPECT_EQ(verified, 96u);

    std::uint64_t eenters = 0;
    std::uint64_t neenters = 0;
    for (const auto& rec : sink.events) {
        if (rec.kind != trace::EventKind::LeafExit || rec.code != 0) continue;
        if (rec.leaf == trace::Leaf::Eenter) ++eenters;
        if (rec.leaf == trace::Leaf::Neenter) ++neenters;
    }
    EXPECT_GT(eenters, 0u);
    EXPECT_EQ(eenters, counters.eenterCount - eenterBase);
    EXPECT_EQ(neenters, counters.neenterCount - neenterBase);

    // Delivery is time-coherent per core: one worker thread owns one
    // simulated core, so that core's events arrive in program order and
    // its cycle stamps never run backwards. (kNoCore events — ENCLS
    // published as "the OS" — can come from any thread and are skipped.)
    std::vector<std::uint64_t> lastTime(world.machine.coreCount(), 0);
    for (std::size_t i = 0; i < sink.events.size(); ++i) {
        const auto& rec = sink.events[i];
        if (rec.core == trace::kNoCore) continue;
        ASSERT_LT(rec.core, lastTime.size());
        EXPECT_GE(rec.time, lastTime[rec.core]) << "event " << i;
        lastTime[rec.core] = rec.time;
    }
}

TEST(ThreadingSwitchless, ParallelWorkersDriveArmedCvmRings)
{
    // A CVM -> gateway -> tenant tree with every hop's rings armed,
    // drained by 4 real worker threads through the switchless engine:
    // every sealed response must verify, and every batch must ride the
    // rings with zero enclave transitions.
    constexpr std::size_t kTenants = 12;  // 4 gateways, one per worker
    auto config = World::smallConfig();
    // 4 host workers + one poller per tenant, per gateway and the root.
    config.coreCount = 4 + kTenants + 4 + 1 + 1;
    World world(config);

    auto sc = smallServiceConfig();
    sc.registry.topology = serve::Topology::Cvm;
    sc.registry.cvmCodePages = 8;
    sc.registry.cvmHeapPages = 96;
    sc.registry.cvmTcs = 24;
    sc.switchless.enabled = true;
    sc.switchless.hostCores = 4;
    serve::TenantService service(*world.urts, sc);
    const std::vector<Workload> mix = {Workload::Echo, Workload::Sql,
                                       Workload::Svm};
    std::vector<std::unique_ptr<serve::TenantClient>> clients;
    for (TenantId t = 0; t < kTenants; ++t) {
        auto workload = mix[t % mix.size()];
        ASSERT_TRUE(service.addTenant(t, workload).isOk()) << t;
        clients.push_back(
            std::make_unique<serve::TenantClient>(t, workload));
    }
    ASSERT_EQ(service.armSwitchless(), kTenants);
    const auto& counters = world.machine.trace().counters();
    const std::uint64_t transitionsBase =
        counters.eenterCount + counters.neenterCount;

    for (int i = 0; i < 8; ++i) {
        for (TenantId t = 0; t < kTenants; ++t) {
            ASSERT_TRUE(
                service.submit(t, clients[t]->nextRequest()).isOk());
        }
    }
    service.pumpParallel(4);

    std::uint64_t verified = 0;
    for (serve::Completion& done : service.drain()) {
        ASSERT_TRUE(done.ok) << done.status.name();
        if (clients[done.tenant]->onResponse(done.sealedResponse)) {
            ++verified;
        }
    }
    EXPECT_EQ(verified, 8 * kTenants);
    for (auto& client : clients) {
        EXPECT_EQ(client->failures(), 0u);
    }
    // Batches of 4: two ring calls per tenant, none of them classic.
    ASSERT_NE(service.switchlessEngine(), nullptr);
    EXPECT_EQ(service.switchlessEngine()->engineStats().calls.load(),
              2 * kTenants);
    EXPECT_EQ(counters.eenterCount + counters.neenterCount, transitionsBase);
}

TEST(ThreadingRegistry, VictimLookupRunsAlongsideAnotherTenantsRebuild)
{
    // The EPC pressure manager on one worker resolves victim SECS pages
    // to tenants while another worker rebuilds its own tenant, replacing
    // and unloading that tenant's inner under only that tenant's lock.
    // The lookup must read what the owner publishes, never the inner it
    // is swapping out (ThreadSanitizer referees this).
    World world;
    serve::TenantService service(*world.urts, smallServiceConfig());
    ASSERT_TRUE(service.addTenant(0, Workload::Echo).isOk());
    ASSERT_TRUE(service.addTenant(1, Workload::Echo).isOk());
    serve::TenantHandle* rebuilt = service.registry().find(0);
    serve::TenantHandle* looked = service.registry().find(1);
    const hw::Paddr lookedSecs = looked->inner->secsPage();

    std::atomic<bool> done{false};
    std::uint64_t lookups = 0;
    std::uint64_t mismatches = 0;
    std::thread lookup([&] {
        // The map visits tenant 0 before tenant 1, so every lookup reads
        // the tenant under rebuild.
        do {
            if (service.registry().tenantBySecs(lookedSecs) != looked) {
                ++mismatches;
            }
            ++lookups;
        } while (!done.load());
    });
    for (int i = 0; i < 20; ++i) {
        EXPECT_TRUE(service.pool().rebuildTenant(*rebuilt).isOk()) << i;
    }
    done.store(true);
    lookup.join();

    EXPECT_GT(lookups, 0u);
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(service.registry().tenantBySecs(rebuilt->inner->secsPage()),
              rebuilt);
    EXPECT_EQ(service.registry().tenantBySecs(lookedSecs), looked);
}

}  // namespace
}  // namespace nesgx::test
