/**
 * Switchless (exit-less) call layer tests: DescRing wraparound,
 * backpressure and header-bound semantics, poller idle fallback with
 * re-arm, end-to-end equivalence with classic dispatch (zero transitions
 * post-arming), the typed Err::Deadline completions for shed batches,
 * the registry's dispatch gate in front of armed rings, and every
 * teardown the engine runs under its own lock — all in both TLB-tag
 * modes.
 */
#include <gtest/gtest.h>

#include "fault/injector.h"
#include "harness.h"
#include "serve/client.h"
#include "serve/service.h"
#include "switchless/engine.h"
#include "switchless/ring.h"
#include "support/bytes.h"
#include "trace/chrome_sink.h"

namespace nesgx::test {
namespace {

using serve::TenantId;
using serve::Workload;

class SwitchlessTest : public ::testing::TestWithParam<bool> {
  protected:
    static sgx::Machine::Config machineConfig(std::uint32_t cores)
    {
        auto config = World::smallConfig();
        config.coreCount = cores;
        config.taggedTlb = GetParam();
        return config;
    }

    static serve::TenantService::Config serviceConfig()
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
};

/** A switchless fleet over either topology, rings armed on demand. */
serve::TenantService::Config
armedServiceConfig(serve::Topology topology)
{
    serve::TenantService::Config sc;
    sc.registry.tenantsPerOuter = 2;
    sc.registry.outerCodePages = 12;
    sc.registry.outerHeapPages = 24;
    sc.registry.innerCodePages = 4;
    sc.registry.innerHeapPages = 8;
    sc.pool.batchSize = 4;
    sc.switchless.enabled = true;
    sc.switchless.hostCores = 2;
    if (topology == serve::Topology::Cvm) {
        sc.registry.topology = serve::Topology::Cvm;
        sc.registry.cvmCodePages = 8;
        sc.registry.cvmHeapPages = 40;
        sc.registry.cvmTcs = 10;
    }
    return sc;
}

TEST_P(SwitchlessTest, RingWrapsAroundWithMonotonicSequences)
{
    World world(machineConfig(4));
    const hw::Vaddr base = world.kernel.mapUntrusted(world.pid, 1);
    switchless::DescRing ring;
    ASSERT_TRUE(ring.init(world.machine, 0, base, 4).isOk());

    // Three full push/pop laps of a capacity-4 ring: 12 descriptors
    // through 4 slots. Sequence numbers must stay strictly monotonic
    // across every wraparound and FIFO order must hold exactly.
    std::uint64_t expectSeq = 0;
    for (std::uint64_t lap = 0; lap < 3; ++lap) {
        for (std::uint64_t i = 0; i < 4; ++i) {
            ASSERT_TRUE(ring.tryPush(world.machine, 0, 64 + lap * 4 + i)
                            .isOk());
        }
        for (std::uint64_t i = 0; i < 4; ++i) {
            auto popped = ring.tryPop(world.machine, 1);
            ASSERT_TRUE(popped.isOk());
            EXPECT_EQ(popped.value().len, 64 + lap * 4 + i);
            EXPECT_EQ(popped.value().seq, expectSeq);
            ++expectSeq;
        }
    }
    EXPECT_EQ(ring.tryPop(world.machine, 1).code(), Err::NotFound);

    const auto& counters = world.machine.trace().counters();
    EXPECT_EQ(counters.switchlessPosts, 12u);
    EXPECT_EQ(counters.switchlessDrains, 12u);
    EXPECT_EQ(counters.switchlessFallbacks, 0u);
}

TEST_P(SwitchlessTest, FullRingRefusesWithBackpressureNotStall)
{
    World world(machineConfig(4));
    const hw::Vaddr base = world.kernel.mapUntrusted(world.pid, 1);
    switchless::DescRing ring;
    ASSERT_TRUE(ring.init(world.machine, 0, base, 4).isOk());

    for (std::uint64_t i = 0; i < 4; ++i) {
        ASSERT_TRUE(ring.tryPush(world.machine, 0, i + 1).isOk());
    }
    // The 5th push must refuse typed — not stall, not overwrite.
    EXPECT_EQ(ring.tryPush(world.machine, 0, 99).code(), Err::Backpressure);
    // A refused push publishes nothing.
    EXPECT_EQ(world.machine.trace().counters().switchlessPosts, 4u);

    // The ring's contents survived the refusal intact and in order.
    for (std::uint64_t i = 0; i < 4; ++i) {
        auto popped = ring.tryPop(world.machine, 1);
        ASSERT_TRUE(popped.isOk());
        EXPECT_EQ(popped.value().len, i + 1);
    }
    // One slot freed: the producer can proceed immediately.
    EXPECT_TRUE(ring.tryPush(world.machine, 0, 100).isOk());
    auto popped = ring.tryPop(world.machine, 1);
    ASSERT_TRUE(popped.isOk());
    EXPECT_EQ(popped.value().len, 100u);
}

TEST_P(SwitchlessTest, PopRefusesHeaderClaimingMoreThanCapacity)
{
    World world(machineConfig(4));
    const hw::Vaddr base = world.kernel.mapUntrusted(world.pid, 1);
    switchless::DescRing ring;
    ASSERT_TRUE(ring.init(world.machine, 0, base, 4).isOk());
    for (std::uint64_t i = 0; i < 2; ++i) {
        ASSERT_TRUE(ring.tryPush(world.machine, 0, i + 1).isOk());
    }

    // The host owns a host-memory ring's header and lies about its
    // count: tail = 7 claims seven entries in a four-slot ring. The pop
    // refuses before reading any slot, publishes one typed refusal
    // naming the ring and the claimed count but no drain, and leaves
    // head where it was.
    std::uint8_t lie[8];
    storeLe64(lie, 7);
    ASSERT_TRUE(world.machine.write(0, base + 8, lie, sizeof lie).isOk());
    trace::ChromeTraceSink sink;
    world.machine.trace().subscribe(&sink);
    EXPECT_EQ(ring.tryPop(world.machine, 1).code(), Err::BadCallBuffer);
    world.machine.trace().unsubscribe(&sink);
    const auto& counters = world.machine.trace().counters();
    EXPECT_EQ(counters.switchlessRefusals, 1u);
    EXPECT_EQ(counters.switchlessDrains, 0u);
    const std::string json = sink.json();
    const std::string refuse =
        "\"name\": \"SwitchlessRefuse\", \"ph\": \"i\"";
    ASSERT_NE(json.find(refuse), std::string::npos) << json;
    EXPECT_EQ(json.find(refuse, json.find(refuse) + 1), std::string::npos);
    EXPECT_NE(json.find("\"args\": {\"ring\": " + std::to_string(base) +
                        ", \"claimed\": 7}"),
              std::string::npos)
        << json;
    std::uint8_t head[8];
    ASSERT_TRUE(world.machine.read(0, base, head, sizeof head).isOk());
    EXPECT_EQ(loadLe64(head), 0u);
}

TEST_P(SwitchlessTest, AbandonPublishesOneFallbackForOutstandingEntries)
{
    World world(machineConfig(4));
    const hw::Vaddr base = world.kernel.mapUntrusted(world.pid, 1);
    switchless::DescRing ring;
    ASSERT_TRUE(ring.init(world.machine, 0, base, 4).isOk());

    for (std::uint64_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(ring.tryPush(world.machine, 0, i + 1).isOk());
    }
    auto dropped = ring.abandon(world.machine, 0);
    ASSERT_TRUE(dropped.isOk());
    EXPECT_EQ(dropped.value(), 3u);
    EXPECT_EQ(world.machine.trace().counters().switchlessFallbacks, 1u);
    EXPECT_EQ(ring.tryPop(world.machine, 0).code(), Err::NotFound);

    // An empty abandon is silent — no fallback noise.
    auto empty = ring.abandon(world.machine, 0);
    ASSERT_TRUE(empty.isOk());
    EXPECT_EQ(empty.value(), 0u);
    EXPECT_EQ(world.machine.trace().counters().switchlessFallbacks, 1u);
}

TEST_P(SwitchlessTest, ServesExitlesslyAfterArmingAndMatchesClassic)
{
    // Classic reference run: same tenant, same request stream.
    std::vector<std::uint64_t> classicLens;
    {
        World world(machineConfig(4));
        serve::TenantService service(*world.urts, serviceConfig());
        ASSERT_TRUE(service.addTenant(0, Workload::Echo).isOk());
        serve::TenantClient client(0, Workload::Echo);
        for (int i = 0; i < 8; ++i) {
            ASSERT_TRUE(service.submit(0, client.nextRequest()).isOk());
        }
        service.pump();
        for (serve::Completion& done : service.drain()) {
            ASSERT_TRUE(done.ok);
            ASSERT_TRUE(client.onResponse(done.sealedResponse));
            classicLens.push_back(done.sealedResponse.size());
        }
        ASSERT_EQ(classicLens.size(), 8u);
        EXPECT_EQ(client.failures(), 0u);
    }

    // Switchless run: pollers park up front; after the snapshot the
    // whole request path must be transition-free, and the sealed
    // responses must verify exactly like the classic ones.
    World world(machineConfig(8));
    auto sc = serviceConfig();
    sc.switchless.enabled = true;
    sc.switchless.hostCores = 2;
    serve::TenantService service(*world.urts, sc);
    ASSERT_TRUE(service.addTenant(0, Workload::Echo).isOk());
    EXPECT_EQ(service.armSwitchless(), 1u);

    const auto& counters = world.machine.trace().counters();
    const std::uint64_t transitionsBase =
        counters.eenterCount + counters.neenterCount;

    serve::TenantClient client(0, Workload::Echo);
    std::vector<std::uint64_t> switchlessLens;
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(service.submit(0, client.nextRequest()).isOk());
    }
    service.pump();
    for (serve::Completion& done : service.drain()) {
        ASSERT_TRUE(done.ok) << done.status.name();
        ASSERT_TRUE(client.onResponse(done.sealedResponse));
        switchlessLens.push_back(done.sealedResponse.size());
    }
    ASSERT_EQ(switchlessLens.size(), 8u);
    EXPECT_EQ(client.failures(), 0u);
    EXPECT_EQ(switchlessLens, classicLens);

    EXPECT_EQ(counters.eenterCount + counters.neenterCount, transitionsBase)
        << "the exit-less path leaked enclave transitions";
    EXPECT_GT(counters.switchlessPosts, 0u);
    EXPECT_EQ(counters.switchlessPosts, counters.switchlessDrains);
    ASSERT_NE(service.switchlessEngine(), nullptr);
    EXPECT_EQ(service.switchlessEngine()->engineStats().calls, 2u);
}

TEST_P(SwitchlessTest, IdlePollerFallsBackThenRearmsOnNextCall)
{
    // Every hop of the chain idles together, so each one falls back and
    // re-parks once: two hops on a flat chain, three on a CVM one.
    for (serve::Topology topology :
         {serve::Topology::Flat, serve::Topology::Cvm}) {
        SCOPED_TRACE(topology == serve::Topology::Cvm ? "cvm" : "flat");
        World world(machineConfig(8));
        auto sc = armedServiceConfig(topology);
        sc.switchless.idleParkCycles = 20000;  // tiny, so the test can idle past it
        serve::TenantService service(*world.urts, sc);
        ASSERT_TRUE(service.addTenant(0, Workload::Echo).isOk());
        ASSERT_EQ(service.armSwitchless(), 1u);

        serve::TenantClient client(0, Workload::Echo);
        auto serveOne = [&]() {
            ASSERT_TRUE(service.submit(0, client.nextRequest()).isOk());
            service.pump();
            auto done = service.drain();
            ASSERT_EQ(done.size(), 1u);
            ASSERT_TRUE(done[0].ok) << done[0].status.name();
            ASSERT_TRUE(client.onResponse(done[0].sealedResponse));
        };

        serveOne();
        const auto* engine = service.switchlessEngine();
        ASSERT_NE(engine, nullptr);
        EXPECT_EQ(engine->engineStats().idleFallbacks, 0u);

        // Idle long past the park budget: the next call must detect the
        // gap, fall back (abandon + unpark), re-arm, and still serve.
        world.machine.charge(sc.switchless.idleParkCycles * 3);
        serveOne();
        // (No SwitchlessFallback event here: the rings were fully
        // drained, so the abandon had nothing outstanding to hand back —
        // the idle episode shows up in the engine stats, not the trace.)
        EXPECT_EQ(engine->engineStats().idleFallbacks,
                  topology == serve::Topology::Cvm ? 3u : 2u);

        // The re-armed channel keeps serving exit-lessly afterwards.
        const auto& counters = world.machine.trace().counters();
        const std::uint64_t transitionsBase =
            counters.eenterCount + counters.neenterCount;
        serveOne();
        EXPECT_EQ(counters.eenterCount + counters.neenterCount,
                  transitionsBase);
        EXPECT_EQ(client.failures(), 0u);
    }
}

TEST_P(SwitchlessTest, ExpiredBatchCompletesTypedDeadlineNeverSilent)
{
    World world(machineConfig(4));
    auto sc = serviceConfig();
    sc.admission.deadlineCycles = 5000;
    serve::TenantService service(*world.urts, sc);
    ASSERT_TRUE(service.addTenant(0, Workload::Echo).isOk());
    serve::TenantClient client(0, Workload::Echo);

    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(service.submit(0, client.nextRequest()).isOk());
    }
    // Outlive the deadline before the pool ever runs: the whole batch
    // expires, and the pump must convert every entry into a typed
    // Err::Deadline completion instead of returning silently.
    world.machine.charge(10000);
    service.pump();
    auto done = service.drain();
    ASSERT_EQ(done.size(), 4u);
    for (const serve::Completion& c : done) {
        EXPECT_FALSE(c.ok);
        EXPECT_EQ(c.status.code(), Err::Deadline);
        EXPECT_TRUE(c.sealedResponse.empty());
    }
    EXPECT_EQ(service.admission().shed(), 4u);
    EXPECT_EQ(world.machine.trace().counters().serveSheds, 4u);
}

/** The endpoint the pool's batches for `id` ride: the tenant's full
 *  dispatch chain, served by the leaf's serve_batch n-ecall. */
switchless::Endpoint
endpointOf(serve::TenantService& service, TenantId id)
{
    const serve::TenantHandle& tenant = *service.registry().find(id);
    switchless::Endpoint ep;
    ep.chain = service.registry().dispatchChain(tenant);
    ep.innerCall = "serve_batch";
    ep.slot = tenant.slot;
    return ep;
}

/**
 * Two echo tenants sharing gateway 0 of a flat switchless fleet, no
 * channel armed yet. The teardown tests below drive the engine into the
 * disarms it runs while already holding its own (non-recursive) lock:
 * any of them re-taking the lock would deadlock here.
 */
struct TeardownFleet {
    explicit TeardownFleet(const sgx::Machine::Config& config)
        : world(config),
          service(*world.urts, armedServiceConfig(serve::Topology::Flat))
    {
        for (TenantId t = 0; t < 2; ++t) {
            EXPECT_TRUE(service.addTenant(t, Workload::Echo).isOk()) << t;
            clients.push_back(
                std::make_unique<serve::TenantClient>(t, Workload::Echo));
        }
    }

    switchless::SwitchlessEngine& engine()
    {
        return *service.switchlessEngine();
    }

    /** One request for `id` through the pool; true when it verifies. */
    bool serveOne(TenantId id)
    {
        if (!service.submit(id, clients[id]->nextRequest())) return false;
        service.pump();
        auto done = service.drain();
        return done.size() == 1 && done[0].ok &&
               clients[id]->onResponse(done[0].sealedResponse);
    }

    World world;
    serve::TenantService service;
    std::vector<std::unique_ptr<serve::TenantClient>> clients;
};

TEST_P(SwitchlessTest, ReadyOverChangedChainRearmsUnderEngineLock)
{
    // A rebuilt enclave comes back as a different LoadedEnclave, so
    // ready() over a changed chain tears the old channel down and arms
    // the new one, all inside the engine lock.
    TeardownFleet fleet(machineConfig(8));
    auto& engine = fleet.engine();
    const switchless::Endpoint ep0 = endpointOf(fleet.service, 0);
    const switchless::Endpoint ep1 = endpointOf(fleet.service, 1);
    ASSERT_TRUE(engine.ready(0, ep0));
    const std::uint64_t armings = engine.engineStats().armings;

    // Key 0 over tenant 1's chain: both old hops lose their only rider
    // and disarm, and both new ones park.
    ASSERT_TRUE(engine.ready(0, ep1));
    EXPECT_EQ(engine.engineStats().armings, armings + 2);
    EXPECT_TRUE(engine.channelProgress(0).armed);

    // The pool's next batch finds key 0 on the wrong chain again, re-arms
    // it over tenant 0's own and verifies.
    EXPECT_TRUE(fleet.serveOne(0));
    EXPECT_EQ(engine.engineStats().armings, armings + 4);
    EXPECT_TRUE(fleet.serveOne(1));
}

TEST_P(SwitchlessTest, MidPumpFailureDisarmsUnderEngineLock)
{
    // A batch whose slot header names another channel fails at the first
    // relay hop, mid-pump: call() hard-fails typed and the channel comes
    // back disarmed.
    TeardownFleet fleet(machineConfig(8));
    auto& engine = fleet.engine();
    const switchless::Endpoint ep = endpointOf(fleet.service, 0);
    ASSERT_TRUE(engine.ready(0, ep));

    auto forged = engine.call(0, ep, serve::packBatch(ep.slot + 1, {}), 0);
    EXPECT_EQ(forged.code(), Err::BadCallBuffer);
    EXPECT_FALSE(engine.channelProgress(0).armed);
    EXPECT_EQ(engine.engineStats().calls, 0u);

    // ready() re-arms and the next batch verifies.
    EXPECT_TRUE(fleet.serveOne(0));
    EXPECT_TRUE(engine.channelProgress(0).armed);
    EXPECT_EQ(engine.engineStats().calls, 1u);
}

/** No core is left in enclave mode and no TCS stays claimed. */
void
expectMachineAtRest(sgx::Machine& machine)
{
    for (hw::CoreId c = 0; c < machine.coreCount(); ++c) {
        EXPECT_FALSE(machine.core(c).inEnclaveMode()) << "core " << c;
    }
    for (const auto& [pa, tcs] : machine.tcsTable()) {
        EXPECT_FALSE(tcs.busy) << "tcs " << pa;
    }
}

TEST_P(SwitchlessTest, BatchCountBeyondTheBlobRefusedOnClassicAndRingPaths)
{
    // The host writes a batch's 32-bit message count. Eight bytes that
    // claim 0xFFFFFFFF messages for the tenant's own slot must fail typed
    // before anything is allocated for them: the gateway's gw_dispatch
    // parses them on the classic path, the tenant's serve_batch behind an
    // armed ring. Either way every exit still runs. A response blob
    // ([count][len, bytes]...) that lies the same way is refused too.
    auto lieFor = [](const serve::TenantHandle& tenant) {
        Bytes lie(8);
        storeLe32(lie.data(), tenant.slot);
        storeLe32(lie.data() + 4, 0xFFFFFFFFu);
        return lie;
    };
    Bytes lyingResponses(8);
    storeLe32(lyingResponses.data(), 0xFFFFFFFFu);
    EXPECT_EQ(serve::parseResponses(lyingResponses).code(),
              Err::BadCallBuffer);
    {
        // Classic: a fleet without rings, so dispatch enters gw_dispatch.
        World world(machineConfig(4));
        serve::TenantService classic(*world.urts, serviceConfig());
        ASSERT_TRUE(classic.addTenant(0, Workload::Echo).isOk());
        serve::TenantHandle& tenant = *classic.registry().find(0);
        const Bytes lie = lieFor(tenant);
        EXPECT_EQ(serve::parseBatch(lie).code(), Err::BadCallBuffer);
        EXPECT_EQ(classic.registry().dispatch(tenant, lie, 0).code(),
                  Err::BadCallBuffer);
        expectMachineAtRest(world.machine);
    }

    // Ring: dispatch arms the tenant's ring and the lie is posted down
    // both hops to the tenant's serve_batch; the failed call disarms it.
    TeardownFleet fleet(machineConfig(8));
    sgx::Machine& machine = fleet.world.machine;
    serve::TenantHandle& tenant = *fleet.service.registry().find(0);
    const Bytes lie = lieFor(tenant);
    auto& engine = fleet.engine();
    EXPECT_EQ(fleet.service.registry().dispatch(tenant, lie, 0).code(),
              Err::BadCallBuffer);
    EXPECT_EQ(machine.trace().counters().switchlessPosts, 2u);
    EXPECT_FALSE(engine.channelProgress(0).armed);
    expectMachineAtRest(machine);

    // The refused batch cost the tenant nothing: the next one verifies.
    EXPECT_TRUE(fleet.serveOne(0));
}

TEST_P(SwitchlessTest, RingStallDisarmsUnderEngineLockAndPoolRetries)
{
    // ring-stall posts the descriptor but never drains it: call()
    // refuses Unavailable and disarms, abandoning the orphan with one
    // SwitchlessFallback — never a silent drop.
    TeardownFleet fleet(machineConfig(8));
    sgx::Machine& machine = fleet.world.machine;
    auto& engine = fleet.engine();
    const auto& counters = machine.trace().counters();
    const switchless::Endpoint ep = endpointOf(fleet.service, 0);
    ASSERT_TRUE(engine.ready(0, ep));
    const auto plan = fault::FaultPlan::parse("ring-stall@n=1").orThrow("plan");

    const std::uint64_t fallbacks = counters.switchlessFallbacks;
    {
        fault::FaultInjector injector(plan, 7);
        machine.setFaultInjector(&injector);
        auto stalled = engine.call(0, ep, serve::packBatch(ep.slot, {}), 0);
        machine.setFaultInjector(nullptr);
        EXPECT_EQ(stalled.code(), Err::Unavailable);
    }
    EXPECT_EQ(engine.engineStats().ringStalls, 1u);
    EXPECT_EQ(counters.switchlessFallbacks, fallbacks + 1);
    EXPECT_FALSE(engine.channelProgress(0).armed);
    EXPECT_TRUE(fleet.serveOne(0));  // ready() re-arms

    // Through the pool: the stalled attempt fails typed, and the pool's
    // retry re-arms and still verifies the batch.
    const std::uint64_t retries = fleet.service.pool().retries();
    {
        fault::FaultInjector injector(plan, 7);
        machine.setFaultInjector(&injector);
        EXPECT_TRUE(fleet.serveOne(0));
        machine.setFaultInjector(nullptr);
    }
    EXPECT_EQ(engine.engineStats().ringStalls, 2u);
    EXPECT_EQ(counters.switchlessFallbacks, fallbacks + 2);
    EXPECT_EQ(fleet.service.pool().retries(), retries + 1);
    EXPECT_TRUE(engine.channelProgress(0).armed);
    EXPECT_TRUE(fleet.serveOne(0));
}

TEST_P(SwitchlessTest, RingStallOnSharedHopLeavesNoEntryBehind)
{
    // Both tenants ride gateway 0's root hop. A ring stall on tenant 0's
    // call abandons the orphan on that shared hop as well, so tenant 1
    // stays armed and its next request drains exactly its own four
    // descriptors: root and leaf, down and back up.
    TeardownFleet fleet(machineConfig(8));
    sgx::Machine& machine = fleet.world.machine;
    auto& engine = fleet.engine();
    const auto& counters = machine.trace().counters();
    const switchless::Endpoint ep0 = endpointOf(fleet.service, 0);
    const switchless::Endpoint ep1 = endpointOf(fleet.service, 1);
    ASSERT_EQ(ep0.chain.front(), ep1.chain.front());
    ASSERT_TRUE(engine.ready(0, ep0));
    ASSERT_TRUE(engine.ready(1, ep1));

    const std::uint64_t fallbacks = counters.switchlessFallbacks;
    {
        const auto plan =
            fault::FaultPlan::parse("ring-stall@n=1").orThrow("plan");
        fault::FaultInjector injector(plan, 7);
        machine.setFaultInjector(&injector);
        auto stalled = engine.call(0, ep0, serve::packBatch(ep0.slot, {}), 0);
        machine.setFaultInjector(nullptr);
        EXPECT_EQ(stalled.code(), Err::Unavailable);
    }
    EXPECT_EQ(counters.switchlessFallbacks, fallbacks + 1);
    EXPECT_FALSE(engine.channelProgress(0).armed);
    EXPECT_TRUE(engine.channelProgress(1).armed);

    const std::uint64_t drains = counters.switchlessDrains;
    EXPECT_TRUE(fleet.serveOne(1));
    EXPECT_EQ(counters.switchlessDrains, drains + 4);
}

TEST_P(SwitchlessTest, RefusedIdleReparkDisarmsDeadHopUnderEngineLock)
{
    // Both hops idle past their budget and fall back; the leaf's re-park
    // NEENTER is refused, so call() finds a hop that is not parked,
    // disarms and refuses Unavailable. The pool's retry arms afresh.
    TeardownFleet fleet(machineConfig(8));
    sgx::Machine& machine = fleet.world.machine;
    auto& engine = fleet.engine();
    ASSERT_TRUE(fleet.serveOne(0));
    const std::uint64_t calls = engine.engineStats().calls;
    const std::uint64_t retries = fleet.service.pool().retries();

    machine.charge(engine.config().idleParkCycles * 3);
    {
        const auto plan =
            fault::FaultPlan::parse("neenter-fail@n=1").orThrow("plan");
        fault::FaultInjector injector(plan, 7);
        machine.setFaultInjector(&injector);
        EXPECT_TRUE(fleet.serveOne(0));
        machine.setFaultInjector(nullptr);
        EXPECT_EQ(injector.injected(fault::FaultSite::NeenterFail), 1u);
    }
    EXPECT_EQ(engine.engineStats().idleFallbacks, 2u);
    EXPECT_EQ(fleet.service.pool().retries(), retries + 1);
    EXPECT_EQ(engine.engineStats().calls, calls + 1);  // the retry only
    EXPECT_TRUE(engine.channelProgress(0).armed);
    EXPECT_TRUE(fleet.serveOne(0));
}

TEST_P(SwitchlessTest, ArmedRingPassesTheDispatchGate)
{
    // The registry's dispatch gate covers batches that ride a ring: a
    // degraded host, a crashed gateway and an unverified tenant each
    // refuse the batch typed before anything is posted. Once each case
    // is cleared the tenant serves verified over its ring again.
    World world(machineConfig(8));
    serve::TenantService service(*world.urts,
                                 armedServiceConfig(serve::Topology::Flat));
    ASSERT_TRUE(service.addTenant(0, Workload::Echo).isOk());
    ASSERT_EQ(service.armSwitchless(), 1u);
    serve::TenantRegistry& registry = service.registry();
    serve::TenantHandle& tenant = *registry.find(0);
    const auto& counters = world.machine.trace().counters();
    const auto& calls = service.switchlessEngine()->engineStats().calls;
    serve::TenantClient client(0, Workload::Echo);

    auto serveOne = [&]() {
        EXPECT_TRUE(service.submit(0, client.nextRequest()).isOk());
        service.pump();
        auto done = service.drain();
        EXPECT_EQ(done.size(), 1u);
        return done.empty() ? serve::Completion{} : std::move(done[0]);
    };
    auto expectRefused = [&](Err want) {
        const std::uint64_t posts = counters.switchlessPosts;
        const serve::Completion done = serveOne();
        EXPECT_FALSE(done.ok);
        EXPECT_EQ(done.error(), want);
        EXPECT_EQ(counters.switchlessPosts, posts);
        client.onDropped();
    };
    auto expectServedOverRing = [&]() {
        const std::uint64_t before = calls;
        const serve::Completion done = serveOne();
        EXPECT_TRUE(done.ok) << done.status.name();
        EXPECT_TRUE(client.onResponse(done.sealedResponse));
        EXPECT_EQ(calls, before + 1);
    };
    expectServedOverRing();

    registry.setDegraded(true);
    expectRefused(Err::Unavailable);
    registry.setDegraded(false);
    expectServedOverRing();

    registry.crashGateway(tenant.gatewayIndex);
    expectRefused(Err::Unavailable);
    // Only a subtree rebuild clears the marker; the tenant comes back as
    // a fresh incarnation.
    ASSERT_TRUE(service.pool().rebuildSubtree(tenant.gatewayIndex).isOk());
    EXPECT_FALSE(registry.gatewayCrashed(tenant.gatewayIndex));
    client.onTenantRebuilt();
    expectServedOverRing();

    tenant.verified = false;
    expectRefused(Err::AttestationFailed);
    tenant.verified = true;
    expectServedOverRing();
    EXPECT_EQ(client.failures(), 0u);
}

/** The exact simulated figures of one armed-ring serve run. */
struct ArmedRunFigures {
    std::uint64_t eenter = 0;
    std::uint64_t eexit = 0;
    std::uint64_t neenter = 0;
    std::uint64_t neexit = 0;
    std::uint64_t posts = 0;
    std::uint64_t drains = 0;
    std::uint64_t polls = 0;
    std::uint64_t armings = 0;
    std::uint64_t cycles = 0;
};

/**
 * Four tenants on two gateways, rings armed up front, then three rounds
 * of three requests per tenant — every response verified. After the
 * first round some channels are torn down and re-arm on their next
 * call: tenant 0 in both fleets, which leaves gateway 0 a rider, and in
 * the CVM fleet also both tenants of gateway 1, whose hop then disarms
 * and re-arms below the still-ridden root.
 */
ArmedRunFigures
armedRun(bool taggedTlb, serve::Topology topology)
{
    auto config = World::smallConfig();
    config.coreCount = 12;
    config.taggedTlb = taggedTlb;
    World world(config);
    serve::TenantService service(*world.urts, armedServiceConfig(topology));
    const std::vector<Workload> mix = {Workload::Echo, Workload::Sql,
                                       Workload::Svm, Workload::Echo};
    std::vector<std::unique_ptr<serve::TenantClient>> clients;
    for (TenantId t = 0; t < mix.size(); ++t) {
        EXPECT_TRUE(service.addTenant(t, mix[t]).isOk()) << t;
        clients.push_back(std::make_unique<serve::TenantClient>(t, mix[t]));
    }
    EXPECT_EQ(service.armSwitchless(), mix.size());

    std::uint64_t verified = 0;
    for (int round = 0; round < 3; ++round) {
        for (TenantId t = 0; t < mix.size(); ++t) {
            for (int i = 0; i < 3; ++i) {
                EXPECT_TRUE(
                    service.submit(t, clients[t]->nextRequest()).isOk());
            }
        }
        service.pump();
        for (serve::Completion& done : service.drain()) {
            EXPECT_TRUE(done.ok) << done.status.name();
            if (clients[done.tenant]->onResponse(done.sealedResponse)) {
                ++verified;
            }
        }
        if (round == 0) {
            service.switchlessEngine()->disarm(0);
            if (topology == serve::Topology::Cvm) {
                service.switchlessEngine()->disarm(2);
                service.switchlessEngine()->disarm(3);
            }
        }
    }
    EXPECT_EQ(verified, 36u);

    const auto& c = world.machine.trace().counters();
    ArmedRunFigures out;
    out.eenter = c.eenterCount;
    out.eexit = c.eexitCount;
    out.neenter = c.neenterCount;
    out.neexit = c.neexitCount;
    out.posts = c.switchlessPosts;
    out.drains = c.switchlessDrains;
    out.polls = c.switchlessPolls;
    if (const auto* engine = service.switchlessEngine()) {
        out.armings = engine->engineStats().armings;
    }
    out.cycles = world.machine.clock().cycles();
    return out;
}

void
expectFigures(const ArmedRunFigures& got, const ArmedRunFigures& want)
{
    EXPECT_EQ(got.eenter, want.eenter);
    EXPECT_EQ(got.eexit, want.eexit);
    EXPECT_EQ(got.neenter, want.neenter);
    EXPECT_EQ(got.neexit, want.neexit);
    EXPECT_EQ(got.posts, want.posts);
    EXPECT_EQ(got.drains, want.drains);
    EXPECT_EQ(got.polls, want.polls);
    EXPECT_EQ(got.armings, want.armings);
    EXPECT_EQ(got.cycles, want.cycles);
}

TEST_P(SwitchlessTest, ArmedRingRunsMatchPinnedFigures)
{
    // Pinned figures of the armed-ring path over a flat and a CVM fleet.
    // Any drift is a changed simulated cost, not noise: the run is
    // deterministic end to end. The cycles were re-recorded, on purpose
    // and with every count unchanged, when descriptors shrank to
    // [len, seq] and each push or pop came to one header read, one slot
    // access and one index write; and again when pump() came to serve
    // every batch on core 0 instead of rotating over the host cores.
    const bool tagged = GetParam();
    const ArmedRunFigures flat =
        tagged ? ArmedRunFigures{7, 1, 5, 1, 48, 48, 48, 7, 2053980}
               : ArmedRunFigures{7, 1, 5, 1, 48, 48, 48, 7, 2068984};
    const ArmedRunFigures cvm =
        tagged ? ArmedRunFigures{11, 4, 17, 7, 72, 72, 72, 11, 2881263}
               : ArmedRunFigures{11, 4, 17, 7, 72, 72, 72, 11, 2923240};
    {
        SCOPED_TRACE("flat");
        expectFigures(armedRun(tagged, serve::Topology::Flat), flat);
    }
    {
        SCOPED_TRACE("cvm");
        expectFigures(armedRun(tagged, serve::Topology::Cvm), cvm);
    }
}

INSTANTIATE_TEST_SUITE_P(TlbModes, SwitchlessTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                             return info.param ? "TaggedTlb" : "FlushedTlb";
                         });

class SwitchlessSubtreeTest
    : public ::testing::TestWithParam<serve::Topology> {};

TEST_P(SwitchlessSubtreeTest, RebuildWithArmedRingsReleasesEveryHop)
{
    // Two tenants share gateway 0 with rings armed, so pollers sit
    // parked in every enclave of the subtree. The rebuild must unpark
    // them all (or EREMOVE refuses the busy TCSes) and the re-armed
    // subtree must serve again without leaking EPC.
    auto config = World::smallConfig();
    config.coreCount = 10;
    World world(config);
    auto sc = armedServiceConfig(GetParam());
    sc.registry.tenantsPerOuter = 3;
    serve::TenantService service(*world.urts, sc);
    ASSERT_TRUE(service.addTenant(0, Workload::Echo).isOk());
    ASSERT_TRUE(service.addTenant(1, Workload::Echo).isOk());
    ASSERT_EQ(service.registry().find(0)->gatewayIndex, 0u);
    ASSERT_EQ(service.registry().find(1)->gatewayIndex, 0u);
    ASSERT_EQ(service.armSwitchless(), 2u);
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
    const std::uint64_t freeBefore = world.kernel.freeEpcPages();
    const std::uint64_t callsBefore =
        service.switchlessEngine()->engineStats().calls;
    // Untrusted memory is a bump allocator that never frees: a one-page
    // probe on each side shows whether anything was mapped in between.
    const hw::Vaddr probe = world.kernel.mapUntrusted(world.pid, 1);

    Status rebuilt = service.pool().rebuildSubtree(0);
    EXPECT_TRUE(rebuilt.isOk()) << rebuilt.name();
    c0.onTenantRebuilt();
    c1.onTenantRebuilt();
    serveRound(c0, 0);
    serveRound(c1, 1);
    EXPECT_EQ(c0.failures(), 0u);
    EXPECT_EQ(c1.failures(), 0u);
    // Both rounds rode freshly re-armed rings.
    EXPECT_EQ(service.switchlessEngine()->engineStats().calls,
              callsBefore + 2);
    EXPECT_EQ(world.kernel.freeEpcPages(), freeBefore);
    // A re-armed root reuses the host ring region its disarm released.
    EXPECT_EQ(world.kernel.mapUntrusted(world.pid, 1), probe + hw::kPageSize);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, SwitchlessSubtreeTest,
    ::testing::Values(serve::Topology::Flat, serve::Topology::Cvm),
    [](const ::testing::TestParamInfo<serve::Topology>& info) {
        return info.param == serve::Topology::Cvm ? "Cvm" : "Flat";
    });

}  // namespace
}  // namespace nesgx::test
