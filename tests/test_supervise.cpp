/**
 * Failure-domain supervision tests (ISSUE 10): the watchdog flags
 * wedged tenants and climbs the typed escalation ladder (kick ->
 * tenant rebuild -> subtree rebuild -> evacuate), placement epochs
 * fence stale clients with Err::WrongEpoch redirects (the
 * NESGX_BUG_EPOCH_STALE mutation breaks exactly that refusal),
 * rollback paths publish no unpaired ServeTenantMigrate events, fault
 * spec typos get "did you mean" diagnostics, and breaker half-open
 * probes race supervisor-driven rebuilds cleanly under 4 real worker
 * threads (the TSan job runs this binary).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "fault/injector.h"
#include "harness.h"
#include "migrate/engine.h"
#include "serve/client.h"
#include "serve/service.h"
#include "supervise/supervisor.h"
#include "trace/sink.h"

namespace nesgx::test {
namespace {

using serve::TenantId;
using serve::Workload;

serve::TenantService::Config
attestedConfig()
{
    serve::TenantService::Config sc;
    sc.attestOnboarding = true;
    sc.registry.tenantsPerOuter = 2;
    return sc;
}

/** Counts supervision + epoch trace events. */
struct SuperviseSink : trace::TraceSink {
    std::uint64_t wedges = 0;
    std::uint64_t escalations = 0;
    std::uint64_t evacuations = 0;
    std::uint64_t wrongEpochs = 0;
    std::uint64_t migrateEvents = 0;
    std::uint64_t lastEscalationRung = 0;

    void onEvent(const trace::TraceEvent& event) override
    {
        switch (event.kind) {
          case trace::EventKind::SuperviseWedge: ++wedges; break;
          case trace::EventKind::SuperviseEscalate:
            ++escalations;
            lastEscalationRung = event.arg1;
            break;
          case trace::EventKind::SuperviseEvacuate: ++evacuations; break;
          case trace::EventKind::ServeWrongEpoch: ++wrongEpochs; break;
          case trace::EventKind::ServeTenantMigrate: ++migrateEvents; break;
          default: break;
        }
    }
};

/** The clock of each committed host move, on the machine it lands on. */
struct MoveStampSink : trace::TraceSink {
    std::vector<std::uint64_t> stamps;

    void onEvent(const trace::TraceEvent& event) override
    {
        if (event.kind == trace::EventKind::ServeTenantMigrate) {
            stamps.push_back(event.time);
        }
    }
};

// --- satellite: fault spec diagnostics ----------------------------------

TEST(FaultSpecDiagnostics, UnknownSiteSuggestsTheClosestName)
{
    std::string error;
    auto plan = fault::FaultPlan::parse("gatway-crash@n=1", &error);
    EXPECT_FALSE(plan.isOk());
    EXPECT_NE(error.find("unknown fault site 'gatway-crash'"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("did you mean 'gateway-crash'"), std::string::npos)
        << error;
}

TEST(FaultSpecDiagnostics, UnknownTriggerSuggestsEvery)
{
    std::string error;
    auto plan = fault::FaultPlan::parse("poller-wedge@evry=3", &error);
    EXPECT_FALSE(plan.isOk());
    EXPECT_NE(error.find("unknown trigger 'evry'"), std::string::npos)
        << error;
    EXPECT_NE(error.find("did you mean 'every'"), std::string::npos)
        << error;
}

TEST(FaultSpecDiagnostics, MissingAtAndBadValuesAreNamed)
{
    std::string error;
    EXPECT_FALSE(fault::FaultPlan::parse("ring-stall", &error).isOk());
    EXPECT_NE(error.find("has no '@'"), std::string::npos) << error;

    EXPECT_FALSE(fault::FaultPlan::parse("ring-stall@n=zero", &error).isOk());
    EXPECT_NE(error.find("bad occurrence count 'zero'"), std::string::npos)
        << error;

    EXPECT_FALSE(fault::FaultPlan::parse("ring-stall@p=1.5", &error).isOk());
    EXPECT_NE(error.find("bad probability '1.5'"), std::string::npos)
        << error;
}

TEST(FaultSpecDiagnostics, ValidSpecsStillParseAndRoundTrip)
{
    std::string error;
    auto plan = fault::FaultPlan::parse(
        "gateway-crash@n=2;host-degrade@n=1;poller-wedge@every=9", &error);
    ASSERT_TRUE(plan.isOk()) << error;
    EXPECT_TRUE(error.empty());
    EXPECT_NE(plan.value().describe().find("gateway-crash@n=2"),
              std::string::npos);
}

// --- epoch fencing ------------------------------------------------------

class EpochFencing : public ::testing::Test {
  protected:
    void SetUp() override
    {
        world_ = std::make_unique<World>();
        service_ = std::make_unique<serve::TenantService>(*world_->urts,
                                                          attestedConfig());
    }

    /** One fenced round: stamp, submit, pump, verify. */
    void fencedRound(serve::TenantClient& client, TenantId id, int n)
    {
        for (int i = 0; i < n; ++i) {
            ASSERT_TRUE(service_
                            ->submitStamped(id,
                                            client.nextStampedRequest())
                            .isOk());
        }
        service_->pump();
        std::uint64_t verified = 0;
        for (auto& done : service_->drain()) {
            if (client.onResponse(done.sealedResponse)) ++verified;
        }
        ASSERT_EQ(verified, std::uint64_t(n));
    }

    std::unique_ptr<World> world_;
    std::unique_ptr<serve::TenantService> service_;
    migrate::MigrationEngine engine_;
};

TEST_F(EpochFencing, StaleEpochIsRefusedTypedAndRedirectRecovers)
{
    ASSERT_TRUE(service_->addTenant(1, Workload::Echo).isOk());
    serve::TenantClient client(1, Workload::Echo,
                               service_->sessionKeyFor(1));

    auto placement = service_->placement(1);
    EXPECT_EQ(placement.epoch, 1u);
    EXPECT_EQ(placement.incarnation, 1u);
    client.onPlacement(placement.epoch, placement.incarnation);
    fencedRound(client, 1, 3);

    // A rebuild bumps both epoch (placement changed) and incarnation
    // (state lost).
    serve::TenantHandle* handle = service_->registry().find(1);
    ASSERT_NE(handle, nullptr);
    ASSERT_TRUE(service_->pool().rebuildTenant(*handle).isOk());
    EXPECT_EQ(service_->placement(1).epoch, 2u);
    EXPECT_EQ(service_->placement(1).incarnation, 2u);

    // The client still stamps epoch 1: the submit must be refused with
    // the typed redirect *before* anything reaches an enclave.
    // NESGX_BUG_EPOCH_STALE reverts exactly this refusal and lets the
    // stale request through, failing the next three assertions.
    SuperviseSink sink;
    world_->machine.trace().subscribe(&sink);
    Status stale = service_->submitStamped(1, client.nextStampedRequest());
    world_->machine.trace().unsubscribe(&sink);
    EXPECT_EQ(stale.code(), Err::WrongEpoch);
    EXPECT_GE(handle->wrongEpochs.load(), 1u);
    EXPECT_EQ(sink.wrongEpochs, 1u);

    // Redirect handling: deterministic backoff, re-resolve placement
    // (the incarnation change resets the client's session mirror), and
    // the retry verifies.
    const std::uint64_t backoff = client.onWrongEpoch();
    EXPECT_GT(backoff, 0u);
    world_->machine.charge(backoff);
    auto fresh = service_->placement(1);
    client.onPlacement(fresh.epoch, fresh.incarnation);
    EXPECT_EQ(client.rebuildsSeen(), 1u);
    fencedRound(client, 1, 3);
    EXPECT_EQ(client.redirectsSeen(), 1u);
}

TEST_F(EpochFencing, BackoffGrowsExponentiallyAndDeterministically)
{
    serve::TenantClient a(7, Workload::Echo);
    serve::TenantClient b(7, Workload::Echo);
    std::uint64_t previous = 0;
    for (int i = 0; i < 6; ++i) {
        const std::uint64_t fromA = a.onWrongEpoch();
        EXPECT_EQ(fromA, b.onWrongEpoch()) << "redirect " << i;
        EXPECT_GT(fromA, previous) << "redirect " << i;
        previous = fromA;
    }
    // A successful re-resolve resets the ladder.
    a.onPlacement(2, 1);
    EXPECT_LT(a.onWrongEpoch(), previous);
}

TEST_F(EpochFencing, MigrationRedirectsWithoutResettingTheSession)
{
    ASSERT_TRUE(service_->addTenant(2, Workload::Sql).isOk());
    serve::TenantClient client(2, Workload::Sql,
                               service_->sessionKeyFor(2));
    auto placement = service_->placement(2);
    client.onPlacement(placement.epoch, placement.incarnation);
    fencedRound(client, 2, 4);

    // A live gateway move is a placement change without state loss:
    // epoch bumps, incarnation must not.
    ASSERT_TRUE(engine_.migrateToGateway(*service_, 2).isOk());
    auto moved = service_->placement(2);
    EXPECT_EQ(moved.epoch, 2u);
    EXPECT_EQ(moved.incarnation, 1u);

    Status stale = service_->submitStamped(2, client.nextStampedRequest());
    EXPECT_EQ(stale.code(), Err::WrongEpoch);

    // Re-resolving keeps the session: same incarnation, no client
    // reset, and the sql shadow database stays in lockstep (only
    // journal-imported server state can keep verifying).
    (void)client.onWrongEpoch();
    client.onPlacement(moved.epoch, moved.incarnation);
    EXPECT_EQ(client.rebuildsSeen(), 0u);
    fencedRound(client, 2, 4);
    EXPECT_EQ(client.failures(), 0u);
}

TEST_F(EpochFencing, UnderSizedStampAndUnknownTenantRefuseTyped)
{
    ASSERT_TRUE(service_->addTenant(3, Workload::Echo).isOk());
    EXPECT_EQ(service_->submitStamped(3, Bytes{1, 2, 3}).code(),
              Err::BadCallBuffer);
    EXPECT_EQ(service_->submitStamped(99, Bytes(16, 0)).code(),
              Err::NotFound);
    EXPECT_EQ(service_->placement(99).epoch, 0u);
}

// --- satellite: rollback publishes no unpaired migrate events -----------

TEST(MigrationRollback, NoUnpairedMigrateEventsOnImportFault)
{
    World world;
    serve::TenantService service(*world.urts, attestedConfig());
    ASSERT_TRUE(service.addTenant(4, Workload::Echo).isOk());
    serve::TenantClient client(4, Workload::Echo, service.sessionKeyFor(4));
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(service.submit(4, client.nextRequest()).isOk());
    }
    service.pump();
    for (auto& done : service.drain()) {
        EXPECT_TRUE(client.onResponse(done.sealedResponse));
    }

    auto plan = fault::FaultPlan::parse("migrate-import-fail@n=1");
    ASSERT_TRUE(plan.isOk());
    fault::FaultInjector injector(plan.value(), 1);
    world.machine.setFaultInjector(&injector);

    // ServeTenantMigrate is published only on COMMIT: a rolled-back
    // move must leave the event stream exactly as it found it.
    SuperviseSink sink;
    world.machine.trace().subscribe(&sink);
    migrate::MigrationEngine engine;
    EXPECT_FALSE(engine.migrateToGateway(service, 4).isOk());
    world.machine.trace().unsubscribe(&sink);

    EXPECT_EQ(engine.stats().rolledBack, 1u);
    EXPECT_EQ(sink.migrateEvents, 0u);

    // And the epoch did not move either: no redirect without a commit.
    EXPECT_EQ(service.placement(4).epoch, 1u);
}

// --- supervisor: wedge detection + ladder -------------------------------

TEST(Supervisor, QueuedButUnservedTenantIsWedgedThenRebuilt)
{
    World world;
    serve::TenantService service(*world.urts, attestedConfig());
    ASSERT_TRUE(service.addTenant(1, Workload::Echo).isOk());
    serve::TenantClient client(1, Workload::Echo, service.sessionKeyFor(1));

    supervise::Config cfg;
    cfg.wedgeTicks = 2;
    cfg.rungPatience = 1;
    supervise::Supervisor supervisor(service, cfg);

    // Healthy traffic: ticks observe progress and take no action.
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(service.submit(1, client.nextRequest()).isOk());
    }
    service.pump();
    for (auto& done : service.drain()) {
        EXPECT_TRUE(client.onResponse(done.sealedResponse));
    }
    EXPECT_EQ(supervisor.tick(), 0u);
    EXPECT_EQ(supervisor.stats().wedges, 0u);

    // Now requests queue but nothing drains them: activity with no
    // progress. After wedgeTicks the watchdog flags the wedge and (no
    // switchless channel to kick) enters at the tenant-rebuild rung.
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(service.submit(1, client.nextRequest()).isOk());
        world.machine.charge(1000);
    }
    SuperviseSink sink;
    world.machine.trace().subscribe(&sink);
    EXPECT_EQ(supervisor.tick(), 0u);  // stale tick 1: patience
    world.machine.charge(5000);
    EXPECT_EQ(supervisor.tick(), 1u);  // stale tick 2: wedge + rebuild
    world.machine.trace().unsubscribe(&sink);

    EXPECT_EQ(supervisor.stats().wedges, 1u);
    EXPECT_EQ(supervisor.stats().tenantRebuilds, 1u);
    EXPECT_EQ(sink.wedges, 1u);
    EXPECT_GE(sink.escalations, 1u);
    EXPECT_EQ(sink.lastEscalationRung,
              std::uint64_t(supervise::Rung::TenantRebuild));
    EXPECT_EQ(supervisor.stats().detectionLatency.count(), 1u);
    EXPECT_GT(supervisor.stats().detectionLatency.max(), 0u);

    // The rebuild failed the queued requests typed and bumped the
    // incarnation; a re-resolved client serves on.
    auto placement = service.placement(1);
    EXPECT_EQ(placement.incarnation, 2u);
    client.onTenantRebuilt();
    for (auto& done : service.drain()) {
        EXPECT_FALSE(done.ok);
        EXPECT_TRUE(done.tenantRebuilt);
    }
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(service.submit(1, client.nextRequest()).isOk());
    }
    service.pump();
    std::uint64_t verified = 0;
    for (auto& done : service.drain()) {
        if (client.onResponse(done.sealedResponse)) ++verified;
    }
    EXPECT_EQ(verified, 2u);
    // The recovery is visible to the next tick.
    EXPECT_EQ(supervisor.tick(), 0u);
    EXPECT_EQ(supervisor.stats().recoveries, 1u);
    EXPECT_EQ(supervisor.stats().recoveryLatency.count(), 1u);
}

TEST(Supervisor, FirstLookAtAWaitingQueueIsABaselineNotEvidence)
{
    World world;
    serve::TenantService service(*world.urts, attestedConfig());
    ASSERT_TRUE(service.addTenant(1, Workload::Echo).isOk());
    serve::TenantClient client(1, Workload::Echo, service.sessionKeyFor(1));

    // Work queued before the supervisor exists, and time has passed.
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(service.submit(1, client.nextRequest()).isOk());
    }
    world.machine.charge(1000);

    supervise::Config cfg;
    cfg.wedgeTicks = 1;
    cfg.rungPatience = 1;
    supervise::Supervisor supervisor(service, cfg);
    // The queue may only be waiting for its worker: the first look
    // flags nothing and purges nothing.
    EXPECT_EQ(supervisor.tick(), 0u);
    EXPECT_EQ(supervisor.stats().wedges, 0u);
    EXPECT_EQ(service.admission().depth(1), 2u);

    service.pump();
    std::uint64_t verified = 0;
    for (auto& done : service.drain()) {
        if (client.onResponse(done.sealedResponse)) ++verified;
    }
    EXPECT_EQ(verified, 2u);
    EXPECT_EQ(supervisor.tick(), 0u);

    // Queued work that stays unserved while the clock moves is evidence.
    ASSERT_TRUE(service.submit(1, client.nextRequest()).isOk());
    world.machine.charge(1000);
    EXPECT_EQ(supervisor.tick(), 1u);
    EXPECT_EQ(supervisor.stats().wedges, 1u);
    EXPECT_EQ(supervisor.stats().tenantRebuilds, 1u);
}

/**
 * Two tenants on one gateway, classic or riding armed rings. A gateway
 * crash on the first batch fails both typed, one supervisor tick enters
 * at the subtree rung and clears the marker, and both tenants serve
 * verified again (over re-armed rings when `rings`).
 */
void
gatewayCrashEntersAtSubtreeRebuild(bool rings)
{
    auto config = World::smallConfig();
    if (rings) config.coreCount = 6;  // host worker + parked pollers
    World world(config);
    auto sc = attestedConfig();
    sc.switchless.enabled = rings;
    serve::TenantService service(*world.urts, sc);
    // Two tenants on the same gateway: the whole failure domain wedges.
    ASSERT_TRUE(service.addTenant(1, Workload::Echo).isOk());
    ASSERT_TRUE(service.addTenant(2, Workload::Echo).isOk());
    serve::TenantClient c1(1, Workload::Echo, service.sessionKeyFor(1));
    serve::TenantClient c2(2, Workload::Echo, service.sessionKeyFor(2));
    if (rings) {
        ASSERT_EQ(service.armSwitchless(), 2u);
    }

    auto plan = fault::FaultPlan::parse("gateway-crash@n=1");
    ASSERT_TRUE(plan.isOk());
    fault::FaultInjector injector(plan.value(), 1);
    world.machine.setFaultInjector(&injector);

    // The first dispatch fires the crash: the batch fails typed and the
    // gateway is marked down.
    ASSERT_TRUE(service.submit(1, c1.nextRequest()).isOk());
    ASSERT_TRUE(service.submit(2, c2.nextRequest()).isOk());
    service.pump();
    EXPECT_EQ(injector.injected(fault::FaultSite::GatewayCrash), 1u);
    const std::size_t gateway = service.registry().find(1)->gatewayIndex;
    EXPECT_TRUE(service.registry().gatewayCrashed(gateway));
    for (auto& done : service.drain()) {
        EXPECT_FALSE(done.ok);
        EXPECT_EQ(done.error(), Err::Unavailable);
    }

    supervise::Config cfg;
    cfg.wedgeTicks = 1;
    cfg.rungPatience = 1;
    supervise::Supervisor supervisor(service, cfg);
    world.machine.charge(1000);
    // One tick: the first member wedges with the gateway-down reason,
    // the ladder enters directly at the subtree rung (tenant rebuilds
    // cannot clear a gateway-level casualty), and that single rebuild
    // cures the whole failure domain — the sibling never wedges.
    EXPECT_GE(supervisor.tick(), 1u);
    EXPECT_EQ(supervisor.stats().wedges, 1u);
    EXPECT_EQ(supervisor.stats().subtreeRebuilds, 1u);
    EXPECT_EQ(supervisor.stats().tenantRebuilds, 0u);
    EXPECT_EQ(supervisor.stats().kicks, 0u);
    EXPECT_FALSE(service.registry().gatewayCrashed(gateway));

    // Rebuilt subtree = fresh incarnations; both sessions serve again.
    c1.onTenantRebuilt();
    c2.onTenantRebuilt();
    (void)service.drain();
    const std::uint64_t ringCalls =
        rings ? std::uint64_t(service.switchlessEngine()->engineStats().calls)
              : 0;
    ASSERT_TRUE(service.submit(1, c1.nextRequest()).isOk());
    ASSERT_TRUE(service.submit(2, c2.nextRequest()).isOk());
    service.pump();
    std::uint64_t verified = 0;
    for (auto& done : service.drain()) {
        if (done.tenant == 1 && c1.onResponse(done.sealedResponse)) {
            ++verified;
        }
        if (done.tenant == 2 && c2.onResponse(done.sealedResponse)) {
            ++verified;
        }
    }
    EXPECT_EQ(verified, 2u);
    if (rings) {
        EXPECT_EQ(service.switchlessEngine()->engineStats().calls,
                  ringCalls + 2);
    }
}

TEST(Supervisor, GatewayCrashEntersAtSubtreeRebuildAndClearsTheMarker)
{
    gatewayCrashEntersAtSubtreeRebuild(false);
}

TEST(Supervisor, GatewayCrashOnAnArmedRingEntersAtSubtreeRebuild)
{
    // Armed rings pass the same dispatch gate, so the crash fires on the
    // ring path too and the supervisor sees the downed gateway.
    gatewayCrashEntersAtSubtreeRebuild(true);
}

TEST(Supervisor, PollerWedgeIsKickedAndTheChannelRearms)
{
    auto config = World::smallConfig();
    config.coreCount = 6;  // host workers + parked pollers
    World world(config);
    auto sc = attestedConfig();
    sc.switchless.enabled = true;
    serve::TenantService service(*world.urts, sc);
    ASSERT_TRUE(service.addTenant(1, Workload::Echo).isOk());
    serve::TenantClient client(1, Workload::Echo, service.sessionKeyFor(1));
    EXPECT_EQ(service.armSwitchless(), 1u);

    auto plan = fault::FaultPlan::parse("poller-wedge@n=1");
    ASSERT_TRUE(plan.isOk());
    fault::FaultInjector injector(plan.value(), 1);
    world.machine.setFaultInjector(&injector);

    // The wedge fires on the first switchless call: the channel stays
    // armed but refuses, so the batch fails typed after retries.
    ASSERT_TRUE(service.submit(1, client.nextRequest()).isOk());
    service.pump();
    for (auto& done : service.drain()) {
        EXPECT_FALSE(done.ok);
    }
    ASSERT_NE(service.switchlessEngine(), nullptr);
    auto progress = service.switchlessEngine()->channelProgress(1);
    EXPECT_TRUE(progress.armed);
    EXPECT_TRUE(progress.wedged);
    EXPECT_EQ(service.switchlessEngine()->engineStats().pollerWedges.load(),
              1u);

    supervise::Config cfg;
    cfg.wedgeTicks = 1;
    supervise::Supervisor supervisor(service, cfg);
    world.machine.charge(1000);
    EXPECT_EQ(supervisor.tick(), 1u);
    EXPECT_EQ(supervisor.stats().wedges, 1u);
    EXPECT_EQ(supervisor.stats().kicks, 1u);
    EXPECT_FALSE(service.switchlessEngine()->channelProgress(1).armed);

    // The kick cured it: the next dispatch re-arms a fresh channel and
    // the session picks up where it left off (no rebuild, no reseal).
    client.onDropped();  // the wedged request never completed
    ASSERT_TRUE(service.submit(1, client.nextRequest()).isOk());
    service.pump();
    std::uint64_t verified = 0;
    for (auto& done : service.drain()) {
        if (client.onResponse(done.sealedResponse)) ++verified;
    }
    EXPECT_EQ(verified, 1u);
    EXPECT_TRUE(service.switchlessEngine()->channelProgress(1).armed);
    EXPECT_FALSE(service.switchlessEngine()->channelProgress(1).wedged);
}

TEST(Supervisor, DegradedHostEvacuatesTenantsToTheHealthyPeer)
{
    auto config = World::smallConfig();
    World worldA(config);
    config.rngSeed = 99;  // different root of trust
    World worldB(config);
    serve::TenantService serviceA(*worldA.urts, attestedConfig());
    serve::TenantService serviceB(*worldB.urts, attestedConfig());
    migrate::Fleet fleet;
    fleet.addHost(serviceA);
    fleet.addHost(serviceB);
    migrate::MigrationEngine engine;

    ASSERT_TRUE(fleet.addTenant(1, Workload::Sql, 0).isOk());
    ASSERT_TRUE(fleet.addTenant(2, Workload::Echo, 0).isOk());
    serve::TenantClient c1(1, Workload::Sql, serviceA.sessionKeyFor(1));
    serve::TenantClient c2(2, Workload::Echo, serviceA.sessionKeyFor(2));
    c1.onPlacement(1, 1);
    c2.onPlacement(1, 1);

    auto fleetRound = [&](serve::TenantClient& client, TenantId id, int n) {
        for (int i = 0; i < n; ++i) {
            ASSERT_TRUE(
                fleet.submitStamped(id, client.nextStampedRequest()).isOk());
        }
        fleet.pumpAll();
        std::uint64_t verified = 0;
        for (auto& done : fleet.drainAll()) {
            if (done.tenant == id &&
                client.onResponse(done.sealedResponse)) {
                ++verified;
            }
        }
        ASSERT_EQ(verified, std::uint64_t(n));
    };
    fleetRound(c1, 1, 4);
    fleetRound(c2, 2, 4);

    supervise::Config cfg;
    cfg.wedgeTicks = 1;
    supervise::Supervisor supervisor(serviceA, cfg);
    supervisor.attachFleet(fleet, engine, 0);
    // Baseline tick while healthy: records the heartbeat watermark.
    EXPECT_EQ(supervisor.tick(), 0u);

    // The whole host degrades: the data plane refuses, the control
    // plane still works — the only rung that helps is evacuation, and
    // the ladder must jump straight to it.
    serviceA.registry().setDegraded(true);
    worldA.machine.charge(1000);
    SuperviseSink sink;
    MoveStampSink dstMoves;
    worldA.machine.trace().subscribe(&sink);
    worldB.machine.trace().subscribe(&dstMoves);
    const std::uint64_t dstBegin = worldB.machine.clock().cycles();
    EXPECT_GE(supervisor.tick(), 1u);
    EXPECT_GE(supervisor.tick(), 0u);  // second tick sweeps/evacuates rest
    worldA.machine.trace().unsubscribe(&sink);
    worldB.machine.trace().unsubscribe(&dstMoves);

    EXPECT_EQ(supervisor.stats().evacuations, 2u);
    EXPECT_EQ(supervisor.stats().tenantRebuilds, 0u);
    EXPECT_EQ(sink.evacuations, 2u);
    EXPECT_EQ(supervisor.stats().evacuationLatency.count(), 2u);
    // Each move ran on both machines: its sample holds at least what the
    // destination's clock advanced for it (only the moves advance it).
    ASSERT_EQ(dstMoves.stamps.size(), 2u);
    std::vector<std::uint64_t> dstAdvance = {
        dstMoves.stamps[0] - dstBegin,
        dstMoves.stamps[1] - dstMoves.stamps[0]};
    std::sort(dstAdvance.begin(), dstAdvance.end());
    EXPECT_GE(supervisor.stats().evacuationLatency.min(), dstAdvance[0]);
    EXPECT_GE(supervisor.stats().evacuationLatency.max(), dstAdvance[1]);
    EXPECT_EQ(serviceA.registry().find(1), nullptr);
    EXPECT_EQ(serviceA.registry().find(2), nullptr);
    EXPECT_EQ(fleet.hostIndexOf(1), 1u);
    EXPECT_EQ(fleet.hostIndexOf(2), 1u);

    // Epoch fencing across the evacuation: the old stamp is refused on
    // the new host, the re-resolved placement keeps the incarnation
    // (state survived), and both sealed sessions continue seamlessly.
    EXPECT_EQ(fleet.submitStamped(1, c1.nextStampedRequest()).code(),
              Err::WrongEpoch);
    auto moved = fleet.placement(1);
    EXPECT_EQ(moved.epoch, 2u);
    EXPECT_EQ(moved.incarnation, 1u);
    (void)c1.onWrongEpoch();
    c1.onPlacement(moved.epoch, moved.incarnation);
    c1.onDropped();  // the refused request never completed
    EXPECT_EQ(c1.rebuildsSeen(), 0u);
    auto p2 = fleet.placement(2);
    c2.onPlacement(p2.epoch, p2.incarnation);
    fleetRound(c1, 1, 4);
    fleetRound(c2, 2, 4);
    EXPECT_EQ(c1.failures(), 0u);
    EXPECT_EQ(c2.failures(), 0u);
}

/** Degrades `service`'s host (and, in a fleet, every peer the caller
 *  degraded too), ticks the supervisor through several rungs of
 *  patience and checks that the ladder topped out: no move, no
 *  recovery, the tenant still on this host and still refused. */
void
expectDegradedTopsOut(World& world, serve::TenantService& service,
                      supervise::Supervisor& supervisor,
                      migrate::MigrationEngine& engine)
{
    EXPECT_EQ(supervisor.tick(), 0u);  // baseline while healthy
    service.registry().setDegraded(true);
    for (int i = 0; i < 6; ++i) {
        world.machine.charge(1000);
        (void)supervisor.tick();
    }

    const auto& stats = supervisor.stats();
    EXPECT_EQ(stats.wedges, 1u);  // flagged once, never reset
    EXPECT_EQ(stats.evacuations, 0u);
    EXPECT_EQ(stats.recoveries, 0u);
    EXPECT_GE(stats.evacuationFailures, 1u);
    EXPECT_EQ(stats.subtreeRebuilds, 0u);
    EXPECT_EQ(engine.stats().gatewayMoves + engine.stats().hostMoves, 0u);
    EXPECT_EQ(engine.stats().attempts, 0u);

    serve::TenantHandle* tenant = service.registry().find(1);
    ASSERT_NE(tenant, nullptr);
    EXPECT_EQ(tenant->migrations, 0u);
    serve::TenantClient client(1, Workload::Echo, service.sessionKeyFor(1));
    ASSERT_TRUE(service.submit(1, client.nextRequest()).isOk());
    service.pump();
    auto done = service.drain();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_FALSE(done[0].ok);
    EXPECT_EQ(done[0].error(), Err::Unavailable);
}

TEST(Supervisor, DegradedHostWithNoHealthyPeerTopsOutWithoutMoving)
{
    supervise::Config cfg;
    cfg.wedgeTicks = 1;
    cfg.rungPatience = 1;
    {
        SCOPED_TRACE("one host");
        World world;
        serve::TenantService service(*world.urts, attestedConfig());
        ASSERT_TRUE(service.addTenant(1, Workload::Echo).isOk());
        migrate::MigrationEngine engine;
        supervise::Supervisor supervisor(service, cfg);
        supervisor.attachEngine(engine);
        expectDegradedTopsOut(world, service, supervisor, engine);
    }
    {
        SCOPED_TRACE("two hosts, both degraded");
        auto config = World::smallConfig();
        World worldA(config);
        config.rngSeed = 99;
        World worldB(config);
        serve::TenantService serviceA(*worldA.urts, attestedConfig());
        serve::TenantService serviceB(*worldB.urts, attestedConfig());
        migrate::Fleet fleet;
        fleet.addHost(serviceA);
        fleet.addHost(serviceB);
        migrate::MigrationEngine engine;
        ASSERT_TRUE(fleet.addTenant(1, Workload::Echo, 0).isOk());
        serviceB.registry().setDegraded(true);
        supervise::Supervisor supervisor(serviceA, cfg);
        supervisor.attachFleet(fleet, engine, 0);
        expectDegradedTopsOut(worldA, serviceA, supervisor, engine);
        EXPECT_EQ(fleet.hostIndexOf(1), 0u);
        EXPECT_EQ(serviceB.registry().find(1), nullptr);
    }
}

// --- satellite: breaker half-open probe vs concurrent recovery ----------

TEST(SupervisionRace, HalfOpenProbesRaceSupervisorRebuildsUnderFourThreads)
{
    // The TSan job runs this: 4 real worker threads drive batches whose
    // breakers open and half-open probe, while the supervisor thread
    // (here: the main thread) concurrently ticks — reading breaker
    // state, rebuilding wedged tenants — against the live pool.
    auto config = World::smallConfig();
    config.prmBytes = 24ull << 20;
    World world(config);

    auto sc = attestedConfig();
    sc.registry.tenantsPerOuter = 2;
    sc.pool.batchSize = 4;
    sc.pool.maxRetries = 0;  // one transient fault fails the batch
    sc.pool.breakerThreshold = 1;
    sc.pool.breakerCooldownCycles = 2000;
    serve::TenantService service(*world.urts, sc);
    std::vector<std::unique_ptr<serve::TenantClient>> clients;
    for (TenantId t = 0; t < 8; ++t) {
        ASSERT_TRUE(service.addTenant(t, Workload::Echo).isOk()) << t;
        clients.push_back(std::make_unique<serve::TenantClient>(
            t, Workload::Echo, service.sessionKeyFor(t)));
    }

    // Open every breaker before the race, serially: each tenant's batch
    // meets a refused NEENTER and, with no retries, trips its breaker.
    // The race alone cannot promise an open: once the workers move the
    // clock, the supervisor (wedgeTicks = 1) rebuilds tenants whose
    // queues are still waiting, and those rebuilds' provisioning
    // NEENTERs can take every fault the plan below injects.
    std::uint64_t submitted = 0;
    {
        auto refuseAll = fault::FaultPlan::parse("neenter-fail@every=1");
        ASSERT_TRUE(refuseAll.isOk());
        fault::FaultInjector injector(refuseAll.value(), 7);
        world.machine.setFaultInjector(&injector);
        for (TenantId t = 0; t < 8; ++t) {
            ASSERT_TRUE(service.submit(t, clients[t]->nextRequest()).isOk());
            ++submitted;
        }
        service.pump();
        world.machine.setFaultInjector(nullptr);
    }
    ASSERT_EQ(service.pool().breakerOpens(), 8u);
    // Every cooldown lapses, so each tenant's first batch in the race is
    // a half-open probe.
    world.machine.charge(sc.pool.breakerCooldownCycles + 1);
    const std::uint64_t probesBefore =
        service.pool().breakerCloses() + service.pool().dispatchFailures();

    // Transient dispatch failures during the race: a failed probe re-arms
    // its cooldown, a closed breaker that fails opens again.
    auto plan = fault::FaultPlan::parse("neenter-fail@every=5");
    ASSERT_TRUE(plan.isOk());
    fault::FaultInjector injector(plan.value(), 7);
    world.machine.setFaultInjector(&injector);

    for (int round = 0; round < 6; ++round) {
        for (TenantId t = 0; t < 8; ++t) {
            if (service.submit(t, clients[t]->nextRequest()).isOk()) {
                ++submitted;
            }
        }
    }

    supervise::Config cfg;
    cfg.wedgeTicks = 1;
    cfg.rungPatience = 1;
    supervise::Supervisor supervisor(service, cfg);

    std::thread pool([&] { service.pumpParallel(4); });
    for (int i = 0; i < 200; ++i) {
        supervisor.tick();
        (void)service.registry().find(TenantId(i % 8))->breaker.open.load();
    }
    pool.join();

    // The race ran at least one half-open probe, which either closed its
    // breaker or failed its dispatch. The supervisor cannot purge every
    // queue first: its first look at a tenant is only a baseline, so it
    // needs the sim clock to move, and only a worker's batch past the
    // breaker gate moves it.
    EXPECT_GT(service.pool().breakerCloses() +
                  service.pool().dispatchFailures(),
              probesBefore);

    // Post-race: lift the faults, let every open breaker's cooldown
    // lapse so half-open probes succeed, and drain serially. Every
    // submitted request must then be accounted for — a completion,
    // typed or verified, never a silent drop.
    world.machine.setFaultInjector(nullptr);
    for (int i = 0; i < 8 && service.admission().totalQueued() > 0; ++i) {
        world.machine.charge(sc.pool.breakerCooldownCycles + 1);
        service.pump();
    }
    EXPECT_EQ(service.admission().totalQueued(), 0u);
    std::uint64_t completions = 0;
    std::uint64_t silentEmpties = 0;
    for (auto& done : service.drain()) {
        ++completions;
        if (done.ok) {
            (void)clients[done.tenant]->onResponse(done.sealedResponse);
        } else if (done.sealedResponse.empty() &&
                   done.status.isOk()) {
            ++silentEmpties;
        }
    }
    EXPECT_EQ(completions, submitted);
    EXPECT_EQ(silentEmpties, 0u);
    EXPECT_GT(service.pool().breakerOpens(), 0u);
}

}  // namespace
}  // namespace nesgx::test
