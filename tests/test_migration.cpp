/**
 * Live-migration tests: gateway moves preserve the sealed session
 * (key, replay high-water mark, sql journal), replay of pre-migration
 * traffic is refused after the move (the NESGX_BUG_MIGRATE_REPLAY
 * mutation breaks exactly this), aborted moves leave the source
 * serving, and cross-host moves through a two-Machine Fleet re-wrap
 * the snapshot between root-of-trust domains and keep serving.
 */
#include <gtest/gtest.h>

#include "fault/injector.h"
#include "harness.h"
#include "migrate/engine.h"
#include "serve/client.h"
#include "serve/service.h"
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

/** Submits n requests, pumps, and verifies every response. */
void
serveRound(serve::TenantService& service, serve::TenantClient& client,
           TenantId id, int n)
{
    for (int i = 0; i < n; ++i) {
        ASSERT_TRUE(service.submit(id, client.nextRequest()).isOk());
    }
    service.pump();
    std::uint64_t verified = 0;
    for (auto& done : service.drain()) {
        if (client.onResponse(done.sealedResponse)) ++verified;
    }
    ASSERT_EQ(verified, std::uint64_t(n));
}

class GatewayMigration : public ::testing::TestWithParam<bool> {
  protected:
    void SetUp() override
    {
        auto config = World::smallConfig();
        config.taggedTlb = GetParam();
        world_ = std::make_unique<World>(config);
        service_ = std::make_unique<serve::TenantService>(*world_->urts,
                                                          attestedConfig());
    }

    void arm(const std::string& spec)
    {
        auto plan = fault::FaultPlan::parse(spec);
        ASSERT_TRUE(plan.isOk()) << spec;
        injector_ =
            std::make_unique<fault::FaultInjector>(plan.value(), 1);
        world_->machine.setFaultInjector(injector_.get());
    }

    std::unique_ptr<World> world_;
    std::unique_ptr<serve::TenantService> service_;
    std::unique_ptr<fault::FaultInjector> injector_;
    migrate::MigrationEngine engine_;
};

TEST_P(GatewayMigration, SessionSurvivesTheMoveWithSequenceContinuity)
{
    ASSERT_TRUE(service_->addTenant(1, Workload::Echo).isOk());
    serve::TenantClient client(1, Workload::Echo,
                               service_->sessionKeyFor(1));
    serveRound(*service_, client, 1, 5);

    const auto before = service_->registry().find(1)->gatewayIndex;
    ASSERT_TRUE(engine_.migrateToGateway(*service_, 1).isOk());
    const auto& tenant = *service_->registry().find(1);
    EXPECT_NE(tenant.gatewayIndex, before);
    EXPECT_EQ(tenant.migrations.load(), 1u);
    EXPECT_EQ(engine_.stats().gatewayMoves, 1u);
    EXPECT_GT(engine_.stats().pagesDrained, 0u);
    EXPECT_EQ(engine_.stats().latency.count(), 1u);

    // No reseal, no sequence reset: the client keeps counting from 6.
    // A fresh (rebuilt-style) instance would refuse these as replays of
    // nothing — only imported replay state makes them verify.
    serveRound(*service_, client, 1, 5);
    EXPECT_EQ(client.failures(), 0u);
}

TEST_P(GatewayMigration, SqlStateTravelsViaJournalReplay)
{
    ASSERT_TRUE(service_->addTenant(2, Workload::Sql).isOk());
    serve::TenantClient client(2, Workload::Sql,
                               service_->sessionKeyFor(2));
    // CREATE + a few INSERT/SELECT/UPDATEs build real table state.
    serveRound(*service_, client, 2, 7);

    ASSERT_TRUE(engine_.migrateToGateway(*service_, 2).isOk());

    // The client's shadow database keeps mirroring statement for
    // statement: SELECT/UPDATE results only match if the destination
    // rebuilt the exact same tables from the journal.
    serveRound(*service_, client, 2, 6);
    EXPECT_EQ(client.failures(), 0u);
}

TEST_P(GatewayMigration, PreMigrationTrafficIsRefusedAfterTheMove)
{
    ASSERT_TRUE(service_->addTenant(3, Workload::Echo).isOk());
    serve::TenantClient client(3, Workload::Echo,
                               service_->sessionKeyFor(3));
    serveRound(*service_, client, 3, 3);

    // Capture a request sealed before the move (seq 4), serve it once,
    // then migrate and replay the capture. The snapshot carries the
    // replay high-water mark, so the destination must refuse it —
    // NESGX_BUG_MIGRATE_REPLAY (skipping that restore) accepts it and
    // fails exactly this assertion.
    Bytes captured = client.nextRequest();
    ASSERT_TRUE(service_->submit(3, Bytes(captured)).isOk());
    service_->pump();
    for (auto& done : service_->drain()) {
        EXPECT_TRUE(client.onResponse(done.sealedResponse));
    }

    ASSERT_TRUE(engine_.migrateToGateway(*service_, 3).isOk());

    ASSERT_TRUE(service_->submit(3, std::move(captured)).isOk());
    service_->pump();
    auto done = service_->drain();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_FALSE(done[0].ok) << "stale pre-migration seal accepted: "
                                "replay window did not survive the move";
    EXPECT_TRUE(done[0].sealedResponse.empty());

    // And the session itself still works past the refused replay.
    serveRound(*service_, client, 3, 2);
    EXPECT_EQ(client.failures(), 0u);
}

TEST_P(GatewayMigration, ImportFaultRollsBackAndSourceKeepsServing)
{
    ASSERT_TRUE(service_->addTenant(4, Workload::Echo).isOk());
    serve::TenantClient client(4, Workload::Echo,
                               service_->sessionKeyFor(4));
    serveRound(*service_, client, 4, 3);

    arm("migrate-import-fail@n=1");
    const auto before = service_->registry().find(4)->gatewayIndex;
    const auto gateways = service_->registry().gatewayCount();

    EXPECT_FALSE(engine_.migrateToGateway(*service_, 4).isOk());
    EXPECT_EQ(engine_.stats().aborted, 1u);
    EXPECT_EQ(engine_.stats().rolledBack, 1u);
    EXPECT_EQ(engine_.stats().gatewayMoves, 0u);

    // Source untouched: same gateway, staged slot abandoned, and the
    // session serves on without any reseal.
    EXPECT_EQ(service_->registry().find(4)->gatewayIndex, before);
    EXPECT_GE(service_->registry().gatewayCount(), gateways);
    serveRound(*service_, client, 4, 3);
    EXPECT_EQ(client.failures(), 0u);
}

TEST_P(GatewayMigration, ExportFaultAbortsBeforeAnyStaging)
{
    ASSERT_TRUE(service_->addTenant(5, Workload::Echo).isOk());
    serve::TenantClient client(5, Workload::Echo,
                               service_->sessionKeyFor(5));
    serveRound(*service_, client, 5, 2);

    arm("migrate-export-fail@n=1");

    EXPECT_FALSE(engine_.migrateToGateway(*service_, 5).isOk());
    EXPECT_EQ(engine_.stats().aborted, 1u);
    EXPECT_EQ(engine_.stats().rolledBack, 0u);  // nothing was staged
    serveRound(*service_, client, 5, 2);
    EXPECT_EQ(client.failures(), 0u);
}

TEST_P(GatewayMigration, MoveSkipsTheSlotOfAnInnerlessTenant)
{
    // Three slots per gateway: A, B and C fill gateway 0, then C moves
    // to a fresh gateway 1, leaving gateway 0 with A (slot 0), B (slot
    // 1) and slot 2 free.
    auto sc = attestedConfig();
    sc.registry.tenantsPerOuter = 3;
    service_ = std::make_unique<serve::TenantService>(*world_->urts, sc);
    const TenantId a = 1, b = 2, c = 3;
    for (TenantId id : {a, b, c}) {
        ASSERT_TRUE(service_->addTenant(id, Workload::Echo).isOk());
    }
    serve::TenantClient clientC(c, Workload::Echo,
                                service_->sessionKeyFor(c));
    ASSERT_TRUE(engine_.migrateToGateway(*service_, c).isOk());
    serve::TenantRegistry& registry = service_->registry();
    ASSERT_EQ(registry.find(c)->gatewayIndex, 1u);

    // A's rebuild fails once: A is inner-less but still owns slot 0.
    serve::TenantHandle& tenantA = *registry.find(a);
    arm("ecreate-fail@n=1");
    ASSERT_FALSE(service_->pool().rebuildTenant(tenantA).isOk());
    ASSERT_EQ(tenantA.inner, nullptr);

    // C moves back into gateway 0 and must take the free slot.
    ASSERT_TRUE(engine_.migrateToGateway(*service_, c, 0).isOk());
    EXPECT_EQ(registry.find(c)->gatewayIndex, 0u);
    EXPECT_EQ(registry.find(c)->slot, 2u);

    // Once A is rebuilt both serve verified responses. Had C taken
    // slot 0, A's rebuild would have overwritten it and C's requests
    // would reach A's inner (SealRejected).
    ASSERT_TRUE(service_->pool().rebuildTenant(tenantA).isOk());
    serve::TenantClient clientA(a, Workload::Echo,
                                service_->sessionKeyFor(a));
    serveRound(*service_, clientA, a, 3);
    serveRound(*service_, clientC, c, 3);
    EXPECT_EQ(clientA.failures() + clientC.failures(), 0u);
}

INSTANTIATE_TEST_SUITE_P(TlbModes, GatewayMigration, ::testing::Bool(),
                         [](const auto& info) {
                             return info.param ? "taggedTlb" : "flushTlb";
                         });

/** Counts ServeTenantMigrate events and their host/gateway flavor. */
struct MigrateSink : trace::TraceSink {
    std::uint64_t gatewayMoves = 0;
    std::uint64_t hostMoves = 0;
    void onEvent(const trace::TraceEvent& event) override
    {
        if (event.kind != trace::EventKind::ServeTenantMigrate) return;
        if (event.arg1 == 0) ++gatewayMoves;
        else ++hostMoves;
    }
};

class HostMigration : public ::testing::TestWithParam<bool> {
  protected:
    void SetUp() override
    {
        auto config = World::smallConfig();
        config.taggedTlb = GetParam();
        worldA_ = std::make_unique<World>(config);
        config.rngSeed = 99;  // genuinely different root of trust
        worldB_ = std::make_unique<World>(config);
        serviceA_ = std::make_unique<serve::TenantService>(
            *worldA_->urts, attestedConfig());
        serviceB_ = std::make_unique<serve::TenantService>(
            *worldB_->urts, attestedConfig());
        fleet_.addHost(*serviceA_);
        fleet_.addHost(*serviceB_);
    }

    void armOnB(const std::string& spec)
    {
        auto plan = fault::FaultPlan::parse(spec);
        ASSERT_TRUE(plan.isOk()) << spec;
        injector_ =
            std::make_unique<fault::FaultInjector>(plan.value(), 1);
        worldB_->machine.setFaultInjector(injector_.get());
    }

    std::unique_ptr<World> worldA_;
    std::unique_ptr<World> worldB_;
    std::unique_ptr<serve::TenantService> serviceA_;
    std::unique_ptr<serve::TenantService> serviceB_;
    std::unique_ptr<fault::FaultInjector> injector_;
    migrate::Fleet fleet_;
    migrate::MigrationEngine engine_;
};

TEST_P(HostMigration, SessionSurvivesAcrossMachines)
{
    ASSERT_TRUE(fleet_.addTenant(1, Workload::Sql, 0).isOk());
    serve::TenantClient client(1, Workload::Sql,
                               serviceA_->sessionKeyFor(1));
    auto fleetRound = [&](int n) {
        for (int i = 0; i < n; ++i) {
            ASSERT_TRUE(fleet_.submit(1, client.nextRequest()).isOk());
        }
        fleet_.pumpAll();
        std::uint64_t verified = 0;
        for (auto& done : fleet_.drainAll()) {
            if (client.onResponse(done.sealedResponse)) ++verified;
        }
        ASSERT_EQ(verified, std::uint64_t(n));
    };
    fleetRound(6);

    MigrateSink sink;
    worldB_->machine.trace().subscribe(&sink);
    ASSERT_TRUE(fleet_.migrateAcross(engine_, 1, 1).isOk());
    worldB_->machine.trace().unsubscribe(&sink);

    // Routing flipped, the source forgot the tenant, the destination
    // owns it (attested under its own trust path), and the event
    // stream records a host move.
    EXPECT_EQ(fleet_.hostIndexOf(1), 1u);
    EXPECT_EQ(serviceA_->registry().find(1), nullptr);
    ASSERT_NE(serviceB_->registry().find(1), nullptr);
    EXPECT_TRUE(serviceB_->registry().find(1)->verified);
    EXPECT_EQ(engine_.stats().hostMoves, 1u);
    EXPECT_EQ(sink.hostMoves, 1u);

    // Same client object, same key, same sequence counter — the sql
    // journal replayed on machine B, so SELECTs keep matching the
    // client's shadow database.
    fleetRound(6);
    EXPECT_EQ(client.failures(), 0u);
}

TEST_P(HostMigration, QueuedRequestsTravelWithTheTenant)
{
    ASSERT_TRUE(fleet_.addTenant(2, Workload::Echo, 0).isOk());
    serve::TenantClient client(2, Workload::Echo,
                               serviceA_->sessionKeyFor(2));
    // Enqueue without pumping: the move must carry the backlog.
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(fleet_.submit(2, client.nextRequest()).isOk());
    }
    ASSERT_TRUE(fleet_.migrateAcross(engine_, 2, 1).isOk());
    EXPECT_EQ(engine_.stats().requeued, 4u);

    fleet_.pumpAll();
    std::uint64_t verified = 0;
    for (auto& done : fleet_.drainAll()) {
        if (client.onResponse(done.sealedResponse)) ++verified;
    }
    EXPECT_EQ(verified, 4u);
    EXPECT_EQ(client.failures(), 0u);
}

TEST_P(HostMigration, DestinationImportFaultLeavesSourceAuthoritative)
{
    ASSERT_TRUE(fleet_.addTenant(3, Workload::Echo, 0).isOk());
    serve::TenantClient client(3, Workload::Echo,
                               serviceA_->sessionKeyFor(3));

    armOnB("migrate-import-fail@n=1");

    EXPECT_FALSE(fleet_.migrateAcross(engine_, 3, 1).isOk());
    EXPECT_EQ(engine_.stats().rolledBack, 1u);
    EXPECT_EQ(fleet_.hostIndexOf(3), 0u);
    EXPECT_EQ(serviceB_->registry().find(3), nullptr);
    ASSERT_NE(serviceA_->registry().find(3), nullptr);

    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(fleet_.submit(3, client.nextRequest()).isOk());
    }
    fleet_.pumpAll();
    std::uint64_t verified = 0;
    for (auto& done : fleet_.drainAll()) {
        if (client.onResponse(done.sealedResponse)) ++verified;
    }
    EXPECT_EQ(verified, 3u);
}

TEST_P(HostMigration, RebuildOnTheDestinationKeepsTheClientsSession)
{
    ASSERT_TRUE(fleet_.addTenant(4, Workload::Echo, 0).isOk());
    const Bytes sourceKey = serviceA_->sessionKeyFor(4);
    ASSERT_FALSE(sourceKey.empty());
    serve::TenantClient client(4, Workload::Echo, sourceKey);
    ASSERT_TRUE(fleet_.migrateAcross(engine_, 4, 1).isOk());
    serveRound(*serviceB_, client, 4, 1);
    // The destination hands out the key its inner serves with: the
    // source's, not one derived from this host's seal identity.
    EXPECT_EQ(serviceB_->sessionKeyFor(4), sourceKey);

    // A rebuild here restores that key from the blob the inner sealed
    // at import, so the client only restarts its sequence.
    serve::TenantHandle* tenant = serviceB_->registry().find(4);
    ASSERT_NE(tenant, nullptr);
    ASSERT_TRUE(serviceB_->pool().rebuildTenant(*tenant).isOk());
    client.onTenantRebuilt();
    serveRound(*serviceB_, client, 4, 1);
    EXPECT_EQ(serviceB_->sessionKeyFor(4), sourceKey);
    EXPECT_EQ(client.failures(), 0u);
}

/** The signed identity of an image, copied at onboarding. */
struct SignedIdentity {
    explicit SignedIdentity(const sdk::SignedEnclave& image)
        : body(image.sigstruct.signedBody()),
          signature(image.sigstruct.signature),
          mrenclave(image.mrenclave)
    {
    }
    Bytes body;
    Bytes signature;
    sgx::Measurement mrenclave;
};

/** The tenant's live inner is a load of the image its record holds, and
 *  that image still carries the identity it was signed with. */
void
expectRecordImageLoaded(World& world, const serve::TenantHandle& tenant,
                        const SignedIdentity& signedAt)
{
    ASSERT_NE(tenant.inner, nullptr);
    EXPECT_EQ(&tenant.inner->image(), tenant.image.get());
    EXPECT_EQ(tenant.image->sigstruct.signedBody(), signedAt.body);
    EXPECT_EQ(tenant.image->sigstruct.signature, signedAt.signature);
    EXPECT_EQ(tenant.inner->mrenclave(), signedAt.mrenclave);
    // EINIT measured this load and found the signed MRENCLAVE.
    EXPECT_EQ(world.machine.secsAt(tenant.inner->secsPage())->mrenclave,
              signedAt.mrenclave);
}

TEST_P(HostMigration, RebuildsAndMovesLoadTheImageSignedAtOnboarding)
{
    ASSERT_TRUE(fleet_.addTenant(5, Workload::Sql, 0).isOk());
    serve::TenantRegistry& registryA = serviceA_->registry();
    serve::TenantHandle* tenant = registryA.find(5);
    const sdk::SignedEnclave* image = tenant->image.get();
    const SignedIdentity onboarded(*image);
    expectRecordImageLoaded(*worldA_, *tenant, onboarded);

    ASSERT_TRUE(serviceA_->pool().rebuildTenant(*tenant).isOk());
    expectRecordImageLoaded(*worldA_, *tenant, onboarded);

    ASSERT_TRUE(engine_.migrateToGateway(*serviceA_, 5).isOk());
    expectRecordImageLoaded(*worldA_, *tenant, onboarded);

    // A subtree rebuild reloads the gateway's own image as well.
    const std::size_t gateway = tenant->gatewayIndex;
    const sdk::SignedEnclave* gatewayImage =
        &registryA.gatewayOuter(gateway)->image();
    const SignedIdentity gatewaySigned(*gatewayImage);
    ASSERT_TRUE(serviceA_->pool().rebuildSubtree(gateway).isOk());
    expectRecordImageLoaded(*worldA_, *tenant, onboarded);
    const sdk::LoadedEnclave* outer = registryA.gatewayOuter(gateway);
    EXPECT_EQ(&outer->image(), gatewayImage);
    EXPECT_EQ(outer->image().sigstruct.signature, gatewaySigned.signature);
    EXPECT_EQ(worldA_->machine.secsAt(outer->secsPage())->mrenclave,
              gatewaySigned.mrenclave);

    // The image travels with a host move; the destination signs nothing.
    ASSERT_TRUE(fleet_.migrateAcross(engine_, 5, 1).isOk());
    serve::TenantHandle* moved = serviceB_->registry().find(5);
    ASSERT_NE(moved, nullptr);
    EXPECT_EQ(moved->image.get(), image);
    expectRecordImageLoaded(*worldB_, *moved, onboarded);
}

TEST_P(HostMigration, HostMoveLatencyCountsBothMachines)
{
    ASSERT_TRUE(fleet_.addTenant(6, Workload::Echo, 0).isOk());
    const std::uint64_t srcBefore = worldA_->machine.clock().cycles();
    const std::uint64_t dstBefore = worldB_->machine.clock().cycles();
    ASSERT_TRUE(fleet_.migrateAcross(engine_, 6, 1).isOk());
    const std::uint64_t srcAdvance =
        worldA_->machine.clock().cycles() - srcBefore;
    const std::uint64_t dstAdvance =
        worldB_->machine.clock().cycles() - dstBefore;

    // Onboarding, attestation, the import and the session-key sealing
    // run on the destination's clock; export and retirement on the
    // source's. The move's one sample is both.
    EXPECT_GT(srcAdvance, 0u);
    EXPECT_GT(dstAdvance, 0u);
    ASSERT_EQ(engine_.stats().latency.count(), 1u);
    EXPECT_EQ(engine_.stats().latency.max(), srcAdvance + dstAdvance);
}

INSTANTIATE_TEST_SUITE_P(TlbModes, HostMigration, ::testing::Bool(),
                         [](const auto& info) {
                             return info.param ? "taggedTlb" : "flushTlb";
                         });

/** Two hosts whose breakers open on one failed batch and stay open for
 *  longer than any test runs. */
class BreakerMigration : public ::testing::TestWithParam<bool> {};

TEST_P(BreakerMigration, TenantMovedAwayAndBackStartsWithAClosedBreaker)
{
    auto config = World::smallConfig();
    config.taggedTlb = GetParam();
    World worldA(config);
    config.rngSeed = 99;
    World worldB(config);
    auto sc = attestedConfig();
    sc.pool.breakerThreshold = 1;
    sc.pool.breakerCooldownCycles = std::uint64_t(1) << 50;
    serve::TenantService hostA(*worldA.urts, sc);
    serve::TenantService hostB(*worldB.urts, sc);
    migrate::MigrationEngine engine;

    ASSERT_TRUE(hostA.addTenant(1, Workload::Echo).isOk());
    serve::TenantClient client(1, Workload::Echo, hostA.sessionKeyFor(1));

    // Every EENTER refused: the batch fails after its retries and opens
    // the tenant's breaker on host A.
    {
        auto plan =
            fault::FaultPlan::parse("eenter-fail@every=1").orThrow("plan");
        fault::FaultInjector injector(plan, 1);
        worldA.machine.setFaultInjector(&injector);
        ASSERT_TRUE(hostA.submit(1, client.nextRequest()).isOk());
        hostA.pump();
        worldA.machine.setFaultInjector(nullptr);
    }
    for (auto& done : hostA.drain()) {
        EXPECT_EQ(done.error(), Err::GeneralProtection);
        client.onDropped();
    }
    ASSERT_TRUE(hostA.registry().find(1)->breaker.open);

    // Away to host B and back. Each move onboards a new instance at the
    // destination; the breaker the old instance opened on host A must not
    // come back with the tenant.
    ASSERT_TRUE(engine.migrateToHost(hostA, hostB, 1).isOk());
    ASSERT_TRUE(engine.migrateToHost(hostB, hostA, 1).isOk());
    EXPECT_FALSE(hostA.registry().find(1)->breaker.open);
    serveRound(hostA, client, 1, 2);
    EXPECT_EQ(client.failures(), 0u);
}

INSTANTIATE_TEST_SUITE_P(TlbModes, BreakerMigration, ::testing::Bool(),
                         [](const auto& info) {
                             return info.param ? "taggedTlb" : "flushTlb";
                         });

}  // namespace
}  // namespace nesgx::test
