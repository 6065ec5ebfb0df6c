/**
 * Fault-injection layer tests: trigger semantics, spec parsing,
 * determinism of seeded schedules, and the machine-level hook points
 * (refused leaves, EPC allocator failures, trace accounting, and the
 * zero-overhead null-injector contract).
 */
#include <gtest/gtest.h>

#include "fault/injector.h"
#include "harness.h"

namespace nesgx::test {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;
using fault::FaultSite;
using fault::Trigger;

// ------------------------------------------------------------- triggers

TEST(FaultTrigger, NthFiresExactlyOnce)
{
    FaultPlan plan;
    plan.set(FaultSite::ElduFail, Trigger::nth(3));
    FaultInjector inj(plan, 1);
    std::vector<bool> fired;
    for (int i = 0; i < 10; ++i) {
        fired.push_back(inj.shouldInject(FaultSite::ElduFail));
    }
    const std::vector<bool> want = {false, false, true,  false, false,
                                    false, false, false, false, false};
    EXPECT_EQ(fired, want);
    EXPECT_EQ(inj.occurrences(FaultSite::ElduFail), 10u);
    EXPECT_EQ(inj.injected(FaultSite::ElduFail), 1u);
    EXPECT_EQ(inj.totalInjected(), 1u);
}

TEST(FaultTrigger, EveryKFiresAtMultiples)
{
    FaultPlan plan;
    plan.set(FaultSite::EenterFail, Trigger::every(4));
    FaultInjector inj(plan, 1);
    std::uint64_t hits = 0;
    for (int i = 1; i <= 12; ++i) {
        const bool fire = inj.shouldInject(FaultSite::EenterFail);
        EXPECT_EQ(fire, i % 4 == 0) << "occurrence " << i;
        hits += fire;
    }
    EXPECT_EQ(hits, 3u);
    EXPECT_EQ(inj.injected(FaultSite::EenterFail), 3u);
}

TEST(FaultTrigger, ProbabilityIsSeedDeterministic)
{
    FaultPlan plan;
    plan.set(FaultSite::AexStorm, Trigger::probability(0.5));

    auto schedule = [&](std::uint64_t seed) {
        FaultInjector inj(plan, seed);
        std::vector<bool> fired;
        for (int i = 0; i < 256; ++i) {
            fired.push_back(inj.shouldInject(FaultSite::AexStorm));
        }
        return fired;
    };
    auto a1 = schedule(42);
    auto a2 = schedule(42);
    auto b = schedule(43);
    EXPECT_EQ(a1, a2);       // same seed -> identical schedule
    EXPECT_NE(a1, b);        // different seed -> different schedule
    std::uint64_t hits = 0;
    for (bool f : a1) hits += f;
    EXPECT_GT(hits, 64u);    // p=0.5 over 256 draws: nowhere near 0...
    EXPECT_LT(hits, 192u);   // ...or saturation
}

TEST(FaultTrigger, UnarmedSitesNeverFire)
{
    FaultPlan plan;
    plan.set(FaultSite::ElduFail, Trigger::nth(1));
    FaultInjector inj(plan, 1);
    for (int i = 0; i < 8; ++i) {
        EXPECT_FALSE(inj.shouldInject(FaultSite::EwbCorrupt));
    }
    EXPECT_EQ(inj.occurrences(FaultSite::EwbCorrupt), 8u);
    EXPECT_EQ(inj.injected(FaultSite::EwbCorrupt), 0u);
}

TEST(FaultTrigger, DisarmSuppressesButKeepsCounting)
{
    FaultPlan plan;
    plan.set(FaultSite::EwbCorrupt, Trigger::every(2));
    FaultInjector inj(plan, 1);
    inj.disarm();
    for (int i = 0; i < 6; ++i) {
        EXPECT_FALSE(inj.shouldInject(FaultSite::EwbCorrupt));
    }
    EXPECT_EQ(inj.occurrences(FaultSite::EwbCorrupt), 6u);
    EXPECT_EQ(inj.injected(FaultSite::EwbCorrupt), 0u);
    // Re-armed: the occurrence counter kept advancing while disarmed, so
    // the next occurrence is #7 and every-2 fires at #8.
    inj.arm();
    EXPECT_FALSE(inj.shouldInject(FaultSite::EwbCorrupt));
    EXPECT_TRUE(inj.shouldInject(FaultSite::EwbCorrupt));
}

// ------------------------------------------------------------- parsing

TEST(FaultPlanParse, RoundTripsThroughDescribe)
{
    auto plan = FaultPlan::parse(
        "ewb-corrupt@n=3; eldu-fail@every=7, aex-storm@p=0.25");
    ASSERT_TRUE(plan);
    EXPECT_EQ(plan.value().trigger(FaultSite::EwbCorrupt).mode,
              Trigger::Mode::Nth);
    EXPECT_EQ(plan.value().trigger(FaultSite::EwbCorrupt).n, 3u);
    EXPECT_EQ(plan.value().trigger(FaultSite::ElduFail).mode,
              Trigger::Mode::EveryK);
    EXPECT_EQ(plan.value().trigger(FaultSite::ElduFail).k, 7u);
    EXPECT_EQ(plan.value().trigger(FaultSite::AexStorm).mode,
              Trigger::Mode::Probability);
    EXPECT_DOUBLE_EQ(plan.value().trigger(FaultSite::AexStorm).p, 0.25);

    auto again = FaultPlan::parse(plan.value().describe());
    ASSERT_TRUE(again);
    EXPECT_EQ(again.value().describe(), plan.value().describe());
}

TEST(FaultPlanParse, RejectsUnknownSiteAndBadTrigger)
{
    EXPECT_EQ(FaultPlan::parse("no-such-site@n=1").status().code(),
              Err::NotFound);
    EXPECT_EQ(FaultPlan::parse("eldu-fail@bogus=1").status().code(),
              Err::BadCallBuffer);
    EXPECT_EQ(FaultPlan::parse("eldu-fail").status().code(),
              Err::BadCallBuffer);
    EXPECT_EQ(FaultPlan::parse("eldu-fail@n=").status().code(),
              Err::BadCallBuffer);
}

TEST(FaultPlanParse, EmptySpecIsEmptyPlan)
{
    auto plan = FaultPlan::parse("");
    ASSERT_TRUE(plan);
    EXPECT_TRUE(plan.value().empty());
}

TEST(FaultPlanParse, SiteNamesRoundTrip)
{
    for (std::size_t s = 0; s < fault::kFaultSiteCount; ++s) {
        const auto site = FaultSite(s);
        FaultSite back;
        ASSERT_TRUE(fault::siteFromName(fault::siteName(site), back))
            << fault::siteName(site);
        EXPECT_EQ(back, site);
    }
    FaultSite out;
    EXPECT_FALSE(fault::siteFromName("not-a-site", out));
}

// ------------------------------------------------------- machine hooks

class FaultHooks : public ::testing::Test {
  protected:
    void SetUp() override
    {
        world_ = std::make_unique<World>();
        auto spec = tinySpec("fault-target");
        spec.interface->addEcall(
            "echo", [](sdk::TrustedEnv&, ByteView arg) -> Result<Bytes> {
                return Bytes(arg.begin(), arg.end());
            });
        // Round-trips the argument through enclave heap memory, so the
        // call performs in-enclave accesses (the aex-storm hook site).
        spec.interface->addEcall(
            "stage",
            [this](sdk::TrustedEnv& env, ByteView arg) -> Result<Bytes> {
                Status st = env.writeBytes(stageVa_, arg);
                if (!st) return st;
                return env.readBytes(stageVa_, arg.size());
            });
        enclave_ = world_->urts->load(sdk::buildImage(spec, authorKey()),
                                      spec.interface)
                       .orThrow("load");
        stageVa_ = enclave_->heap().alloc(128);
    }

    void arm(const std::string& spec, std::uint64_t seed = 1)
    {
        auto plan = FaultPlan::parse(spec);
        ASSERT_TRUE(plan) << spec;
        injector_ = std::make_unique<FaultInjector>(plan.value(), seed);
        world_->machine.setFaultInjector(injector_.get());
    }

    std::unique_ptr<World> world_;
    sdk::LoadedEnclave* enclave_ = nullptr;
    hw::Vaddr stageVa_ = 0;
    std::unique_ptr<FaultInjector> injector_;
};

TEST_F(FaultHooks, NullInjectorNeverFires)
{
    // No injector armed: hooks must be inert and unaccounted.
    EXPECT_EQ(world_->machine.faultInjector(), nullptr);
    EXPECT_FALSE(world_->machine.faultFires(FaultSite::EenterFail));
    auto r = world_->urts->ecall(enclave_, "echo", bytesOf("ping"));
    ASSERT_TRUE(r);
    EXPECT_EQ(world_->machine.trace().counters().faultsInjected, 0u);
}

TEST_F(FaultHooks, EenterFailRefusesOneCallThenRecovers)
{
    arm("eenter-fail@n=1");
    auto refused = world_->urts->ecall(enclave_, "echo", bytesOf("a"));
    EXPECT_EQ(refused.status().code(), Err::GeneralProtection);
    // Nth(1) already consumed: the next call goes through, and the TCS
    // was not left busy by the refused EENTER.
    auto ok = world_->urts->ecall(enclave_, "echo", bytesOf("b"));
    ASSERT_TRUE(ok);
    EXPECT_EQ(ok.value(), bytesOf("b"));
    EXPECT_EQ(injector_->injected(FaultSite::EenterFail), 1u);
    EXPECT_EQ(world_->machine.trace().counters().faultsInjected, 1u);
}

TEST_F(FaultHooks, EpcAllocFailSurfacesAsOsError)
{
    arm("epc-alloc-fail@n=1");
    auto spec = tinySpec("second");
    auto image = sdk::buildImage(spec, authorKey());
    auto r = world_->urts->load(image, spec.interface);
    EXPECT_FALSE(r);
    EXPECT_EQ(r.status().code(), Err::OsError);
    EXPECT_EQ(injector_->injected(FaultSite::EpcAllocFail), 1u);
    // Consumed: a retry of the same load succeeds.
    auto retry = world_->urts->load(image, spec.interface);
    ASSERT_TRUE(retry);
}

TEST_F(FaultHooks, EcreateFailRefusesLoad)
{
    arm("ecreate-fail@n=1");
    auto spec = tinySpec("third");
    auto image = sdk::buildImage(spec, authorKey());
    auto r = world_->urts->load(image, spec.interface);
    EXPECT_FALSE(r);
    EXPECT_EQ(r.status().code(), Err::GeneralProtection);
}

TEST_F(FaultHooks, AexStormIsTransparentToTheCall)
{
    // Fire a spurious AEX+ERESUME on every in-enclave access: the call
    // still round-trips correctly, it just pays the interrupt cost.
    arm("aex-storm@every=1");
    auto r = world_->urts->ecall(enclave_, "stage", bytesOf("storm"));
    ASSERT_TRUE(r);
    EXPECT_EQ(r.value(), bytesOf("storm"));
    EXPECT_GT(injector_->injected(FaultSite::AexStorm), 0u);
}

}  // namespace
}  // namespace nesgx::test
