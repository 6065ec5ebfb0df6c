/**
 * Tier-1 wrapper around the orderliness checker (src/check): a fixed
 * seed corpus of randomized ENCLS/ENCLU interleavings, each step
 * cross-checked against the §VII-A invariant oracle, in both TLB
 * configurations. A failure prints the shrunk minimal reproducer so the
 * offending leaf sequence can be replayed by hand.
 */
#include <gtest/gtest.h>

#include "check/sequence.h"

namespace nesgx::check {
namespace {

class Orderliness : public ::testing::TestWithParam<bool> {};

/** The full op set over a fixed seed corpus: the DeepChain composite
 *  parks 2- to 4-deep nests in savedFrames every few steps (feeding the
 *  SavedChainValidity rule) and SwitchlessPostDrain cycles a DescRing
 *  past capacity (feeding TraceSwitchlessPairing). */
TEST_P(Orderliness, FixedSeedCorpusHoldsInvariants)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        RunConfig config;
        config.seed = seed;
        config.steps = 240;
        config.taggedTlb = GetParam();
        auto failure = runSeed(config);
        if (failure) {
            RunFailure shrunk = shrinkFailure(*failure);
            FAIL() << formatFailure(shrunk);
        }
    }
}

/** The depth corpus (seeds 1-8): with no op tiers left, the generator's
 *  full op set must itself land DeepChain composites — each a 2- to
 *  4-deep nest parked in savedFrames, feeding SavedChainValidity — and
 *  the invariants must hold across the corpus. A generator that stopped
 *  drawing the depth composite would leave that rule unexercised while
 *  the corpus still passed, so the parked nests are counted. */
TEST_P(Orderliness, DepthOpsCorpusHoldsInvariants)
{
    int parkedNests = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        CheckWorld::Config wc;
        wc.taggedTlb = GetParam();
        CheckWorld world(wc);
        SequenceGen gen(seed);
        for (int i = 0; i < 240; ++i) {
            Step step = gen.next(world);
            Status st = world.apply(step);
            if (step.op == Op::DeepChain && st.isOk()) ++parkedNests;
        }

        RunConfig config;
        config.seed = seed;
        config.steps = 240;
        config.taggedTlb = GetParam();
        auto failure = runSeed(config);
        if (failure) {
            RunFailure shrunk = shrinkFailure(*failure);
            FAIL() << formatFailure(shrunk);
        }
    }
    EXPECT_GT(parkedNests, 0);
}

/** A hand-written DeepChain step (odd index = the third hop is
 *  legitimately associated) parks a full depth-3 nest; the saved chain
 *  must satisfy SavedChainValidity, and a later teardown must replay
 *  violation-free. */
TEST_P(Orderliness, DeepChainCompositeReplaysClean)
{
    std::vector<Step> steps;
    // The composite builds root A and mid B itself; the leaf must
    // already exist for the third hop to fire. index=5: leaf slot 5%3=2
    // (C), odd -> C is associated under B before the hop, so the parked
    // nest is the legitimate depth-3 chain A -> B -> C.
    steps.push_back({Op::Build, 0, 2, 0, 0});
    steps.push_back({Op::DeepChain, 0, 0, 1, 5});
    // The nest is parked; resume it and unwind completely.
    steps.push_back({Op::Eresume, 0, 0, 0, 0});
    steps.push_back({Op::Neexit, 0, 0, 0, 0});
    steps.push_back({Op::Neexit, 0, 0, 0, 0});
    steps.push_back({Op::Eexit, 0, 0, 0, 0});

    auto violation = replay(steps, GetParam());
    ASSERT_FALSE(violation.has_value())
        << ruleName(violation->rule) << ": " << violation->message;
}

/** index=23 (leaf 23%3=2, bits 0..2 = associated third hop, fourth hop
 *  requested, hostile fourth hop): the depth enclave exists but has no
 *  association edge to the leaf, so the transition layer must refuse
 *  the depth-3->4 descent and the parked nest stays the legitimate
 *  depth-3 chain. A transition layer that stops validating adjacency
 *  past the served depth would park a 4-frame chain with a missing edge
 *  — exactly what SavedChainValidity flags. */
TEST_P(Orderliness, DeepChainHostileFourthHopRefusedAndReplaysClean)
{
    std::vector<Step> steps;
    steps.push_back({Op::Build, 0, 2, 0, 0});
    steps.push_back({Op::DeepChain, 0, 0, 1, 23});
    steps.push_back({Op::Eresume, 0, 0, 0, 0});
    steps.push_back({Op::Neexit, 0, 0, 0, 0});
    steps.push_back({Op::Neexit, 0, 0, 0, 0});
    steps.push_back({Op::Eexit, 0, 0, 0, 0});

    auto violation = replay(steps, GetParam());
    ASSERT_FALSE(violation.has_value())
        << ruleName(violation->rule) << ": " << violation->message;
}

/** index=11 (leaf 11%3=2, associated third hop + legitimate fourth
 *  hop): DeepChain lazily builds the fourth "chk-d" enclave, associates
 *  it under the leaf and descends to depth 4 — one level past anything
 *  the serving topology (host -> gateway -> tenant) ever nests. Driven
 *  against a live world (not replay) so the test can positively assert
 *  the resumed nest really is 4 frames deep — a vacuous pass where the
 *  fourth hop silently refused would show depth 3. The parked 4-frame
 *  chain must satisfy SavedChainValidity edge by edge, and the full
 *  unwind (ERESUME + three NEEXITs + EEXIT) must hold every invariant
 *  at every step. */
TEST_P(Orderliness, DeepChainDepthFourParksAndUnwindsClean)
{
    CheckWorld::Config wc;
    wc.taggedTlb = GetParam();
    CheckWorld world(wc);
    InvariantOracle oracle;
    auto applyOk = [&](Step s) {
        Status st = world.apply(s);
        ASSERT_TRUE(st.isOk()) << opName(s.op) << ": " << errName(st.code());
        auto v = oracle.check(world.machine(), world.kernel(),
                              world.orphans());
        ASSERT_FALSE(v.has_value()) << ruleName(v->rule) << ": " << v->message;
    };

    applyOk({Op::Build, 0, 2, 0, 0});
    applyOk({Op::DeepChain, 0, 0, 1, 11});
    ASSERT_EQ(world.coreDepth(0), 0u);  // whole nest parked by the AEX
    applyOk({Op::Eresume, 0, 0, 0, 0});
    ASSERT_EQ(world.coreDepth(0), 4u);  // A -> B -> C -> chk-d
    applyOk({Op::Neexit, 0, 0, 0, 0});
    applyOk({Op::Neexit, 0, 0, 0, 0});
    applyOk({Op::Neexit, 0, 0, 0, 0});
    applyOk({Op::Eexit, 0, 0, 0, 0});
    ASSERT_EQ(world.coreDepth(0), 0u);
}

/** Deterministic smoke of the machinery itself: a hand-written sequence
 *  that builds, nests, AEXes and resumes must replay violation-free. */
TEST_P(Orderliness, HandWrittenNestSequenceReplaysClean)
{
    std::vector<Step> steps;
    // Build slots A and B completely, associate B inside A.
    for (std::uint8_t slot = 0; slot < 2; ++slot) {
        steps.push_back({Op::Create, 0, slot, 0, 0});
        auto pageCount = CheckWorld::image(slot).pages.size();
        for (std::size_t i = 0; i < pageCount; ++i) {
            steps.push_back({Op::AddPage, 0, slot, 0, 0});
        }
        steps.push_back({Op::Init, 0, slot, 0, 0});
    }
    steps.push_back({Op::Associate, 0, 1, 0, 0});  // inner=B, outer=A
    // Enter the nest, AEX, resume, unwind, tear down.
    steps.push_back({Op::Eenter, 1, 0, 0, 0});
    steps.push_back({Op::Neenter, 1, 1, 0, 0});
    steps.push_back({Op::Aex, 1, 0, 0, 0});
    steps.push_back({Op::Eresume, 1, 0, 0, 0});
    steps.push_back({Op::Neexit, 1, 0, 0, 0});
    steps.push_back({Op::Eexit, 1, 0, 0, 0});
    steps.push_back({Op::Destroy, 0, 1, 0, 0});
    steps.push_back({Op::Destroy, 0, 0, 0, 0});

    auto violation = replay(steps, GetParam());
    ASSERT_FALSE(violation.has_value())
        << ruleName(violation->rule) << ": " << violation->message;
}

INSTANTIATE_TEST_SUITE_P(TlbModes, Orderliness, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                             return info.param ? "taggedTlb" : "flushTlb";
                         });

}  // namespace
}  // namespace nesgx::check
