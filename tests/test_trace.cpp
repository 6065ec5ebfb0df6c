/**
 * Trace-bus tests: sink subscription lifecycle, ring-buffer wraparound,
 * event ordering across a full EENTER→NEENTER→AEX→ERESUME→NEEXIT→EEXIT
 * nest, counter/event equivalence on a fixed orderliness corpus (both
 * TLB modes, golden values from the pre-bus inline-counter era), the
 * trace-level oracle rules, log routing, and Chrome-trace JSON sanity.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "check/check_world.h"
#include "check/oracle.h"
#include "check/sequence.h"
#include "harness.h"
#include "support/logging.h"
#include "trace/chrome_sink.h"
#include "trace/counting_sink.h"
#include "trace/ring_sink.h"

namespace nesgx::test {
namespace {

using trace::EventKind;
using trace::Leaf;
using trace::TraceBus;
using trace::TraceEvent;

TraceEvent
event(EventKind kind, hw::CoreId core = trace::kNoCore, std::uint64_t eid = 0,
      std::uint64_t arg0 = 0)
{
    TraceEvent ev;
    ev.kind = kind;
    ev.core = core;
    ev.eid = eid;
    ev.arg0 = arg0;
    return ev;
}

TraceEvent
leafExitOk(Leaf leaf, hw::CoreId core, std::uint64_t arg0)
{
    TraceEvent ev = event(EventKind::LeafExit, core, 0, arg0);
    ev.leaf = leaf;
    return ev;
}

// ------------------------------------------------------------------ TraceBus

TEST(TraceBus, SubscribeUnsubscribeLifecycle)
{
    TraceBus bus;
    trace::CountingSink counting;
    EXPECT_FALSE(bus.active());
    EXPECT_EQ(bus.sinkCount(), 0u);

    bus.publish(event(EventKind::TlbFlush, 0));
    EXPECT_EQ(counting.total(), 0u);
    EXPECT_EQ(bus.counters().tlbFlushes, 1u);  // counters run sink-free

    bus.subscribe(&counting);
    EXPECT_TRUE(bus.active());
    bus.subscribe(&counting);  // duplicate attach is a no-op
    EXPECT_EQ(bus.sinkCount(), 1u);

    bus.publish(event(EventKind::TlbFlush, 0));
    EXPECT_EQ(counting.count(EventKind::TlbFlush), 1u);
    EXPECT_EQ(bus.counters().tlbFlushes, 2u);

    bus.unsubscribe(&counting);
    EXPECT_FALSE(bus.active());
    trace::CountingSink stranger;
    bus.unsubscribe(&stranger);  // unknown sink: ignored

    bus.publish(event(EventKind::TlbFlush, 0));
    EXPECT_EQ(counting.count(EventKind::TlbFlush), 1u);
    EXPECT_EQ(bus.counters().tlbFlushes, 3u);
}

TEST(TraceBus, InactiveBusSkipsNonCountingEvents)
{
    TraceBus bus;
    // leafEnter and publishIfActive exist purely for subscribers; with
    // none attached they must not disturb the counters.
    bus.leafEnter(Leaf::Eenter, 0, 1, 0x1000);
    bus.publishIfActive(event(EventKind::OsSchedule, 0));
    trace::StatsCounters zero;
    EXPECT_EQ(0, std::memcmp(&zero, &bus.counters(), sizeof(zero)));
}

TEST(TraceBus, ResetCountersKeepsSinksAttached)
{
    TraceBus bus;
    trace::CountingSink counting;
    bus.subscribe(&counting);
    bus.publish(event(EventKind::TlbMiss, 0));
    bus.resetCounters();
    EXPECT_EQ(bus.counters().tlbMisses, 0u);
    EXPECT_EQ(bus.sinkCount(), 1u);
    bus.publish(event(EventKind::TlbMiss, 0));
    EXPECT_EQ(bus.counters().tlbMisses, 1u);
    EXPECT_EQ(counting.count(EventKind::TlbMiss), 2u);
    bus.unsubscribe(&counting);
}

// ------------------------------------------------------------ RingBufferSink

TEST(RingBufferSink, WraparoundKeepsNewestAndCountsDrops)
{
    TraceBus bus;
    trace::RingBufferSink ring(4);
    bus.subscribe(&ring);
    for (std::uint64_t i = 0; i < 10; ++i) {
        bus.publish(event(EventKind::Ipi, 0, 0, i));
    }
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.dropped(), 6u);
    EXPECT_EQ(ring.firstSeq(), 6u);
    EXPECT_EQ(ring.nextSeq(), 10u);
    std::uint64_t expect = 6;
    for (const auto& record : ring.records()) {
        EXPECT_EQ(record.seq, expect);
        EXPECT_EQ(record.event.arg0, expect);
        ++expect;
    }
    // consumeFrom resumes mid-ring and returns the next cursor.
    std::uint64_t seen = 0;
    std::uint64_t cursor = ring.consumeFrom(8, [&](const auto&) { ++seen; });
    EXPECT_EQ(seen, 2u);
    EXPECT_EQ(cursor, 10u);
    // clear() drops contents but keeps the sequence counter running.
    ring.clear();
    EXPECT_EQ(ring.size(), 0u);
    bus.publish(event(EventKind::Ipi, 0));
    EXPECT_EQ(ring.firstSeq(), 10u);
    bus.unsubscribe(&ring);
}

TEST(RingBufferSink, CopiesBorrowedText)
{
    TraceBus bus;
    trace::RingBufferSink ring;
    bus.subscribe(&ring);
    {
        std::string name = "transient_call_name";
        TraceEvent ev = event(EventKind::SdkEcallBegin, 0);
        ev.text = name.c_str();
        bus.publish(ev);
    }
    ASSERT_EQ(ring.size(), 1u);
    EXPECT_EQ(ring.records().front().text, "transient_call_name");
    EXPECT_EQ(ring.records().front().event.text, nullptr);
    bus.unsubscribe(&ring);
}

// ------------------------------------------------- full-nest event ordering

class TraceNest : public ::testing::TestWithParam<bool> {};

hw::Paddr
firstTcs(World& world, const sdk::LoadedEnclave* enclave)
{
    const auto* rec = world.kernel.enclaveRecord(enclave->secsPage());
    for (const auto& [va, pa] : rec->pages) {
        const auto& e =
            world.machine.epcm().entry(world.machine.mem().epcPageIndex(pa));
        if (e.type == sgx::PageType::Tcs) return pa;
    }
    return 0;
}

TEST_P(TraceNest, FullNestEmitsOrderedLeafEvents)
{
    auto config = World::smallConfig();
    config.taggedTlb = GetParam();
    World world(config);
    auto pair = loadNestedPair(world, tinySpec("tn-outer"), tinySpec("tn-inner"));
    hw::Paddr outerTcs = firstTcs(world, pair.outer);
    hw::Paddr innerTcs = firstTcs(world, pair.inner);
    ASSERT_NE(outerTcs, 0u);
    ASSERT_NE(innerTcs, 0u);

    trace::RingBufferSink ring;
    world.machine.trace().subscribe(&ring);
    ASSERT_TRUE(world.machine.eenter(0, outerTcs).isOk());
    ASSERT_TRUE(world.machine.neenter(0, innerTcs).isOk());
    ASSERT_TRUE(world.machine.aex(0).isOk());
    ASSERT_TRUE(world.machine.eresume(0, outerTcs).isOk());
    ASSERT_TRUE(world.machine.neexit(0).isOk());
    ASSERT_TRUE(world.machine.eexit(0).isOk());
    world.machine.trace().unsubscribe(&ring);

    // Successful leaf exits, in publication order.
    std::vector<Leaf> exits;
    std::uint64_t aexSavedTcs = 0;
    std::uint64_t lastTime = 0;
    for (const auto& record : ring.records()) {
        EXPECT_GE(record.event.time, lastTime) << "sim-time went backwards";
        lastTime = record.event.time;
        if (record.event.kind == EventKind::AexTaken) {
            EXPECT_EQ(record.event.code, 0u);
            aexSavedTcs = record.event.arg0;
        }
        if (record.event.kind == EventKind::LeafExit &&
            record.event.code == 0) {
            exits.push_back(record.event.leaf);
        }
    }
    const std::vector<Leaf> expected = {Leaf::Eenter, Leaf::Neenter, Leaf::Aex,
                                        Leaf::Eresume, Leaf::Neexit,
                                        Leaf::Eexit};
    EXPECT_EQ(exits, expected);
    // The nest was saved into (and resumed from) the bottom TCS.
    EXPECT_EQ(aexSavedTcs, outerTcs);

    // Every LeafEnter has a matching LeafExit (same leaf, balanced).
    std::uint64_t enters = 0;
    std::uint64_t exitsAll = 0;
    for (const auto& record : ring.records()) {
        if (record.event.kind == EventKind::LeafEnter) ++enters;
        if (record.event.kind == EventKind::LeafExit) ++exitsAll;
    }
    EXPECT_EQ(enters, exitsAll);
}

INSTANTIATE_TEST_SUITE_P(TlbModes, TraceNest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                             return info.param ? "taggedTlb" : "flushTlb";
                         });

// ------------------------------------------ stats identity on fixed corpus

class TraceStatsGolden : public ::testing::TestWithParam<bool> {};

/**
 * Golden counter values on the fixed corpus: checker seed 12345, 400
 * steps (originally captured from the pre-bus inline `++stats_.x`
 * implementation; re-captured when the serve-layer EvictAll/ReloadAll
 * ops shifted the generator's streams, again when the generator
 * began always drawing the full op set, ring and DeepChain ops
 * included, and once more when ring descriptors shrank to [len, seq]
 * and each push or pop came to one header read, one slot access and
 * one index write, which moved only tlbHits, llcHitLines and the
 * clock). The bus must reproduce them bit-for-bit, clock included,
 * whether or not extra sinks are attached.
 */
struct GoldenStats {
    std::uint64_t tlbMisses, tlbHits, nestedChecks, accessFaults;
    std::uint64_t eenter, eexit, neenter, neexit, aex, eresume, ipi;
    std::uint64_t meeLines, llcHitLines, tlbFlushes, flushesAvoided;
    std::uint64_t closureHits, closureMisses, tagRejects;
    std::uint64_t clock;
};

GoldenStats
golden(bool tagged)
{
    if (tagged) {
        return {68, 504, 6,  19, 14, 7, 2, 0, 10, 3, 4,
                0,  529, 22, 26, 46, 9, 1, 2418167};
    }
    return {68, 504, 6,  19, 14, 7, 2, 0, 10, 3, 4,
            0,  529, 48, 0,  46, 9, 0, 2446172};
}

TEST_P(TraceStatsGolden, FixedCorpusMatchesPreBusCounters)
{
    check::CheckWorld::Config wc;
    wc.taggedTlb = GetParam();
    check::CheckWorld world(wc);

    // Attach an extra sink mid-stream: it must observe exactly the
    // events the counters count from here on, and perturb nothing.
    const sgx::Machine::Stats atSubscribe = world.machine().stats();
    trace::CountingSink counting;
    world.machine().trace().subscribe(&counting);

    check::SequenceGen gen(12345);
    for (int i = 0; i < 400; ++i) {
        check::Step step = gen.next(world);
        (void)world.apply(step);
    }

    const GoldenStats g = golden(GetParam());
    const sgx::Machine::Stats& s = world.machine().stats();
    EXPECT_EQ(s.tlbMisses, g.tlbMisses);
    EXPECT_EQ(s.tlbHits, g.tlbHits);
    EXPECT_EQ(s.nestedChecks, g.nestedChecks);
    EXPECT_EQ(s.accessFaults, g.accessFaults);
    EXPECT_EQ(s.eenterCount, g.eenter);
    EXPECT_EQ(s.eexitCount, g.eexit);
    EXPECT_EQ(s.neenterCount, g.neenter);
    EXPECT_EQ(s.neexitCount, g.neexit);
    EXPECT_EQ(s.aexCount, g.aex);
    EXPECT_EQ(s.eresumeCount, g.eresume);
    EXPECT_EQ(s.ipiCount, g.ipi);
    EXPECT_EQ(s.meeLines, g.meeLines);
    EXPECT_EQ(s.llcHitLines, g.llcHitLines);
    EXPECT_EQ(s.tlbFlushes, g.tlbFlushes);
    EXPECT_EQ(s.flushesAvoided, g.flushesAvoided);
    EXPECT_EQ(s.closureCacheHits, g.closureHits);
    EXPECT_EQ(s.closureCacheMisses, g.closureMisses);
    EXPECT_EQ(s.taggedLookupRejects, g.tagRejects);
    EXPECT_EQ(world.machine().clock().cycles(), g.clock);

    // Event/counter equivalence: a sink subscribed at snapshot time sees
    // one event per counted increment since.
    EXPECT_EQ(counting.count(EventKind::TlbMiss),
              s.tlbMisses - atSubscribe.tlbMisses);
    EXPECT_EQ(counting.count(EventKind::TlbFlush),
              s.tlbFlushes - atSubscribe.tlbFlushes);
    EXPECT_EQ(counting.count(EventKind::AexTaken),
              s.aexCount - atSubscribe.aexCount);
    EXPECT_EQ(counting.count(EventKind::Ipi),
              s.ipiCount - atSubscribe.ipiCount);
    EXPECT_EQ(counting.count(EventKind::ClosureCacheHit),
              s.closureCacheHits - atSubscribe.closureCacheHits);
    EXPECT_EQ(counting.count(EventKind::ClosureCacheMiss),
              s.closureCacheMisses - atSubscribe.closureCacheMisses);

    world.machine().trace().unsubscribe(&counting);
}

INSTANTIATE_TEST_SUITE_P(TlbModes, TraceStatsGolden, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                             return info.param ? "taggedTlb" : "flushTlb";
                         });

// ------------------------------------------------------------- TraceOracle

class TraceOracleTest : public ::testing::Test {
  protected:
    TraceBus bus_;
    trace::RingBufferSink ring_;
    check::TraceOracle oracle_;

    void SetUp() override { bus_.subscribe(&ring_); }
    void TearDown() override { bus_.unsubscribe(&ring_); }

    std::optional<check::Violation> step(const TraceEvent& ev)
    {
        bus_.publish(ev);
        return oracle_.consume(ring_);
    }
};

TEST_F(TraceOracleTest, PairedAexEresumeIsClean)
{
    TraceEvent aex = event(EventKind::AexTaken, 1, 9, 0x5000);
    EXPECT_FALSE(step(aex));
    EXPECT_FALSE(step(leafExitOk(Leaf::Eresume, 1, 0x5000)));
}

TEST_F(TraceOracleTest, SecondEresumeOfSameTokenViolates)
{
    (void)step(event(EventKind::AexTaken, 1, 9, 0x5000));
    (void)step(leafExitOk(Leaf::Eresume, 1, 0x5000));
    auto violation = step(leafExitOk(Leaf::Eresume, 1, 0x5000));
    ASSERT_TRUE(violation);
    EXPECT_EQ(violation->rule, check::Rule::TraceAexResumePairing);
}

TEST_F(TraceOracleTest, EresumeWithoutAnyAexViolates)
{
    auto violation = step(leafExitOk(Leaf::Eresume, 0, 0x7000));
    ASSERT_TRUE(violation);
    EXPECT_EQ(violation->rule, check::Rule::TraceAexResumePairing);
}

TEST_F(TraceOracleTest, FailedAexArmsNoToken)
{
    TraceEvent failed = event(EventKind::AexTaken, 2, 0, 0);
    failed.code = std::uint16_t(Err::GeneralProtection);
    (void)step(failed);
    auto violation = step(leafExitOk(Leaf::Eresume, 2, 0));
    ASSERT_TRUE(violation);
    EXPECT_EQ(violation->rule, check::Rule::TraceAexResumePairing);
}

TEST_F(TraceOracleTest, EnclaveMemoryEventInQuiescedWindowViolates)
{
    (void)step(event(EventKind::AexTaken, 2, 9, 0x5000));
    auto violation = step(event(EventKind::TlbHit, 2, 9, 0x1234000));
    ASSERT_TRUE(violation);
    EXPECT_EQ(violation->rule, check::Rule::TraceQuiescedWindow);
}

TEST_F(TraceOracleTest, QuiescedWindowIgnoresUntrustedAndOtherCores)
{
    (void)step(event(EventKind::AexTaken, 2, 9, 0x5000));
    // Untrusted access (eid 0) on the quiesced core: the OS doing its job.
    EXPECT_FALSE(step(event(EventKind::TlbMiss, 2, 0, 0x1000)));
    // Enclave access on a different core: unrelated.
    EXPECT_FALSE(step(event(EventKind::TlbHit, 0, 4, 0x2000)));
    // Machine-global (no-core) events are exempt by construction.
    EXPECT_FALSE(
        step(event(EventKind::NestedCheck, trace::kNoCore, 9, 0x3000)));
}

TEST_F(TraceOracleTest, EenterOrEresumeEndsTheQuiescedWindow)
{
    (void)step(event(EventKind::AexTaken, 1, 9, 0x5000));
    EXPECT_FALSE(step(leafExitOk(Leaf::Eenter, 1, 0x5000)));
    EXPECT_FALSE(step(event(EventKind::TlbHit, 1, 9, 0x1000)));

    (void)step(event(EventKind::AexTaken, 2, 9, 0x6000));
    EXPECT_FALSE(step(leafExitOk(Leaf::Eresume, 2, 0x6000)));
    EXPECT_FALSE(step(event(EventKind::TlbMiss, 2, 9, 0x1000)));
}

TEST_F(TraceOracleTest, RingOverflowBetweenStepsIsSurfaced)
{
    TraceBus bus;
    trace::RingBufferSink tiny(2);
    bus.subscribe(&tiny);
    check::TraceOracle oracle;
    for (int i = 0; i < 5; ++i) bus.publish(event(EventKind::Ipi, 0));
    auto violation = oracle.consume(tiny);
    ASSERT_TRUE(violation);
    EXPECT_EQ(violation->rule, check::Rule::TraceAexResumePairing);
    EXPECT_NE(violation->message.find("overflowed"), std::string::npos);
    bus.unsubscribe(&tiny);
}

// -------------------------------------------------------------- log routing

TEST(TraceLogRouting, WarnAndErrorBecomeEvents)
{
    TraceBus bus;
    trace::RingBufferSink ring;
    bus.subscribe(&ring);
    bus.captureLog();
    NESGX_WARN << "w " << 42;
    NESGX_ERROR << "boom";
    NESGX_DEBUG << "invisible";  // below Warn: not routed
    bus.releaseLog();
    NESGX_WARN << "after release";  // logger detached: not routed

    ASSERT_EQ(ring.size(), 2u);
    EXPECT_EQ(ring.records()[0].event.kind, EventKind::LogWarn);
    EXPECT_EQ(ring.records()[0].text, "w 42");
    EXPECT_EQ(ring.records()[1].event.kind, EventKind::LogError);
    EXPECT_EQ(ring.records()[1].text, "boom");
    bus.unsubscribe(&ring);
}

TEST(TraceLogRouting, ConcurrentLoggingIsSerializedAndLossless)
{
    TraceBus bus;
    trace::RingBufferSink ring;
    bus.subscribe(&ring);
    bus.captureLog();
    constexpr int kThreads = 4;
    constexpr int kPerThread = 100;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < kPerThread; ++i) {
                NESGX_WARN << "t" << t << " line " << i;
            }
        });
    }
    for (auto& thread : threads) thread.join();
    bus.releaseLog();

    ASSERT_EQ(ring.size(), std::size_t(kThreads * kPerThread));
    for (const auto& record : ring.records()) {
        EXPECT_EQ(record.event.kind, EventKind::LogWarn);
        // The mutex keeps lines whole: every payload parses as one
        // complete "t<T> line <N>" message.
        EXPECT_EQ(record.text.compare(0, 1, "t"), 0);
        EXPECT_NE(record.text.find(" line "), std::string::npos);
    }
    bus.unsubscribe(&ring);
}

// ------------------------------------------------------------- Chrome sink

TEST(ChromeTraceSink, EmitsBalancedSpansAndEscapesText)
{
    TraceBus bus;
    trace::ChromeTraceSink chrome;
    bus.subscribe(&chrome);
    bus.leafEnter(Leaf::Eenter, 0, 1, 0x1000);
    bus.leafExit(Leaf::Eenter, 0, 1, Status::ok(), 0x1000);
    TraceEvent ecall = event(EventKind::SdkEcallBegin, 0);
    ecall.text = "quote\"back\\slash";
    bus.publish(ecall);
    TraceEvent end = event(EventKind::SdkEcallEnd, 0);
    end.text = "quote\"back\\slash";
    bus.publish(end);
    bus.unsubscribe(&chrome);

    std::string json = chrome.json();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
    EXPECT_NE(json.find("EENTER"), std::string::npos);
    // Escaped payload: the raw quote/backslash must not appear unescaped.
    EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
    // Balanced B/E phases.
    std::size_t begins = 0;
    std::size_t ends = 0;
    for (std::size_t at = json.find("\"ph\": \"B\""); at != std::string::npos;
         at = json.find("\"ph\": \"B\"", at + 1)) {
        ++begins;
    }
    for (std::size_t at = json.find("\"ph\": \"E\""); at != std::string::npos;
         at = json.find("\"ph\": \"E\"", at + 1)) {
        ++ends;
    }
    EXPECT_EQ(begins, 2u);
    EXPECT_EQ(begins, ends);
}

// ----------------------------------------------------------- Machine facade

TEST(MachineStats, ResetStatsZeroesCountersOnly)
{
    World world;
    trace::CountingSink counting;
    world.machine.trace().subscribe(&counting);
    world.machine.flushCoreTlb(0);
    EXPECT_GE(world.machine.stats().tlbFlushes, 1u);
    world.machine.resetStats();
    EXPECT_EQ(world.machine.stats().tlbFlushes, 0u);
    // Sinks survive the reset.
    EXPECT_EQ(world.machine.trace().sinkCount(), 1u);
    EXPECT_GE(counting.count(EventKind::TlbFlush), 1u);
    world.machine.trace().unsubscribe(&counting);
}

}  // namespace
}  // namespace nesgx::test
