/**
 * The SDK's chain walk (Urts::ecallChain + TrustedEnv::nEcallChain),
 * pinned at depths 1-4 in both TLB models: simulated cycles, the
 * Urts::stats() ecall/n_ecall counts, the SdkEcall/SdkNEcall event
 * brackets and the kernel's LRU order (OsVictimPick args) for every
 * outcome the walk can return — success, an unknown leaf function, a
 * NEENTER refused mid-chain, no idle TCS at the root, a leaf error and
 * a failing NEEXIT/EEXIT on the way out. The golden transcripts were
 * recorded against the four separate entry walks the SDK used to have;
 * the single walk must reproduce them exactly.
 *
 * Then the trusted boundary: a trusted function that throws fails its
 * call with EnclaveCrashed and every exit after it still runs. Last, the
 * TCS claim rule (DESIGN §13): worker threads entering one enclave
 * concurrently never share a TCS and never lose a claim to each other.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>

#include "fault/injector.h"
#include "harness.h"
#include "trace/sink.h"

namespace nesgx::test {
namespace {

constexpr std::size_t kMaxDepth = 4;

/** Records the walk's SDK brackets and the kernel's victim picks. */
class WalkSink : public trace::TraceSink {
  public:
    explicit WalkSink(std::map<hw::Paddr, int> indexOf)
        : indexOf_(std::move(indexOf))
    {
    }

    void onEvent(const trace::TraceEvent& e) override
    {
        switch (e.kind) {
          case trace::EventKind::SdkEcallBegin: log_ += "E+"; break;
          case trace::EventKind::SdkEcallEnd: log_ += "E-"; break;
          case trace::EventKind::SdkNEcallBegin: log_ += "N+"; break;
          case trace::EventKind::SdkNEcallEnd: log_ += "N-"; break;
          case trace::EventKind::OsVictimPick:
            log_ += " v" + std::to_string(indexOf_.at(e.arg0)) + "@" +
                    std::to_string(e.arg1);
            return;
          default: return;
        }
        if (name_ != (e.text ? e.text : "")) log_ += "!";
    }

    void expectName(std::string name) { name_ = std::move(name); }
    std::string take() { return std::exchange(log_, {}); }

  private:
    std::map<hw::Paddr, int> indexOf_;
    std::string name_;
    std::string log_;
};

/** Transcripts recorded against the four separate entry walks, one per
 *  outcome in the order PinsAccountingForEveryOutcome runs them. */
std::vector<std::string>
golden(std::size_t depth, bool tagged)
{
    if (depth == 1 && !tagged) {
        return {
            "Ok cyc=4602 e=1 n=0 E+E- v1@2 v2@3 v3@4 v0@5",
            "Ok cyc=5113 e=1 n=0 E+E- v1@2 v2@3 v3@4 v0@6",
            "NoSuchCall cyc=0 e=0 n=0  v1@2 v2@3 v3@4 v0@6",
            "Ok cyc=4602 e=1 n=0 E+E- v1@2 v2@3 v3@4 v0@7",
            "GeneralProtection cyc=0 e=0 n=0  v1@2 v2@3 v3@4 v0@7",
            "NotFound cyc=4501 e=1 n=0 E+E- v1@2 v2@3 v3@4 v0@8",
            "GeneralProtection cyc=4501 e=1 n=0 E+E- v1@2 v2@3 v3@4 v0@9",
        };
    }
    if (depth == 1 && tagged) {
        return {
            "Ok cyc=2442 e=1 n=0 E+E- v1@2 v2@3 v3@4 v0@5",
            "Ok cyc=2953 e=1 n=0 E+E- v1@2 v2@3 v3@4 v0@6",
            "NoSuchCall cyc=0 e=0 n=0  v1@2 v2@3 v3@4 v0@6",
            "Ok cyc=2442 e=1 n=0 E+E- v1@2 v2@3 v3@4 v0@7",
            "GeneralProtection cyc=0 e=0 n=0  v1@2 v2@3 v3@4 v0@7",
            "NotFound cyc=2341 e=1 n=0 E+E- v1@2 v2@3 v3@4 v0@8",
            "GeneralProtection cyc=2341 e=1 n=0 E+E- v1@2 v2@3 v3@4 v0@9",
        };
    }
    if (depth == 2 && !tagged) {
        return {
            "Ok cyc=8597 e=1 n=1 E+N+N-E- v2@3 v3@4 v0@5 v1@7",
            "Ok cyc=8597 e=1 n=1 E+N+N-E- v2@3 v3@4 v0@8 v1@10",
            "NoSuchCall cyc=4501 e=1 n=0 E+E- v2@3 v3@4 v0@11 v1@12",
            "GeneralProtection cyc=4957 e=1 n=1 E+N+N-E- v2@3 v3@4 v0@13 v1@15",
            "GeneralProtection cyc=0 e=0 n=0  v2@3 v3@4 v0@13 v1@15",
            "NotFound cyc=8497 e=1 n=1 E+N+N-E- v2@3 v3@4 v0@16 v1@18",
            "GeneralProtection cyc=8497 e=1 n=1 E+N+N-E- v2@3 v3@4 v0@19 v1@21",
        };
    }
    if (depth == 2 && tagged) {
        return {
            "Ok cyc=4277 e=1 n=1 E+N+N-E- v2@3 v3@4 v0@5 v1@7",
            "Ok cyc=4277 e=1 n=1 E+N+N-E- v2@3 v3@4 v0@8 v1@10",
            "NoSuchCall cyc=2341 e=1 n=0 E+E- v2@3 v3@4 v0@11 v1@12",
            "GeneralProtection cyc=2797 e=1 n=1 E+N+N-E- v2@3 v3@4 v0@13 v1@15",
            "GeneralProtection cyc=0 e=0 n=0  v2@3 v3@4 v0@13 v1@15",
            "NotFound cyc=4177 e=1 n=1 E+N+N-E- v2@3 v3@4 v0@16 v1@18",
            "GeneralProtection cyc=4177 e=1 n=1 E+N+N-E- v2@3 v3@4 v0@19 v1@21",
        };
    }
    if (depth == 3 && !tagged) {
        return {
            "Ok cyc=12593 e=1 n=2 E+N+N+N-N-E- v3@4 v0@5 v1@8 v2@9",
            "Ok cyc=12593 e=1 n=2 E+N+N+N-N-E- v3@4 v0@10 v1@13 v2@14",
            "NoSuchCall cyc=8497 e=1 n=1 E+N+N-E- v3@4 v0@15 v2@17 v1@18",
            "GeneralProtection cyc=4957 e=1 n=1 E+N+N-E- v3@4 v0@19 v2@21 v1@22",
            "GeneralProtection cyc=0 e=0 n=0  v3@4 v0@19 v2@21 v1@22",
            "NotFound cyc=12493 e=1 n=2 E+N+N+N-N-E- v3@4 v0@23 v1@26 v2@27",
            "GeneralProtection cyc=12493 e=1 n=2 E+N+N+N-N-E- v3@4 v0@28 v1@31 v2@32",
        };
    }
    if (depth == 3 && tagged) {
        return {
            "Ok cyc=6113 e=1 n=2 E+N+N+N-N-E- v3@4 v0@5 v1@8 v2@9",
            "Ok cyc=6113 e=1 n=2 E+N+N+N-N-E- v3@4 v0@10 v1@13 v2@14",
            "NoSuchCall cyc=4177 e=1 n=1 E+N+N-E- v3@4 v0@15 v2@17 v1@18",
            "GeneralProtection cyc=2797 e=1 n=1 E+N+N-E- v3@4 v0@19 v2@21 v1@22",
            "GeneralProtection cyc=0 e=0 n=0  v3@4 v0@19 v2@21 v1@22",
            "NotFound cyc=6013 e=1 n=2 E+N+N+N-N-E- v3@4 v0@23 v1@26 v2@27",
            "GeneralProtection cyc=6013 e=1 n=2 E+N+N+N-N-E- v3@4 v0@28 v1@31 v2@32",
        };
    }
    if (depth == 4 && !tagged) {
        return {
            "Ok cyc=16589 e=1 n=3 E+N+N+N+N-N-N-E- v0@5 v1@9 v2@10 v3@11",
            "Ok cyc=16589 e=1 n=3 E+N+N+N+N-N-N-E- v0@12 v1@16 v2@17 v3@18",
            "NoSuchCall cyc=12493 e=1 n=2 E+N+N+N-N-E- v0@19 v3@22 v1@23 v2@24",
            "GeneralProtection cyc=4957 e=1 n=1 E+N+N-E- v0@25 v2@27 v3@28 v1@29",
            "GeneralProtection cyc=0 e=0 n=0  v0@25 v2@27 v3@28 v1@29",
            "NotFound cyc=16489 e=1 n=3 E+N+N+N+N-N-N-E- v0@30 v1@34 v2@35 v3@36",
            "GeneralProtection cyc=16489 e=1 n=3 E+N+N+N+N-N-N-E- v0@37 v1@41 v2@42 v3@43",
        };
    }
    if (depth == 4 && tagged) {
        return {
            "Ok cyc=7949 e=1 n=3 E+N+N+N+N-N-N-E- v0@5 v1@9 v2@10 v3@11",
            "Ok cyc=7949 e=1 n=3 E+N+N+N+N-N-N-E- v0@12 v1@16 v2@17 v3@18",
            "NoSuchCall cyc=6013 e=1 n=2 E+N+N+N-N-E- v0@19 v3@22 v1@23 v2@24",
            "GeneralProtection cyc=2797 e=1 n=1 E+N+N-E- v0@25 v2@27 v3@28 v1@29",
            "GeneralProtection cyc=0 e=0 n=0  v0@25 v2@27 v3@28 v1@29",
            "NotFound cyc=7849 e=1 n=3 E+N+N+N+N-N-N-E- v0@30 v1@34 v2@35 v3@36",
            "GeneralProtection cyc=7849 e=1 n=3 E+N+N+N+N-N-N-E- v0@37 v1@41 v2@42 v3@43",
        };
    }
    return {};
}

/** The enclave's TCS pages. */
std::vector<hw::Paddr>
tcsPages(World& world, const sdk::LoadedEnclave* e)
{
    std::vector<hw::Paddr> out;
    const auto* rec = world.kernel.enclaveRecord(e->secsPage());
    for (const auto& [va, pa] : rec->pages) {
        if (world.machine.tcsAt(pa) != nullptr) out.push_back(pa);
    }
    return out;
}

class ChainWalk
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {
  protected:
    void SetUp() override
    {
        auto config = World::smallConfig();
        config.taggedTlb = tagged();
        world_ = std::make_unique<World>(config);
        std::map<hw::Paddr, int> indexOf;
        for (std::size_t i = 0; i < kMaxDepth; ++i) {
            auto spec = tinySpec("walk-" + std::to_string(i));
            spec.allowedInners.push_back(expectSigner(authorKey()));
            if (i > 0) spec.expectedOuter = expectSigner(authorKey());
            // reply: a result of the requested size (the depth-1 copy-out
            // charge scales with it). refuse: a leaf-level error. pop:
            // the leaf leaves its own frame, so one exit on the way out
            // finds the wrong depth and fails.
            spec.interface->addNEcall(
                "reply", [](sdk::TrustedEnv& env, ByteView arg) {
                    env.chargeCycles(100);
                    return Result<Bytes>(Bytes(loadLe64(arg.data()), 0xab));
                });
            spec.interface->addNEcall(
                "refuse", [](sdk::TrustedEnv&, ByteView) {
                    return Result<Bytes>(Err::NotFound);
                });
            spec.interface->addNEcall(
                "pop", [](sdk::TrustedEnv& env, ByteView) {
                    sgx::Machine& m = env.machine();
                    Status st = m.core(env.core()).depth() == 1
                                    ? m.eexit(env.core())
                                    : m.neexit(env.core());
                    if (!st) return Result<Bytes>(st);
                    return Result<Bytes>(Bytes(8, 0xcd));
                });
            sdk::LoadedEnclave* e =
                world_->urts->load(sdk::buildImage(spec, authorKey()),
                                   spec.interface)
                    .orThrow("walk enclave");
            if (i > 0) {
                ASSERT_TRUE(world_->urts->associate(e, all_.back()).isOk());
            }
            indexOf[e->secsPage()] = int(i);
            all_.push_back(e);
        }
        sink_ = std::make_unique<WalkSink>(std::move(indexOf));
        world_->machine.trace().subscribe(sink_.get());
    }

    void TearDown() override
    {
        world_->machine.trace().unsubscribe(sink_.get());
    }

    std::size_t depth() const { return std::get<0>(GetParam()); }
    bool tagged() const { return std::get<1>(GetParam()); }

    std::vector<sdk::LoadedEnclave*> chain() const
    {
        return {all_.begin(), all_.begin() + std::ptrdiff_t(depth())};
    }

    struct Outcome {
        Status status;
        std::uint64_t cycles = 0;
        std::string transcript;
    };

    /**
     * One walk on core 0: depth 1 goes through Urts::ecall, deeper
     * chains through Urts::ecallChain. The transcript is
     * "<status> cyc=<cycles> e=<ecalls> n=<nEcalls> <SDK brackets>"
     * followed by the kernel's full LRU order, coldest first, as
     * v<chain index>@<last-use tick>.
     */
    Outcome walk(const std::string& name, std::uint64_t resultBytes = 8)
    {
        Bytes arg(8);
        storeLe64(arg.data(), resultBytes);
        const auto& stats = world_->urts->stats();
        const std::uint64_t ecalls = stats.ecalls;
        const std::uint64_t nEcalls = stats.nEcalls;
        const std::uint64_t before = world_->machine.clock().cycles();
        sink_->expectName(name);
        Result<Bytes> r =
            depth() == 1 ? world_->urts->ecall(all_[0], name, arg, 0)
                         : world_->urts->ecallChain(chain(), name, arg, 0);
        Outcome out;
        out.status = r.status();
        out.cycles = world_->machine.clock().cycles() - before;
        if (r) {
            EXPECT_EQ(r.value().size(), resultBytes);
        }
        out.transcript = std::string(out.status.name()) +
                         " cyc=" + std::to_string(out.cycles) +
                         " e=" + std::to_string(stats.ecalls - ecalls) +
                         " n=" + std::to_string(stats.nEcalls - nEcalls) +
                         " " + sink_->take();
        EXPECT_EQ(world_->machine.core(0).depth(), 0u) << name;
        std::set<hw::Paddr> picked;
        for (std::size_t i = 0; i < kMaxDepth; ++i) {
            auto victim = world_->kernel.pickEvictVictim(
                [&](hw::Paddr secs) { return picked.count(secs) == 0; });
            if (victim) picked.insert(victim.value());
        }
        out.transcript += sink_->take();
        return out;
    }

    std::unique_ptr<World> world_;
    std::vector<sdk::LoadedEnclave*> all_;
    std::unique_ptr<WalkSink> sink_;
};

TEST_P(ChainWalk, PinsAccountingForEveryOutcome)
{
    const std::size_t d = depth();
    std::vector<std::string> got;

    // (a) success, small and large results: only depth 1 charges the
    // copy-out of the result back to untrusted memory.
    Outcome small = walk("reply", 8);
    EXPECT_TRUE(small.status.isOk());
    got.push_back(small.transcript);
    Outcome large = walk("reply", 4096);
    EXPECT_TRUE(large.status.isOk());
    got.push_back(large.transcript);
    const hw::CostModel& costs = world_->machine.costs();
    EXPECT_EQ(large.cycles - small.cycles,
              d == 1 ? costs.copyBytes(4096) - costs.copyBytes(8) : 0u);

    // (b) unknown leaf function: NoSuchCall with no charge at the leaf;
    // the pass-through hops above it still enter and unwind.
    Outcome unknown = walk("no-such-call");
    EXPECT_EQ(unknown.status.code(), Err::NoSuchCall);
    if (d == 1) {
        EXPECT_EQ(unknown.cycles, 0u);
    }
    got.push_back(unknown.transcript);

    // (c) the first NEENTER refused (depth 1 has none and succeeds).
    std::string parseError;
    auto parsed = fault::FaultPlan::parse("neenter-fail@n=1", &parseError);
    ASSERT_TRUE(parsed.isOk()) << parseError;
    fault::FaultInjector injector(parsed.value(), 1);
    world_->machine.setFaultInjector(&injector);
    Outcome refused = walk("reply");
    world_->machine.setFaultInjector(nullptr);
    EXPECT_EQ(refused.status.code(),
              d == 1 ? Err::Ok : Err::GeneralProtection);
    got.push_back(refused.transcript);

    // (d) every root TCS occupied: GeneralProtection before any charge.
    const std::vector<hw::Paddr> rootTcs = tcsPages(*world_, all_[0]);
    for (std::size_t i = 0; i < rootTcs.size(); ++i) {
        ASSERT_TRUE(
            world_->machine.eenter(hw::CoreId(i + 1), rootTcs[i]).isOk());
    }
    Outcome noTcs = walk("reply");
    EXPECT_EQ(noTcs.status.code(), Err::GeneralProtection);
    EXPECT_EQ(noTcs.cycles, 0u);
    got.push_back(noTcs.transcript);
    for (std::size_t i = 0; i < rootTcs.size(); ++i) {
        ASSERT_TRUE(world_->machine.eexit(hw::CoreId(i + 1)).isOk());
    }

    // A leaf error travels back through exits that all succeed.
    Outcome leafError = walk("refuse");
    EXPECT_EQ(leafError.status.code(), Err::NotFound);
    got.push_back(leafError.transcript);

    // The leaf leaves its own frame: the outermost NEEXIT (EEXIT at
    // depth 1) finds the core one level too shallow and fails, and its
    // status — not the leaf's successful result — is what the walk
    // returns, with no copy-out.
    Outcome popped = walk("pop");
    EXPECT_EQ(popped.status.code(), Err::GeneralProtection);
    got.push_back(popped.transcript);

    EXPECT_EQ(got, golden(d, tagged()));
}

INSTANTIATE_TEST_SUITE_P(
    DepthsAndTlbModes, ChainWalk,
    ::testing::Combine(::testing::Values(std::size_t(1), std::size_t(2),
                                         std::size_t(3), std::size_t(4)),
                       ::testing::Bool()),
    [](const auto& info) {
        return "depth" + std::to_string(std::get<0>(info.param)) +
               (std::get<1>(info.param) ? "_taggedTlb" : "_flushTlb");
    });

/**
 * The trusted boundary: a trusted function that throws ends its call with
 * EnclaveCrashed, whether the walk enters it at depth 1-3, an n_ocall
 * runs it in the outer, or a resident core calls it. Every exit after it
 * still runs: a walk leaves the core outside enclave mode with every TCS
 * on the chain idle, a resident core stays where it was, and the next
 * call into the same chain succeeds.
 */
class TrustedBoundary : public ::testing::TestWithParam<std::size_t> {
  protected:
    void SetUp() override
    {
        const auto boom = [](sdk::TrustedEnv&, ByteView) -> Result<Bytes> {
            throw std::runtime_error("trusted function failed");
        };
        for (std::size_t i = 0; i < 3; ++i) {
            auto spec = tinySpec("boundary-" + std::to_string(i));
            spec.allowedInners.push_back(expectSigner(authorKey()));
            if (i > 0) spec.expectedOuter = expectSigner(authorKey());
            spec.interface->addNEcall("boom", boom);
            spec.interface->addNOcallTarget("boom", boom);
            spec.interface->addNEcall(
                "echo", [](sdk::TrustedEnv&, ByteView arg) {
                    return Result<Bytes>(Bytes(arg.begin(), arg.end()));
                });
            spec.interface->addNEcall(
                "boom_in_outer", [](sdk::TrustedEnv& env, ByteView arg) {
                    return env.nOcall("boom", arg);
                });
            sdk::LoadedEnclave* e =
                world_.urts->load(sdk::buildImage(spec, authorKey()),
                                  spec.interface)
                    .orThrow("boundary enclave");
            if (i > 0) {
                ASSERT_TRUE(world_.urts->associate(e, all_.back()).isOk());
            }
            all_.push_back(e);
        }
    }

    std::vector<sdk::LoadedEnclave*> chain() const
    {
        return {all_.begin(), all_.begin() + std::ptrdiff_t(GetParam())};
    }

    Result<Bytes> walk(const std::string& name)
    {
        return world_.urts->ecallChain(chain(), name, bytesOf("ping"), 0);
    }

    void expectUnwound()
    {
        EXPECT_EQ(world_.machine.core(0).depth(), 0u);
        EXPECT_FALSE(world_.machine.core(0).inEnclaveMode());
        for (const sdk::LoadedEnclave* e : chain()) {
            for (hw::Paddr tcs : tcsPages(world_, e)) {
                EXPECT_TRUE(world_.machine.tcsIdle(tcs)) << e->name();
            }
        }
    }

    World world_;
    std::vector<sdk::LoadedEnclave*> all_;
};

TEST_P(TrustedBoundary, ThrowingFunctionCrashesTypedAndUnwinds)
{
    EXPECT_EQ(walk("boom").code(), Err::EnclaveCrashed);
    expectUnwound();
    if (GetParam() >= 2) {
        // The throw happens in the outer, between NEEXIT and NEENTER.
        EXPECT_EQ(walk("boom_in_outer").code(), Err::EnclaveCrashed);
        expectUnwound();
    }

    auto echoed = walk("echo");
    ASSERT_TRUE(echoed.isOk()) << echoed.status().name();
    EXPECT_EQ(echoed.value(), bytesOf("ping"));
    expectUnwound();
}

TEST_P(TrustedBoundary, ResidentThrowCrashesTypedAndStaysResident)
{
    // Park core 1 in the chain's leaf, as an armed ring's poller is.
    sgx::Machine& m = world_.machine;
    const std::vector<sdk::LoadedEnclave*> nest = chain();
    for (std::size_t i = 0; i < nest.size(); ++i) {
        const hw::Paddr tcs = tcsPages(world_, nest[i]).front();
        ASSERT_TRUE((i == 0 ? m.eenter(1, tcs) : m.neenter(1, tcs)).isOk());
    }
    sdk::TrustedEnv leaf(*world_.urts, *nest.back(), 1);

    EXPECT_EQ(leaf.residentCall("boom", {}).code(), Err::EnclaveCrashed);
    EXPECT_EQ(m.core(1).depth(), nest.size());
    EXPECT_EQ(m.core(1).currentSecs(), nest.back()->secsPage());
    auto echoed = leaf.residentCall("echo", bytesOf("ping"));
    ASSERT_TRUE(echoed.isOk()) << echoed.status().name();
    EXPECT_EQ(echoed.value(), bytesOf("ping"));

    for (std::size_t i = nest.size(); i > 0; --i) {
        ASSERT_TRUE((i == 1 ? m.eexit(1) : m.neexit(1)).isOk());
    }
    EXPECT_FALSE(m.core(1).inEnclaveMode());
    for (const sdk::LoadedEnclave* e : nest) {
        for (hw::Paddr tcs : tcsPages(world_, e)) {
            EXPECT_TRUE(m.tcsIdle(tcs)) << e->name();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Depths, TrustedBoundary,
                         ::testing::Values(std::size_t(1), std::size_t(2),
                                           std::size_t(3)),
                         [](const auto& info) {
                             return "depth" + std::to_string(info.param);
                         });

/**
 * Four worker threads hammer one enclave that has four TCSes. Every
 * call must land on a TCS no other thread holds, and none may lose its
 * pick to another thread: with at most three TCSes held by the others,
 * an idle one always exists, so every call succeeds.
 */
TEST(TcsClaim, ConcurrentEcallsNeverShareOrLoseATcs)
{
    constexpr std::size_t kThreads = 4;
    constexpr int kCallsPerThread = 300;
    World world;

    std::map<hw::Paddr, std::atomic<int>> occupants;
    std::atomic<int> doubleClaims{0};
    auto spec = tinySpec("tcs-claim");
    spec.tcsCount = kThreads;
    spec.interface->addEcall(
        "occupy", [&](sdk::TrustedEnv& env, ByteView) -> Result<Bytes> {
            const hw::Paddr tcs =
                env.machine().core(env.core()).currentTcs();
            std::atomic<int>& n = occupants.at(tcs);
            if (n.fetch_add(1) != 0) ++doubleClaims;
            std::this_thread::yield();
            n.fetch_sub(1);
            return Bytes{};
        });
    sdk::LoadedEnclave* enclave =
        world.urts->load(sdk::buildImage(spec, authorKey()), spec.interface)
            .orThrow("tcs-claim");
    for (hw::Paddr tcs : tcsPages(world, enclave)) occupants[tcs];
    ASSERT_EQ(occupants.size(), kThreads);

    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (int i = 0; i < kCallsPerThread; ++i) {
                auto r = world.urts->ecall(enclave, "occupy", {},
                                           hw::CoreId(t));
                if (!r) ++failures;
            }
        });
    }
    for (std::thread& w : workers) w.join();

    EXPECT_EQ(doubleClaims.load(), 0);
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(world.urts->stats().ecalls, kThreads * kCallsPerThread);
}

}  // namespace
}  // namespace nesgx::test
