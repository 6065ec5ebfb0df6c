/**
 * Channel tests (paper §VI-C): the outer-enclave channel between peer
 * inner enclaves vs the AES-GCM-over-untrusted baseline, including the
 * OS attack surface differences (§VII-B).
 */
#include <gtest/gtest.h>

#include "core/channel.h"
#include "harness.h"
#include "os/ipc.h"

namespace nesgx::test {
namespace {

class Channels : public ::testing::Test {
  protected:
    void SetUp() override
    {
        world_ = std::make_unique<World>();

        auto outerSpec = tinySpec("ch-outer");
        outerSpec.heapPages = 32;
        auto i1 = tinySpec("ch-inner1");
        auto i2 = tinySpec("ch-inner2");
        i1.expectedOuter = expectSigner(authorKey());
        i2.expectedOuter = expectSigner(authorKey());
        outerSpec.allowedInners.push_back(expectSigner(authorKey()));

        outer_ = world_->urts->load(sdk::buildImage(outerSpec, authorKey()),
                                    outerSpec.interface)
                     .orThrow("outer");
        inner1_ = world_->urts->load(sdk::buildImage(i1, authorKey()),
                                     i1.interface)
                      .orThrow("i1");
        inner2_ = world_->urts->load(sdk::buildImage(i2, authorKey()),
                                     i2.interface)
                      .orThrow("i2");
        ASSERT_TRUE(world_->urts->associate(inner1_, outer_).isOk());
        ASSERT_TRUE(world_->urts->associate(inner2_, outer_).isOk());
    }

    /** Runs `fn` with the env of an inner enclave entered via the outer. */
    template <typename Fn>
    void asInner(sdk::LoadedEnclave* inner, Fn&& fn, hw::CoreId core = 0)
    {
        hw::Paddr outerTcs = firstTcs(outer_);
        hw::Paddr innerTcs = firstTcs(inner);
        ASSERT_TRUE(world_->machine.eenter(core, outerTcs).isOk());
        ASSERT_TRUE(world_->machine.neenter(core, innerTcs).isOk());
        {
            sdk::TrustedEnv env(*world_->urts, *inner, core);
            fn(env);
        }
        ASSERT_TRUE(world_->machine.neexit(core).isOk());
        ASSERT_TRUE(world_->machine.eexit(core).isOk());
    }

    hw::Paddr firstTcs(sdk::LoadedEnclave* enclave)
    {
        const auto* rec = world_->kernel.enclaveRecord(enclave->secsPage());
        for (const auto& [va, pa] : rec->pages) {
            const auto& e = world_->machine.epcm().entry(
                world_->machine.mem().epcPageIndex(pa));
            if (e.type == sgx::PageType::Tcs) return pa;
        }
        return 0;
    }

    std::unique_ptr<World> world_;
    sdk::LoadedEnclave* outer_ = nullptr;
    sdk::LoadedEnclave* inner1_ = nullptr;
    sdk::LoadedEnclave* inner2_ = nullptr;
};

TEST_F(Channels, OuterChannelInnerToInner)
{
    auto channel = core::OuterChannel::create(*outer_, 4096).orThrow("ch");
    Bytes msg = bytesOf("hello from inner1");

    asInner(inner1_, [&](sdk::TrustedEnv& env) {
        ASSERT_TRUE(channel.send(env, msg).isOk());
    });
    asInner(inner2_, [&](sdk::TrustedEnv& env) {
        auto got = channel.recv(env);
        ASSERT_TRUE(got.isOk()) << got.status().name();
        EXPECT_EQ(got.value(), msg);
    });
}

TEST_F(Channels, OuterChannelOrderAndWraparound)
{
    auto channel = core::OuterChannel::create(*outer_, 256).orThrow("ch");
    // Push/pop enough messages that the ring wraps several times.
    for (int round = 0; round < 20; ++round) {
        Bytes m1 = bytesOf("m1-" + std::to_string(round));
        Bytes m2 = bytesOf("message-two-" + std::to_string(round));
        asInner(inner1_, [&](sdk::TrustedEnv& env) {
            ASSERT_TRUE(channel.send(env, m1).isOk());
            ASSERT_TRUE(channel.send(env, m2).isOk());
        });
        asInner(inner2_, [&](sdk::TrustedEnv& env) {
            EXPECT_EQ(channel.recv(env).orThrow("r1"), m1);
            EXPECT_EQ(channel.recv(env).orThrow("r2"), m2);
            EXPECT_TRUE(channel.empty(env).orThrow("e"));
        });
    }
}

TEST_F(Channels, OuterChannelBackpressure)
{
    auto channel = core::OuterChannel::create(*outer_, 64).orThrow("ch");
    asInner(inner1_, [&](sdk::TrustedEnv& env) {
        Bytes big(100, 0xaa);
        EXPECT_EQ(channel.send(env, big).code(), Err::OutOfMemory);
        Bytes fits(40, 0xbb);
        EXPECT_TRUE(channel.send(env, fits).isOk());
        // Second message no longer fits until drained.
        EXPECT_EQ(channel.send(env, fits).code(), Err::OutOfMemory);
    });
}

TEST_F(Channels, OuterChannelUnreachableFromUntrusted)
{
    auto channel = core::OuterChannel::create(*outer_, 4096).orThrow("ch");
    asInner(inner1_, [&](sdk::TrustedEnv& env) {
        ASSERT_TRUE(channel.send(env, bytesOf("secret-msg")).isOk());
    });
    // The OS/untrusted code cannot read the channel memory: the data VA
    // is EPC-backed and core 0 is outside enclave mode.
    std::uint8_t buf[16];
    EXPECT_EQ(
        world_->machine.read(0, channel.dataVa(), buf, 16).code(),
        Err::PageFault);
}

TEST_F(Channels, OuterChannelUnreachableFromForeignEnclave)
{
    // An enclave *not* nested under ch-outer cannot touch the channel.
    auto strangerSpec = tinySpec("ch-stranger");
    auto stranger =
        world_->urts->load(sdk::buildImage(strangerSpec, authorKey()),
                           strangerSpec.interface)
            .orThrow("stranger");
    auto channel = core::OuterChannel::create(*outer_, 4096).orThrow("ch");

    hw::Paddr tcs = firstTcs(stranger);
    ASSERT_TRUE(world_->machine.eenter(0, tcs).isOk());
    std::uint8_t buf[8];
    EXPECT_EQ(
        world_->machine.read(0, channel.dataVa(), buf, 8).code(),
        Err::PageFault);
    ASSERT_TRUE(world_->machine.eexit(0).isOk());
}

TEST_F(Channels, GcmChannelRoundTrip)
{
    Bytes key(16, 0x7c);
    auto channel =
        core::GcmChannel::create(*world_->urts, 1 << 16, key).orThrow("ch");
    Bytes msg = bytesOf("across untrusted memory");

    asInner(inner1_, [&](sdk::TrustedEnv& env) {
        ASSERT_TRUE(channel.send(env, msg).isOk());
    });
    asInner(inner2_, [&](sdk::TrustedEnv& env) {
        EXPECT_EQ(channel.recv(env).orThrow("recv"), msg);
    });
}

TEST_F(Channels, GcmChannelDetectsOsTampering)
{
    Bytes key(16, 0x7c);
    auto channel =
        core::GcmChannel::create(*world_->urts, 1 << 16, key).orThrow("ch");
    asInner(inner1_, [&](sdk::TrustedEnv& env) {
        ASSERT_TRUE(channel.send(env, bytesOf("integrity matters")).isOk());
    });
    // The OS flips a ciphertext bit while the message is parked in
    // untrusted memory.
    ASSERT_TRUE(channel.tamperNext(*world_->urts).isOk());
    asInner(inner2_, [&](sdk::TrustedEnv& env) {
        auto got = channel.recv(env);
        EXPECT_FALSE(got.isOk());
        EXPECT_EQ(got.code(), Err::ReportMacMismatch);
    });
}

TEST_F(Channels, GcmChannelPlaintextVisibleToOsOnlyAsCiphertext)
{
    Bytes key(16, 0x7c);
    auto channel =
        core::GcmChannel::create(*world_->urts, 1 << 16, key).orThrow("ch");
    Bytes msg = bytesOf("THE-PLAINTEXT-SENTINEL");
    asInner(inner1_, [&](sdk::TrustedEnv& env) {
        ASSERT_TRUE(channel.send(env, msg).isOk());
    });
    // The OS *can* read the untrusted buffer (that is the point of the
    // baseline) but only sees ciphertext.
    auto pa = world_->urts->debugTranslate(channel.dataVa());
    ASSERT_TRUE(pa.isOk());
    Bytes raw = world_->kernel.hostileReadPhys(pa.value(), 256);
    bool plaintextVisible = false;
    for (std::size_t i = 0; i + msg.size() <= raw.size(); ++i) {
        if (std::equal(msg.begin(), msg.end(), raw.begin() + i)) {
            plaintextVisible = true;
        }
    }
    EXPECT_FALSE(plaintextVisible);
}

TEST_F(Channels, OsCanDropUntrustedIpcButNotOuterChannel)
{
    // §VII-B: OS-mediated IPC can be silently dropped; the outer-enclave
    // channel cannot (the OS has no handle on it at all).
    os::IpcService ipc;
    auto ch = ipc.createChannel();
    ipc.setDropPolicy([](os::ChannelId, const Bytes&) { return true; });
    ipc.send(ch, bytesOf("init-callback"));
    EXPECT_FALSE(ipc.receive(ch).has_value());
    EXPECT_EQ(ipc.droppedCount(), 1u);

    auto channel = core::OuterChannel::create(*outer_, 4096).orThrow("ch");
    asInner(inner1_, [&](sdk::TrustedEnv& env) {
        ASSERT_TRUE(channel.send(env, bytesOf("init-callback")).isOk());
    });
    asInner(inner2_, [&](sdk::TrustedEnv& env) {
        EXPECT_EQ(channel.recv(env).orThrow("recv"),
                  bytesOf("init-callback"));
    });
}

TEST_F(Channels, IpcReplayIsPossibleForOs)
{
    os::IpcService ipc;
    auto ch = ipc.createChannel();
    ipc.send(ch, bytesOf("pay $10"));
    EXPECT_TRUE(ipc.receive(ch).has_value());
    // The OS replays the recorded message at will.
    EXPECT_TRUE(ipc.replayLast(ch));
    auto replayed = ipc.receive(ch);
    ASSERT_TRUE(replayed.has_value());
    EXPECT_EQ(*replayed, bytesOf("pay $10"));
}

TEST_F(Channels, OuterChannelChargesMeeOnlyBeyondLlc)
{
    // The Fig.-11 mechanism: a small footprint stays in the LLC (no MEE
    // lines); streaming far beyond the LLC capacity pays MEE per line.
    auto channel = core::OuterChannel::create(*outer_, 8192).orThrow("ch");
    // Warm until the cursors have wrapped the whole ring at least once,
    // so every ring line is LLC-resident.
    asInner(inner1_, [&](sdk::TrustedEnv& env) {
        Bytes msg(1024, 0x11);
        for (int i = 0; i < 10; ++i) {
            ASSERT_TRUE(channel.send(env, msg).isOk());
            ASSERT_TRUE(channel.recv(env).isOk());
        }
    });
    auto meeAfterWarm = world_->machine.stats().meeLines;
    asInner(inner1_, [&](sdk::TrustedEnv& env) {
        Bytes msg(1024, 0x22);
        for (int i = 0; i < 4; ++i) {
            ASSERT_TRUE(channel.send(env, msg).isOk());
            ASSERT_TRUE(channel.recv(env).isOk());
        }
    });
    // Steady-state on an 8 KiB ring: everything is LLC-resident.
    EXPECT_EQ(world_->machine.stats().meeLines, meeAfterWarm);
}

}  // namespace
}  // namespace nesgx::test
