/** minissl tests: framing, record layer, handshake (incl. rollback
 *  detection) and the heartbeat code path mechanics. */
#include <gtest/gtest.h>

#include "harness.h"
#include "ssl/handshake.h"
#include "ssl/minissl.h"

namespace nesgx::test {
namespace {

TEST(Frames, RoundTrip)
{
    Bytes payload = bytesOf("payload-bytes");
    Bytes wire = ssl::frame(ssl::FrameType::Data, payload);
    ssl::FrameType type;
    ByteView parsed;
    ASSERT_TRUE(ssl::parseFrame(wire, type, parsed));
    EXPECT_EQ(type, ssl::FrameType::Data);
    EXPECT_EQ(Bytes(parsed.begin(), parsed.end()), payload);
}

TEST(Frames, RejectsTruncated)
{
    Bytes wire = ssl::frame(ssl::FrameType::Data, bytesOf("full"));
    wire.pop_back();
    ssl::FrameType type;
    ByteView payload;
    EXPECT_FALSE(ssl::parseFrame(wire, type, payload));
    EXPECT_FALSE(ssl::parseFrame(Bytes{1, 2}, type, payload));
}

TEST(Handshake, AgreesOnKeyAndVersion)
{
    Bytes psk = bytesOf("pre-shared-secret");
    ssl::HandshakeClient client(psk);
    ssl::HandshakeServer server(psk);

    Bytes hello = client.hello();
    auto response = server.respond(hello);
    ASSERT_TRUE(response.isOk());
    auto result = client.finish(response.value());
    ASSERT_TRUE(result.isOk());

    EXPECT_EQ(result.value().version, ssl::kVersionTls13);
    ASSERT_TRUE(server.result().has_value());
    EXPECT_EQ(result.value().sessionKey, server.result()->sessionKey);
    EXPECT_EQ(result.value().sessionKey.size(), 16u);
}

TEST(Handshake, DetectsVersionRollback)
{
    Bytes psk = bytesOf("pre-shared-secret");
    ssl::HandshakeClient client(psk);
    ssl::HandshakeServer server(psk);

    Bytes hello = client.hello();
    auto response = server.respond(hello);
    ASSERT_TRUE(response.isOk());

    // A MITM rewrites the chosen version down to TLS 1.2.
    Bytes tampered = response.value();
    tampered[0] = std::uint8_t(ssl::kVersionTls12);
    tampered[1] = std::uint8_t(ssl::kVersionTls12 >> 8);
    auto result = client.finish(tampered);
    EXPECT_FALSE(result.isOk());
}

TEST(Handshake, DifferentPskFailsTranscript)
{
    ssl::HandshakeClient client(bytesOf("secret-a"));
    ssl::HandshakeServer server(bytesOf("secret-b"));
    Bytes hello = client.hello();
    auto response = server.respond(hello);
    ASSERT_TRUE(response.isOk());
    EXPECT_FALSE(client.finish(response.value()).isOk());
}

TEST(Handshake, RejectsMalformedMessages)
{
    ssl::HandshakeServer server(bytesOf("k"));
    EXPECT_FALSE(server.respond(Bytes{}).isOk());
    EXPECT_FALSE(server.respond(Bytes{9, 9, 9}).isOk());
    ssl::HandshakeClient client(bytesOf("k"));
    client.hello();
    EXPECT_FALSE(client.finish(Bytes(5, 0)).isOk());
}

/** In-enclave record-layer fixture. */
class SslRecords : public ::testing::Test {
  protected:
    void SetUp() override
    {
        world_ = std::make_unique<World>();
        auto spec = tinySpec("ssl-host");
        spec.heapPages = 16;
        auto image = sdk::buildImage(spec, authorKey());
        host_ = world_->urts->load(image, spec.interface).orThrow("load");
        const auto* rec = world_->kernel.enclaveRecord(host_->secsPage());
        for (const auto& [va, pa] : rec->pages) {
            const auto& e = world_->machine.epcm().entry(
                world_->machine.mem().epcPageIndex(pa));
            if (e.type == sgx::PageType::Tcs) {
                tcs_ = pa;
                break;
            }
        }
    }

    template <typename Fn>
    void inEnclave(Fn&& fn)
    {
        ASSERT_TRUE(world_->machine.eenter(0, tcs_).isOk());
        {
            sdk::TrustedEnv env(*world_->urts, *host_, 0);
            fn(env);
        }
        ASSERT_TRUE(world_->machine.eexit(0).isOk());
    }

    std::unique_ptr<World> world_;
    sdk::LoadedEnclave* host_ = nullptr;
    hw::Paddr tcs_ = 0;
};

TEST_F(SslRecords, WriteReadRoundTrip)
{
    Bytes key(16, 0x31);
    ssl::MiniSsl sender(key), receiver(key);
    inEnclave([&](sdk::TrustedEnv& env) {
        Bytes plain = bytesOf("record payload");
        auto wire = sender.sslWrite(env, plain);
        ASSERT_TRUE(wire.isOk());
        auto back = receiver.sslRead(env, wire.value());
        ASSERT_TRUE(back.isOk()) << back.status().name();
        EXPECT_EQ(back.value(), plain);
    });
}

TEST_F(SslRecords, SequenceNumbersAdvance)
{
    Bytes key(16, 0x31);
    ssl::MiniSsl sender(key), receiver(key);
    inEnclave([&](sdk::TrustedEnv& env) {
        for (int i = 0; i < 5; ++i) {
            Bytes plain = bytesOf("msg " + std::to_string(i));
            auto wire = sender.sslWrite(env, plain);
            ASSERT_TRUE(wire.isOk());
            EXPECT_EQ(receiver.sslRead(env, wire.value()).orThrow("read"),
                      plain);
        }
        EXPECT_EQ(sender.recordsProcessed(), 5u);
    });
}

TEST_F(SslRecords, ReplayedRecordFailsSequenceCheck)
{
    Bytes key(16, 0x31);
    ssl::MiniSsl sender(key), receiver(key);
    inEnclave([&](sdk::TrustedEnv& env) {
        auto wire = sender.sslWrite(env, bytesOf("once"));
        ASSERT_TRUE(wire.isOk());
        ASSERT_TRUE(receiver.sslRead(env, wire.value()).isOk());
        // Replay: receiver's sequence moved on, the GCM open fails.
        EXPECT_FALSE(receiver.sslRead(env, wire.value()).isOk());
    });
}

TEST_F(SslRecords, CorruptRecordRejected)
{
    Bytes key(16, 0x31);
    ssl::MiniSsl sender(key), receiver(key);
    inEnclave([&](sdk::TrustedEnv& env) {
        auto wire = sender.sslWrite(env, bytesOf("integrity"));
        ASSERT_TRUE(wire.isOk());
        wire.value()[ssl::kFrameHeader + 2] ^= 0x80;
        EXPECT_FALSE(receiver.sslRead(env, wire.value()).isOk());
    });
}

TEST_F(SslRecords, HeartbeatEchoesHonestPayload)
{
    Bytes key(16, 0x31);
    ssl::MiniSsl lib(key);
    inEnclave([&](sdk::TrustedEnv& env) {
        Bytes payload = bytesOf("ping");
        Bytes req = ssl::makeHeartbeatRequest(std::uint16_t(payload.size()),
                                              payload);
        auto resp = lib.handleHeartbeat(env, req);
        ASSERT_TRUE(resp.isOk());
        ssl::FrameType type;
        ByteView body;
        ASSERT_TRUE(ssl::parseFrame(resp.value(), type, body));
        EXPECT_EQ(type, ssl::FrameType::Heartbeat);
        EXPECT_EQ(Bytes(body.begin(), body.end()), payload);
    });
}

TEST_F(SslRecords, HeartbeatOverreadReturnsStaleHeapBytes)
{
    // The raw CVE mechanics, decoupled from any app: free a buffer full
    // of sentinel bytes, then heartbeat with an inflated claimed length.
    Bytes key(16, 0x31);
    ssl::MiniSsl lib(key);
    inEnclave([&](sdk::TrustedEnv& env) {
        hw::Vaddr buf = env.alloc(ssl::kRecordBufferSize);
        ASSERT_NE(buf, 0u);
        Bytes sentinel(ssl::kRecordBufferSize, 0x5A);
        ASSERT_TRUE(env.writeBytes(buf, sentinel).isOk());
        env.free(buf);

        Bytes req = ssl::makeHeartbeatRequest(1024, Bytes{0x41});
        auto resp = lib.handleHeartbeat(env, req);
        ASSERT_TRUE(resp.isOk());
        ssl::FrameType type;
        ByteView body;
        ASSERT_TRUE(ssl::parseFrame(resp.value(), type, body));
        ASSERT_EQ(body.size(), 1024u);
        // Beyond the 1 real byte: stale sentinel bytes leak out.
        std::size_t leaked = 0;
        for (std::size_t i = 1; i < body.size(); ++i) {
            if (body[i] == 0x5A) ++leaked;
        }
        EXPECT_GT(leaked, 900u);
    });
}

}  // namespace
}  // namespace nesgx::test
