/**
 * End-to-end security scenarios (paper Table VII):
 *
 *  1. HeartBleed on the echo server: leaks the application secret in the
 *     monolithic layout; leaks nothing from the inner enclave in the
 *     nested layout (§VI-A confinement).
 *  2. Cross-tier data reads in the ML service: the shared library tier
 *     only ever sees privacy-filtered plaintext (§VI-B).
 *  3. OS tampering with inter-enclave communication: possible on
 *     untrusted IPC, impossible on the outer-enclave channel (§VI-C,
 *     §VII-B), including the Panoply-style silent-drop attack.
 */
#include <gtest/gtest.h>

#include "apps/echo_app.h"
#include "apps/ml_app.h"
#include "core/channel.h"
#include "harness.h"
#include "os/ipc.h"

namespace nesgx::test {
namespace {

const char* kSecret = "API-SECRET-0xC0FFEE-DO-NOT-LEAK";

/** Drives login + HeartBleed against a layout; returns the HB response. */
Bytes
runHeartbleed(apps::Layout layout)
{
    World world;
    Bytes sessionKey(16, 0x99);
    auto server =
        apps::EchoServer::create(*world.urts, layout, sessionKey)
            .orThrow("server");
    apps::EchoClient client(sessionKey);

    // The application handles a login: the secret transits (and is freed
    // from) the application heap.
    server->login(kSecret).orThrow("login");

    // The attacker sends a heartbeat claiming 2048 bytes with 1 real byte.
    client.sendHeartbleed(server->network(), 2048);
    server->run(0).orThrow("run");

    auto resp = client.receive(server->network());
    return resp.isOk() ? resp.value() : Bytes{};
}

TEST(Heartbleed, MonolithicLayoutLeaksApplicationSecret)
{
    Bytes leak = runHeartbleed(apps::Layout::Monolithic);
    ASSERT_FALSE(leak.empty());
    // The freed login buffer was recycled as the SSL record buffer: the
    // secret appears in the heartbeat response.
    EXPECT_TRUE(apps::containsBytes(leak, bytesOf(kSecret)));
}

TEST(Heartbleed, NestedLayoutConfinesTheLeak)
{
    Bytes leak = runHeartbleed(apps::Layout::Nested);
    ASSERT_FALSE(leak.empty());
    // Same attack, same library bug — but the SSL record buffers live in
    // the *outer* heap, which never held the inner enclave's secret.
    EXPECT_FALSE(apps::containsBytes(leak, bytesOf(kSecret)));
}

TEST(Heartbleed, NestedEchoStillFunctionsAfterAttack)
{
    World world;
    Bytes sessionKey(16, 0x99);
    auto server = apps::EchoServer::create(*world.urts,
                                           apps::Layout::Nested, sessionKey)
                      .orThrow("server");
    apps::EchoClient client(sessionKey);
    server->login(kSecret).orThrow("login");

    client.sendHeartbleed(server->network(), 1024);
    client.sendData(server->network(), 256);
    server->run(1).orThrow("run");

    ASSERT_TRUE(client.receive(server->network()).isOk());  // HB response
    ASSERT_TRUE(client.receive(server->network()).isOk());  // echo
    EXPECT_EQ(client.echoedOk(), 1u);
}

TEST(Heartbleed, OuterCannotProbeInnerDirectly)
{
    // Beyond the heap-residue channel: compromised outer code trying a
    // *direct* read of inner memory faults on access validation.
    World world;
    NestedPair pair =
        loadNestedPair(world, tinySpec("hb-outer"), tinySpec("hb-inner"));
    hw::Vaddr innerSecretVa = pair.inner->heap().alloc(64);

    const auto* rec = world.kernel.enclaveRecord(pair.outer->secsPage());
    hw::Paddr outerTcs = 0;
    for (const auto& [va, pa] : rec->pages) {
        const auto& e = world.machine.epcm().entry(
            world.machine.mem().epcPageIndex(pa));
        if (e.type == sgx::PageType::Tcs) {
            outerTcs = pa;
            break;
        }
    }
    ASSERT_TRUE(world.machine.eenter(0, outerTcs).isOk());
    std::uint8_t buf[64];
    EXPECT_EQ(world.machine.read(0, innerSecretVa, buf, 64).code(),
              Err::PageFault);
    ASSERT_TRUE(world.machine.eexit(0).isOk());
}

TEST(MlPrivacy, SharedLibraryOnlySeesFilteredData)
{
    // Feature index 0 is the "private" column; the privacy filter drops
    // it before data reaches the shared tier.
    svm::Dataset data;
    data.nFeatures = 4;
    data.nClasses = 2;
    data.samples = {{{0, 42.0}, {1, 1.0}}, {{0, 7.0}, {2, 2.0}}};
    data.labels = {0, 1};
    svm::Dataset filtered = apps::privacyFilter(data, 1);
    for (const auto& sample : filtered.samples) {
        for (const auto& [idx, val] : sample) {
            EXPECT_GE(idx, 1);
        }
    }
    EXPECT_EQ(filtered.labels, data.labels);
}

TEST(MlPrivacy, UploadedDatasetsAreCiphertextToTheOs)
{
    Rng rng(5);
    svm::Dataset data = svm::generate(svm::shapeByName("phishing"), 20, rng);
    Bytes key(16, 0x10);
    Bytes sealed = apps::sealDataset(data, key, 0);
    // A distinctive substring of the libsvm text must not be present.
    std::string text = svm::toLibsvmFormat(data);
    Bytes needle = bytesOf(text.substr(0, 24));
    EXPECT_FALSE(apps::containsBytes(sealed, needle));
}

TEST(MlPrivacy, WrongClientKeyCannotDecryptUpload)
{
    World world;
    auto service = apps::MlService::create(
                       *world.urts, apps::MlService::MlLayout::Nested, 2)
                       .orThrow("service");
    Rng rng(6);
    svm::Dataset data = svm::generate(svm::shapeByName("phishing"), 20, rng);
    // Seal with user 0's key but submit as user 1: the inner enclave's
    // decryption fails and no plaintext reaches the shared tier.
    Bytes sealed = apps::sealDataset(data, service->clientKey(0), 0);
    svm::TrainParams params;
    auto result = service->train(1, sealed, params);
    EXPECT_FALSE(result.isOk());
}

TEST(ChannelSecurity, SilentDropAttackOnUntrustedIpc)
{
    // Panoply-style attack (§VII-B): the certificate-check callback
    // registration travels over OS IPC; the OS silently drops it and the
    // application proceeds without the check ever running.
    os::IpcService ipc;
    auto ch = ipc.createChannel();

    bool certCheckRan = false;
    bool applicationProceeded = false;

    // Application registers the callback via IPC...
    ipc.setDropPolicy([](os::ChannelId, const Bytes&) { return true; });
    ipc.send(ch, bytesOf("register-cert-callback"));
    // ...the manager never receives it...
    if (auto msg = ipc.receive(ch)) {
        certCheckRan = true;  // would have run the check
        (void)msg;
    }
    // ...and the application, seeing no *error*, proceeds.
    applicationProceeded = true;

    EXPECT_TRUE(applicationProceeded);
    EXPECT_FALSE(certCheckRan);  // the attack succeeded
    EXPECT_EQ(ipc.droppedCount(), 1u);
}

TEST(ChannelSecurity, OuterChannelDefeatsSilentDrop)
{
    // The same flow over the outer-enclave channel: the OS has no
    // interposition point, so the registration always arrives.
    World world;
    auto outerSpec = tinySpec("sec-outer");
    auto i1 = tinySpec("sec-inner1");
    auto i2 = tinySpec("sec-inner2");
    i1.expectedOuter = expectSigner(authorKey());
    i2.expectedOuter = expectSigner(authorKey());
    outerSpec.allowedInners.push_back(expectSigner(authorKey()));

    auto outer = world.urts->load(sdk::buildImage(outerSpec, authorKey()),
                                  outerSpec.interface)
                     .orThrow("outer");
    auto inner1 =
        world.urts->load(sdk::buildImage(i1, authorKey()),
                         i1.interface).orThrow("i1");
    auto inner2 =
        world.urts->load(sdk::buildImage(i2, authorKey()),
                         i2.interface).orThrow("i2");
    ASSERT_TRUE(world.urts->associate(inner1, outer).isOk());
    ASSERT_TRUE(world.urts->associate(inner2, outer).isOk());

    auto channel = core::OuterChannel::create(*outer, 4096).orThrow("ch");

    auto firstTcs = [&](sdk::LoadedEnclave* e) {
        const auto* rec = world.kernel.enclaveRecord(e->secsPage());
        for (const auto& [va, pa] : rec->pages) {
            const auto& entry = world.machine.epcm().entry(
                world.machine.mem().epcPageIndex(pa));
            if (entry.type == sgx::PageType::Tcs) return pa;
        }
        return hw::Paddr(0);
    };

    // inner1 registers the callback through the protected channel.
    ASSERT_TRUE(world.machine.eenter(0, firstTcs(outer)).isOk());
    ASSERT_TRUE(world.machine.neenter(0, firstTcs(inner1)).isOk());
    {
        sdk::TrustedEnv env(*world.urts, *inner1, 0);
        ASSERT_TRUE(
            channel.send(env, bytesOf("register-cert-callback")).isOk());
    }
    ASSERT_TRUE(world.machine.neexit(0).isOk());
    ASSERT_TRUE(world.machine.eexit(0).isOk());

    // inner2 (the certificate manager) reliably receives it.
    bool certCheckRegistered = false;
    ASSERT_TRUE(world.machine.eenter(0, firstTcs(outer)).isOk());
    ASSERT_TRUE(world.machine.neenter(0, firstTcs(inner2)).isOk());
    {
        sdk::TrustedEnv env(*world.urts, *inner2, 0);
        auto msg = channel.recv(env);
        certCheckRegistered =
            msg.isOk() && msg.value() == bytesOf("register-cert-callback");
    }
    ASSERT_TRUE(world.machine.neexit(0).isOk());
    ASSERT_TRUE(world.machine.eexit(0).isOk());

    EXPECT_TRUE(certCheckRegistered);
}

TEST(ColdBoot, PhysicalProbeSeesNoChannelPlaintext)
{
    // Physical attack on the outer-channel pages. Model caveat: EPC
    // bytes are stored in plaintext in the model (the MEE is a cost
    // model), so this test asserts the *access-control* property the
    // hardware provides — the probe must go through hostileReadPhys
    // (physical DRAM), which in real SGX yields MEE ciphertext. Here we
    // assert the OS has no *architectural* path: virtual access faults.
    World world;
    NestedPair pair =
        loadNestedPair(world, tinySpec("cb-outer"), tinySpec("cb-inner"));
    auto channel = core::OuterChannel::create(*pair.outer, 1024)
                       .orThrow("ch");
    std::uint8_t buf[8];
    EXPECT_EQ(world.machine.read(0, channel.dataVa(), buf, 8).code(),
              Err::PageFault);
    // And the EWB path (the one place bits do leave the PRM) is
    // exercised with real encryption in test_paging.cpp.
}

}  // namespace
}  // namespace nesgx::test
