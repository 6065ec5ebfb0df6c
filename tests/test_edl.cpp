/**
 * EDL front-end tests: the paper's extended EDL dialect (§IV-C) with
 * nested_trusted / nested_untrusted sections, binding validation, and
 * the §VII-B fake-EDL attack (an interface file cannot grant peer inner
 * enclaves direct access — the hardware refuses regardless).
 */
#include <gtest/gtest.h>

#include "harness.h"
#include "sdk/edl.h"

namespace nesgx::test {
namespace {

const char* kSslEdl = R"(
// minissl library enclave, hosting inner applications
enclave ssl_lib {
    trusted {
        public bytes handle(bytes);
    }
    nested_untrusted {
        bytes ssl_read(bytes);
        bytes ssl_write(bytes);
    }
    untrusted {
        bytes net_recv(bytes);
        bytes net_send(bytes);
    }
}
)";

TEST(Edl, ParsesExtendedDialect)
{
    auto spec = sdk::parseEdl(kSslEdl);
    ASSERT_TRUE(spec.isOk()) << spec.status().name();
    EXPECT_EQ(spec.value().enclaveName, "ssl_lib");
    EXPECT_EQ(spec.value().count(sdk::EdlSection::Trusted), 1u);
    EXPECT_EQ(spec.value().count(sdk::EdlSection::NestedUntrusted), 2u);
    EXPECT_EQ(spec.value().count(sdk::EdlSection::Untrusted), 2u);
    EXPECT_EQ(spec.value().count(sdk::EdlSection::NestedTrusted), 0u);

    const auto* handle =
        spec.value().find(sdk::EdlSection::Trusted, "handle");
    ASSERT_NE(handle, nullptr);
    EXPECT_TRUE(handle->isPublic);
    const auto* sslRead =
        spec.value().find(sdk::EdlSection::NestedUntrusted, "ssl_read");
    ASSERT_NE(sslRead, nullptr);
    EXPECT_FALSE(sslRead->isPublic);
}

TEST(Edl, ParsesInnerEnclaveDeclaration)
{
    auto spec = sdk::parseEdl(R"(
        enclave app_inner {
            nested_trusted {
                bytes run(bytes);
                bytes login(bytes);
            }
        }
    )");
    ASSERT_TRUE(spec.isOk());
    EXPECT_EQ(spec.value().count(sdk::EdlSection::NestedTrusted), 2u);
}

TEST(Edl, RejectsMalformedInput)
{
    EXPECT_FALSE(sdk::parseEdl("").isOk());
    EXPECT_FALSE(sdk::parseEdl("enclave {}").isOk());
    EXPECT_FALSE(sdk::parseEdl("enclave e { bogus_section { } }").isOk());
    EXPECT_FALSE(sdk::parseEdl("enclave e { trusted { bytes f(bytes) } }")
                     .isOk());  // missing semicolon
    EXPECT_FALSE(sdk::parseEdl("enclave e { trusted { int f(bytes); } }")
                     .isOk());  // unsupported type
    EXPECT_FALSE(
        sdk::parseEdl("enclave e { trusted { bytes f(bytes); } } junk")
            .isOk());
    // Duplicate declaration in one section.
    EXPECT_FALSE(sdk::parseEdl("enclave e { trusted { bytes f(bytes); "
                               "bytes f(bytes); } }")
                     .isOk());
}

TEST(Edl, CanonicalFormIsStable)
{
    // Whitespace/comments/ordering do not change the canonical text.
    auto a = sdk::parseEdl(
        "enclave e { trusted { bytes b(bytes); bytes a(bytes); } }");
    auto b = sdk::parseEdl(R"(
        enclave e {   // comment
            trusted {
                bytes a(bytes);
                bytes b(bytes);
            }
        }
    )");
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    EXPECT_EQ(a.value().canonical(), b.value().canonical());
    // Canonical text re-parses to the same spec.
    auto again = sdk::parseEdl(a.value().canonical());
    ASSERT_TRUE(again.isOk());
    EXPECT_EQ(again.value().canonical(), a.value().canonical());
}

TEST(Edl, BindingValidationAcceptsExactMatch)
{
    auto spec = sdk::parseEdl(kSslEdl).orThrow("parse");
    sdk::EnclaveInterface iface;
    auto stub = [](sdk::TrustedEnv&, ByteView) -> Result<Bytes> {
        return Bytes{};
    };
    iface.addEcall("handle", stub);
    iface.addNOcallTarget("ssl_read", stub);
    iface.addNOcallTarget("ssl_write", stub);
    EXPECT_TRUE(sdk::validateBinding(spec, iface).isOk());
}

TEST(Edl, BindingValidationRejectsMissingImplementation)
{
    auto spec = sdk::parseEdl(kSslEdl).orThrow("parse");
    sdk::EnclaveInterface iface;
    auto stub = [](sdk::TrustedEnv&, ByteView) -> Result<Bytes> {
        return Bytes{};
    };
    iface.addEcall("handle", stub);
    iface.addNOcallTarget("ssl_read", stub);
    // ssl_write declared but not implemented.
    EXPECT_EQ(sdk::validateBinding(spec, iface).code(), Err::NoSuchCall);
}

TEST(Edl, BindingValidationRejectsUndeclaredSurface)
{
    auto spec = sdk::parseEdl(kSslEdl).orThrow("parse");
    sdk::EnclaveInterface iface;
    auto stub = [](sdk::TrustedEnv&, ByteView) -> Result<Bytes> {
        return Bytes{};
    };
    iface.addEcall("handle", stub);
    iface.addNOcallTarget("ssl_read", stub);
    iface.addNOcallTarget("ssl_write", stub);
    iface.addEcall("backdoor", stub);  // not in the EDL
    EXPECT_EQ(sdk::validateBinding(spec, iface).code(), Err::BadCallBuffer);
}

TEST(Edl, FakeEdlCannotEnableInnerToInnerCalls)
{
    // §VII-B: "OS may create a fake EDL file describing interfaces
    // between inner enclaves, but nested enclave never allows any direct
    // calls among inner enclaves." Even with an interface file claiming
    // a peer entry point, NEENTER from a peer inner is a #GP and peer
    // memory access faults: the authority is the hardware association,
    // not any interface description.
    World world;
    auto outerSpec = tinySpec("edl-outer");
    outerSpec.allowedInners.push_back(expectSigner(authorKey()));
    auto i1Spec = tinySpec("edl-i1");
    auto i2Spec = tinySpec("edl-i2");
    i1Spec.expectedOuter = expectSigner(authorKey());
    i2Spec.expectedOuter = expectSigner(authorKey());
    // The "fake EDL": inner-2 claims to expose an entry to inner-1.
    auto fake = sdk::parseEdl(
        "enclave edl_i2 { nested_trusted { bytes steal(bytes); } }");
    ASSERT_TRUE(fake.isOk());
    i2Spec.interface->addNEcall(
        "steal", [](sdk::TrustedEnv&, ByteView) -> Result<Bytes> {
            return Bytes{};
        });

    auto outer = world.urts->load(sdk::buildImage(outerSpec, authorKey()),
                                  outerSpec.interface)
                     .orThrow("outer");
    auto i1 = world.urts->load(sdk::buildImage(i1Spec, authorKey()),
                               i1Spec.interface)
                  .orThrow("i1");
    auto i2 = world.urts->load(sdk::buildImage(i2Spec, authorKey()),
                               i2Spec.interface)
                  .orThrow("i2");
    ASSERT_TRUE(world.urts->associate(i1, outer).isOk());
    ASSERT_TRUE(world.urts->associate(i2, outer).isOk());

    auto firstTcs = [&](sdk::LoadedEnclave* e) {
        const auto* rec = world.kernel.enclaveRecord(e->secsPage());
        for (const auto& [va, pa] : rec->pages) {
            if (world.machine.epcm()
                    .entry(world.machine.mem().epcPageIndex(pa))
                    .type == sgx::PageType::Tcs) {
                return pa;
            }
        }
        return hw::Paddr(0);
    };

    // From inner-1, NEENTER into inner-2's TCS: refused (i2's outer is
    // the shared outer, not i1).
    ASSERT_TRUE(world.machine.eenter(0, firstTcs(outer)).isOk());
    ASSERT_TRUE(world.machine.neenter(0, firstTcs(i1)).isOk());
    EXPECT_EQ(world.machine.neenter(0, firstTcs(i2)).code(),
              Err::GeneralProtection);
    // And inner-2's memory stays unreadable from inner-1.
    hw::Vaddr i2Heap = i2->heap().alloc(32);
    std::uint8_t buf[8];
    EXPECT_EQ(world.machine.read(0, i2Heap, buf, 8).code(), Err::PageFault);
    ASSERT_TRUE(world.machine.neexit(0).isOk());
    ASSERT_TRUE(world.machine.eexit(0).isOk());
}

TEST(Edl, BoundInterfaceWorksEndToEnd)
{
    // An EDL-declared, binding-validated enclave loads and serves.
    auto spec = sdk::parseEdl(R"(
        enclave svc {
            trusted { public bytes ping(bytes); }
        }
    )").orThrow("parse");

    World world;
    auto enclaveSpec = tinySpec("edl-svc");
    enclaveSpec.interface->addEcall(
        "ping", [](sdk::TrustedEnv&, ByteView) -> Result<Bytes> {
            return bytesOf("pong");
        });
    ASSERT_TRUE(sdk::validateBinding(spec, *enclaveSpec.interface).isOk());
    auto enclave =
        world.urts->load(sdk::buildImage(enclaveSpec, authorKey()),
                         enclaveSpec.interface)
            .orThrow("load");
    EXPECT_EQ(world.urts->ecall(enclave, "ping", {}).orThrow("ping"),
              bytesOf("pong"));
}

}  // namespace
}  // namespace nesgx::test
