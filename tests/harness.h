/**
 * Shared test harness: a small world (machine + kernel + urts) plus
 * helpers to build and load enclaves with one author key per suite run
 * (RSA keygen is the slow part, so it is cached process-wide).
 */
#pragma once

#include <memory>
#include <string>

#include "os/kernel.h"
#include "sdk/image.h"
#include "sdk/runtime.h"
#include "sgx/machine.h"

namespace nesgx::test {

/** Process-wide cached author key (512-bit for test speed). */
inline const crypto::RsaKeyPair&
authorKey()
{
    static const crypto::RsaKeyPair key = [] {
        Rng rng(0xA07707);
        return crypto::RsaKeyPair::generate(rng, 512);
    }();
    return key;
}

/** A second, distinct author (for wrong-signer tests). */
inline const crypto::RsaKeyPair&
otherAuthorKey()
{
    static const crypto::RsaKeyPair key = [] {
        Rng rng(0xB18818);
        return crypto::RsaKeyPair::generate(rng, 512);
    }();
    return key;
}

struct World {
    sgx::Machine machine;
    os::Kernel kernel;
    os::Pid pid;
    std::unique_ptr<sdk::Urts> urts;

    explicit World(sgx::Machine::Config config = smallConfig())
        : machine(config), kernel(machine), pid(kernel.createProcess())
    {
        urts = std::make_unique<sdk::Urts>(kernel, pid);
        for (hw::CoreId c = 0; c < machine.coreCount(); ++c) {
            kernel.schedule(c, pid);
        }
    }

    static sgx::Machine::Config smallConfig()
    {
        sgx::Machine::Config config;
        config.dramBytes = 64ull << 20;
        config.prmBase = 32ull << 20;
        config.prmBytes = 16ull << 20;
        config.coreCount = 4;
        return config;
    }
};

/** Minimal enclave spec with tiny regions (fast to measure). */
inline sdk::EnclaveSpec
tinySpec(const std::string& name)
{
    sdk::EnclaveSpec spec;
    spec.name = name;
    spec.codePages = 2;
    spec.dataPages = 1;
    spec.heapPages = 8;
    spec.stackPages = 1;
    spec.tcsCount = 2;
    return spec;
}

/** Expectation matching a built image exactly (by MRENCLAVE). */
inline sgx::PeerExpectation
expectEnclave(const sdk::SignedEnclave& image)
{
    sgx::PeerExpectation pe;
    pe.mrenclave = image.mrenclave;
    return pe;
}

/** Expectation matching any enclave by this author (by MRSIGNER). */
inline sgx::PeerExpectation
expectSigner(const crypto::RsaKeyPair& key)
{
    sgx::PeerExpectation pe;
    pe.mrsigner = key.pub.signerMeasurement();
    return pe;
}

/**
 * Builds and loads an associated outer+inner pair:
 * outer allows the inner's measurement, inner expects the outer's.
 * Interfaces can be customized before calling via the spec arguments.
 */
struct NestedPair {
    sdk::LoadedEnclave* outer = nullptr;
    sdk::LoadedEnclave* inner = nullptr;
    std::shared_ptr<const sdk::SignedEnclave> outerImage;
    std::shared_ptr<const sdk::SignedEnclave> innerImage;
};

inline NestedPair
loadNestedPair(World& world, sdk::EnclaveSpec outerSpec,
               sdk::EnclaveSpec innerSpec)
{
    NestedPair pair;
    // The inner names its expected outer by measurement; predict the
    // outer's MRENCLAVE before building so both signed files agree.
    innerSpec.expectedOuter = sgx::PeerExpectation{};
    innerSpec.expectedOuter->mrenclave = sdk::predictMeasurement(outerSpec);
    pair.innerImage = sdk::buildImage(innerSpec, authorKey());

    sgx::PeerExpectation allow;
    allow.mrenclave = pair.innerImage->mrenclave;
    outerSpec.allowedInners.push_back(allow);
    pair.outerImage = sdk::buildImage(outerSpec, authorKey());

    pair.outer = world.urts->load(pair.outerImage, outerSpec.interface)
                     .orThrow("load outer");
    pair.inner = world.urts->load(pair.innerImage, innerSpec.interface)
                     .orThrow("load inner");
    world.urts->associate(pair.inner, pair.outer).orThrow("associate");
    return pair;
}

}  // namespace nesgx::test
