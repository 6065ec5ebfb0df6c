/**
 * Enclave images and the signing toolchain.
 *
 * An EnclaveSpec describes an enclave the way the SGX SDK's build step
 * does: sizes of code/data/heap regions, thread count, the declared
 * interface, and — the nested-enclave extension — the expected peer
 * measurements that will be carried in the signed file (paper §IV-C).
 *
 * buildImage() lays the pages out, computes the exact MRENCLAVE the
 * hardware will measure at load, and signs the SIGSTRUCT with the author
 * key, producing a SignedEnclave loadable by the untrusted runtime. As
 * with `sgx_sign`, an image is signed once and loaded many times: it is
 * immutable, shared, and holds no code that runs. Each load binds its
 * own trusted functions (Urts::load), which must declare exactly the
 * interface surface the image measured.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "crypto/rsa.h"
#include "sdk/interface.h"
#include "sgx/secs.h"
#include "sgx/sigstruct.h"
#include "support/rng.h"

namespace nesgx::sdk {

/** What an image is laid out, measured and signed from: sizes, thread
 *  count, attributes and the peer expectations SIGSTRUCT carries. */
struct EnclaveLayout {
    std::string name;
    std::uint64_t codePages = 16;
    std::uint64_t dataPages = 4;
    std::uint64_t heapPages = 64;
    std::uint64_t stackPages = 4;
    std::uint64_t tcsCount = 2;
    std::uint64_t attributes = 0;

    /** Expected outer enclave (set when this enclave is an inner). */
    std::optional<sgx::PeerExpectation> expectedOuter;
    /** Inner enclaves allowed to associate (set on outer enclaves). */
    std::vector<sgx::PeerExpectation> allowedInners;

    std::uint64_t totalPages() const
    {
        return tcsCount + codePages + dataPages + heapPages +
               stackPages * tcsCount;
    }
};

/** A layout plus the interface it declares: buildImage measures the
 *  interface's surface, and a one-shot caller loads the image bound to
 *  the same functions (`urts.load(buildImage(spec, key), spec.interface)`). */
struct EnclaveSpec : EnclaveLayout {
    std::shared_ptr<EnclaveInterface> interface =
        std::make_shared<EnclaveInterface>();
};

/** One page of the laid-out image. */
struct ImagePage {
    std::uint64_t offset = 0;  ///< page offset within ELRANGE
    sgx::PageType type = sgx::PageType::Reg;
    sgx::PagePerms perms;
    Bytes content;             ///< empty = zero page
};

struct SignedEnclave {
    EnclaveLayout spec;
    /** interfaceDigestInput() of the interface it was built for: the
     *  surface folded into the code pages, which every binding loaded
     *  onto this image must declare exactly. */
    Bytes surface;
    std::vector<ImagePage> pages;
    std::uint64_t sizeBytes = 0;       ///< ELRANGE size (power-of-2 padded)
    sgx::SigStruct sigstruct;
    sgx::Measurement mrenclave{};      ///< expected load-time measurement
    sgx::Measurement mrsigner{};

    /** Region offsets within ELRANGE (fixed layout). */
    std::uint64_t heapOffset = 0;
    std::uint64_t heapBytes = 0;
};

/**
 * Lays out, measures and signs an enclave image.
 *
 * Code pages carry deterministic pseudo-content derived from the enclave
 * name and interface (standing in for the compiled text section), so two
 * enclaves with different code have different MRENCLAVEs — the property
 * every attestation experiment relies on.
 */
std::shared_ptr<const SignedEnclave> buildImage(
    const EnclaveSpec& spec, const crypto::RsaKeyPair& authorKey);

/** Predicts MRENCLAVE for a spec without building (used by builders that
 *  need to embed a peer's measurement before the peer is built). */
sgx::Measurement predictMeasurement(const EnclaveSpec& spec);

}  // namespace nesgx::sdk
