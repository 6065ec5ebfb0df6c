#include "sdk/image.h"

#include "crypto/sha256.h"
#include "sgx/measurement.h"

namespace nesgx::sdk {

namespace {

std::uint64_t
roundUpPow2(std::uint64_t v)
{
    std::uint64_t p = 1;
    while (p < v) p <<= 1;
    return p;
}

/** Deterministic stand-in for the compiled text section. */
Bytes
codePageContent(const EnclaveLayout& layout, ByteView surface,
                std::uint64_t pageIndex)
{
    Bytes seedInput = bytesOf(layout.name);
    append(seedInput, surface);
    std::uint8_t idx[8];
    storeLe64(idx, pageIndex);
    append(seedInput, ByteView(idx, 8));
    crypto::Sha256Digest seed = crypto::Sha256::hash(seedInput);

    Rng rng(loadLe64(seed.data()));
    return rng.bytes(hw::kPageSize);
}

std::vector<ImagePage>
layoutPages(const EnclaveLayout& spec, ByteView surface, SignedEnclave* out)
{
    std::vector<ImagePage> pages;
    std::uint64_t offset = 0;

    // Fixed region order: TCS | code (rx) | data (rw) | heap (rw) | stacks.
    for (std::uint64_t i = 0; i < spec.tcsCount; ++i) {
        pages.push_back({offset, sgx::PageType::Tcs, {}, {}});
        offset += hw::kPageSize;
    }
    for (std::uint64_t i = 0; i < spec.codePages; ++i) {
        pages.push_back({offset, sgx::PageType::Reg, sgx::PagePerms::rx(),
                         codePageContent(spec, surface, i)});
        offset += hw::kPageSize;
    }
    for (std::uint64_t i = 0; i < spec.dataPages; ++i) {
        pages.push_back({offset, sgx::PageType::Reg, sgx::PagePerms::rw(), {}});
        offset += hw::kPageSize;
    }
    if (out) {
        out->heapOffset = offset;
        out->heapBytes = spec.heapPages * hw::kPageSize;
    }
    for (std::uint64_t i = 0; i < spec.heapPages; ++i) {
        pages.push_back({offset, sgx::PageType::Reg, sgx::PagePerms::rw(), {}});
        offset += hw::kPageSize;
    }
    for (std::uint64_t i = 0; i < spec.stackPages * spec.tcsCount; ++i) {
        pages.push_back({offset, sgx::PageType::Reg, sgx::PagePerms::rw(), {}});
        offset += hw::kPageSize;
    }
    return pages;
}

sgx::Measurement
measureLayout(const std::vector<ImagePage>& pages, std::uint64_t sizeBytes)
{
    // Mirrors exactly what ECREATE/EADD/EEXTEND will fold at load time.
    sgx::MeasurementLog log;
    log.recordCreate(sizeBytes);
    Bytes zeroPage(hw::kPageSize, 0);
    for (const auto& page : pages) {
        log.recordAdd(page.offset, page.type, page.perms);
        const Bytes& content = page.content.empty() ? zeroPage : page.content;
        log.extendPage(page.offset, content.data());
    }
    return log.finalize();
}

}  // namespace

sgx::Measurement
predictMeasurement(const EnclaveSpec& spec)
{
    std::uint64_t sizeBytes =
        roundUpPow2(spec.totalPages() * hw::kPageSize);
    auto pages =
        layoutPages(spec, spec.interface->interfaceDigestInput(), nullptr);
    return measureLayout(pages, sizeBytes);
}

std::shared_ptr<const SignedEnclave>
buildImage(const EnclaveSpec& spec, const crypto::RsaKeyPair& authorKey)
{
    auto image = std::make_shared<SignedEnclave>();
    SignedEnclave& out = *image;
    out.spec = spec;
    out.surface = spec.interface->interfaceDigestInput();
    out.sizeBytes = roundUpPow2(spec.totalPages() * hw::kPageSize);
    out.pages = layoutPages(spec, out.surface, &out);
    out.mrenclave = measureLayout(out.pages, out.sizeBytes);

    out.sigstruct.enclaveHash = out.mrenclave;
    out.sigstruct.attributes = spec.attributes;
    out.sigstruct.expectedOuter = spec.expectedOuter;
    out.sigstruct.allowedInners = spec.allowedInners;
    out.sigstruct.sign(authorKey);
    out.mrsigner = out.sigstruct.signerMeasurement();
    return image;
}

}  // namespace nesgx::sdk
