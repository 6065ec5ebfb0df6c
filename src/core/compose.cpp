#include "core/compose.h"

#include <array>

namespace nesgx::core {

const crypto::RsaKeyPair&
defaultAuthorKey()
{
    static const crypto::RsaKeyPair key = [] {
        Rng rng(0xDEFA017);
        return crypto::RsaKeyPair::generate(rng, 1024);
    }();
    return key;
}

sdk::LoadedEnclave*
NestedApp::inner(const std::string& name) const
{
    auto it = byName_.find(name);
    return it == byName_.end() ? nullptr : it->second;
}

Result<Bytes>
NestedApp::callOuter(const std::string& fn, ByteView arg, hw::CoreId core)
{
    return urts_->ecall(outer_, fn, arg, core);
}

Result<Bytes>
NestedApp::callInner(const std::string& innerName, const std::string& fn,
                     ByteView arg, hw::CoreId core)
{
    sdk::LoadedEnclave* target = inner(innerName);
    if (!target) return Err::NoSuchCall;
    return urts_->ecallChain(std::array{outer_, target}, fn, arg, core);
}

NestedAppBuilder&
NestedAppBuilder::outer(sdk::EnclaveSpec spec)
{
    outerSpec_ = std::move(spec);
    return *this;
}

NestedAppBuilder&
NestedAppBuilder::addInner(sdk::EnclaveSpec spec)
{
    innerSpecs_.push_back(std::move(spec));
    return *this;
}

NestedAppBuilder&
NestedAppBuilder::signer(const crypto::RsaKeyPair& key)
{
    signer_ = &key;
    return *this;
}

Result<NestedApp>
NestedAppBuilder::build()
{
    const crypto::RsaKeyPair& key = signer_ ? *signer_ : defaultAuthorKey();

    // Each inner's signed file names the outer's expected measurement.
    sgx::Measurement outerMr = sdk::predictMeasurement(outerSpec_);
    std::vector<std::shared_ptr<const sdk::SignedEnclave>> innerImages;
    for (auto spec : innerSpecs_) {
        spec.expectedOuter = sgx::PeerExpectation{};
        spec.expectedOuter->mrenclave = outerMr;
        innerImages.push_back(sdk::buildImage(spec, key));
    }

    // The outer's signed file lists every allowed inner measurement.
    sdk::EnclaveSpec outerSpec = outerSpec_;
    for (const auto& image : innerImages) {
        sgx::PeerExpectation allow;
        allow.mrenclave = image->mrenclave;
        outerSpec.allowedInners.push_back(allow);
    }
    auto outerImage = sdk::buildImage(outerSpec, key);

    NestedApp app;
    app.urts_ = urts_;
    auto outerLoaded = urts_->load(outerImage, outerSpec.interface);
    if (!outerLoaded) return outerLoaded.status();
    app.outer_ = outerLoaded.value();

    for (std::size_t i = 0; i < innerImages.size(); ++i) {
        auto loaded = urts_->load(innerImages[i], innerSpecs_[i].interface);
        if (!loaded) return loaded.status();
        Status st = urts_->associate(loaded.value(), app.outer_);
        if (!st) return st;
        app.inners_.push_back(loaded.value());
        app.byName_[innerSpecs_[i].name] = loaded.value();
    }
    return app;
}

Result<sdk::LoadedEnclave*>
loadMonolithic(sdk::Urts& urts, sdk::EnclaveSpec spec,
               const crypto::RsaKeyPair* key)
{
    const crypto::RsaKeyPair& k = key ? *key : defaultAuthorKey();
    return urts.load(sdk::buildImage(spec, k), spec.interface);
}

}  // namespace nesgx::core
