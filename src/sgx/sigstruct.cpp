#include "sgx/sigstruct.h"

#include "support/wire.h"

namespace nesgx::sgx {

bool
PeerExpectation::matches(const Measurement& enclave,
                         const Measurement& signer) const
{
    if (mrenclave && !constantTimeEqual(ByteView(mrenclave->data(), 32),
                                        ByteView(enclave.data(), 32))) {
        return false;
    }
    if (mrsigner && !constantTimeEqual(ByteView(mrsigner->data(), 32),
                                       ByteView(signer.data(), 32))) {
        return false;
    }
    return mrenclave.has_value() || mrsigner.has_value();
}

namespace {

void
writeExpectation(WireWriter& w, const PeerExpectation& pe)
{
    for (const auto* m : {&pe.mrenclave, &pe.mrsigner}) {
        w.u8(*m ? 1 : 0);
        if (*m) w.bytes(**m);
    }
}

}  // namespace

Bytes
SigStruct::signedBody() const
{
    WireWriter w;
    w.bytes(enclaveHash).u64(attributes).u8(expectedOuter ? 1 : 0);
    if (expectedOuter) writeExpectation(w, *expectedOuter);
    w.u32(std::uint32_t(allowedInners.size()));
    for (const auto& pe : allowedInners) writeExpectation(w, pe);
    // The public key itself is part of the signed identity surface; it is
    // bound via MRSIGNER at EINIT rather than the signature, as in SGX.
    return w.take();
}

void
SigStruct::sign(const crypto::RsaKeyPair& key)
{
    signerKey = key.pub;
    signature = crypto::rsaSign(key, signedBody());
}

bool
SigStruct::verify() const
{
    return crypto::rsaVerify(signerKey, signedBody(), signature);
}

}  // namespace nesgx::sgx
