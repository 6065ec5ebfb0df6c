/**
 * The serving trust path: NEREPORT-based tenant onboarding evidence
 * (paper §IV-E consumed end-to-end; flow mirrors the hostverify pattern
 * of open-enclave-style SDKs).
 *
 * A tenant inner enclave proves, in one evidence blob, that
 *   (1) it is the expected code (MRENCLAVE) signed by the expected
 *       author (MRSIGNER),
 *   (2) it is nested inside the expected gateway outer at the exact
 *       chain depth the serving topology implies (a depth-2 instance of
 *       the same code cannot impersonate a depth-3 CVM tenant),
 *   (3) it saw the verifier's fresh nonce (reportData[0..31] =
 *       SHA256(nonce)), and
 *   (4) it holds the EGETKEY-rooted session key the verifier expects
 *       (reportData[32..63] = SHA256(sessionKey)) — binding the key
 *       exchange into the attested channel instead of shipping an
 *       out-of-band secret.
 *
 * The TenantVerifier models the infrastructure's provisioning service:
 * like Machine::verifyNestedReport it shares the device root of trust,
 * so it can recompute the identity sealing key any *genuine* enclave
 * with the claimed identity would derive — an impostor can forge the
 * key-binding hash only by actually being that identity.
 */
#pragma once

#include <optional>

#include "core/attest.h"
#include "sgx/machine.h"
#include "sgx/report.h"
#include "support/rng.h"

namespace nesgx::attest {

/** Nonce length used by TenantVerifier::nextNonce(). */
constexpr std::size_t kNonceSize = 32;

/** 16-byte tenant session key rooted in an identity sealing key. */
Bytes sessionKeyFromSeal(const crypto::Sha256Digest& seal,
                         std::uint32_t tenantId);

/** 16-byte key an instance seals its session key under, so a later
 *  instance of the same identity on the same machine can unseal it. */
Bytes sessionSealKey(const crypto::Sha256Digest& seal);

/** 16-byte migration transport key: identity seal key + peer identity.
 *  Source and destination instances of the same enclave identity derive
 *  the same key (per machine root of trust), so a sealed snapshot moves
 *  between them without either side revealing its sealing key. */
Bytes migrationTransportKey(const crypto::Sha256Digest& seal,
                            const sgx::Measurement& peerMr);

/** Wire codec for NEREPORT evidence: NestedReport::macBody's fields in
 *  its order, then the report MAC and the NEREPORT MAC. */
Bytes encodeNestedReport(const sgx::NestedReport& report);
Result<sgx::NestedReport> decodeNestedReport(ByteView blob);

/** The onboarding verifier's (synthetic) target measurement: reports in
 *  the evidence chain are MAC'ed for this identity. */
const sgx::Measurement& defaultVerifierMeasurement();

/** Per-tenant onboarding policy. */
struct TenantPolicy {
    sgx::Measurement expectedMrEnclave{};
    sgx::Measurement expectedMrSigner{};
    /** Expected gateway outer measurement; unset = must not be nested. */
    std::optional<sgx::Measurement> expectedOuter;
    /** Exact chain depth the serving topology implies (1 = flat tenant
     *  inner, 2 = CVM-hosted tenant inner). Unset = structure only. */
    std::optional<std::uint32_t> expectedChainDepth;
};

/** Outcome of one onboarding verification. */
struct Verdict {
    core::AttestationResult chain; ///< MAC/identity/outer/depth checks
    bool signerMatch = false;      ///< MRSIGNER as expected
    bool nonceBound = false;       ///< reportData carries SHA256(nonce)
    bool keyBound = false;         ///< reportData carries SHA256(key)
    /** The EGETKEY-rooted session key; set only when trusted(). */
    Bytes sessionKey;

    bool trusted() const
    {
        return chain.trusted() && signerMatch && nonceBound && keyBound;
    }
};

class TenantVerifier {
  public:
    explicit TenantVerifier(sgx::Machine& machine,
                            std::uint64_t nonceSeed = 0x0a77e57);

    /** The verifier's target identity (hand to the attesting enclave). */
    const sgx::Measurement& measurement() const { return measurement_; }

    /** A fresh 32-byte challenge; single-use per verify(). */
    Bytes nextNonce();

    /** Verifies one tenant's evidence blob against the policy. */
    Verdict verify(std::uint32_t tenantId, const sgx::NestedReport& report,
                   const TenantPolicy& policy, ByteView nonce) const;

  private:
    sgx::Machine& machine_;
    sgx::Measurement measurement_;
    Rng nonceRng_;
};

}  // namespace nesgx::attest
