/**
 * The EDL-equivalent of the nesgx SDK.
 *
 * An EnclaveInterface declares the functions crossing each protection
 * boundary, mirroring the paper's extended EDL (§IV-C):
 *   - ecall:   untrusted -> enclave        (as in SGX)
 *   - ocall:   enclave -> untrusted        (as in SGX)
 *   - n_ecall: outer enclave -> inner      (new)
 *   - n_ocall: inner enclave -> outer      (new)
 *
 * Trusted functions receive a TrustedEnv (their window onto the emulated
 * enclave world); untrusted functions receive raw bytes.
 */
#pragma once

#include <functional>
#include <map>
#include <string>

#include "support/bytes.h"
#include "support/status.h"

namespace nesgx::sdk {

class TrustedEnv;

/** A function exposed across a boundary: bytes in, bytes out. */
using TrustedFn = std::function<Result<Bytes>(TrustedEnv&, ByteView)>;
using UntrustedFn = std::function<Result<Bytes>(ByteView)>;

class EnclaveInterface {
  public:
    /** Registers an ecall entry point (callable from untrusted code). */
    void addEcall(const std::string& name, TrustedFn fn);

    /** Registers an n_ecall entry point (callable from the outer enclave,
     *  or from untrusted code when entered directly per paper Fig. 5). */
    void addNEcall(const std::string& name, TrustedFn fn);

    /** Registers an n_ocall target (this enclave serves its inners). */
    void addNOcallTarget(const std::string& name, TrustedFn fn);

    const TrustedFn* findEcall(const std::string& name) const;
    const TrustedFn* findNEcall(const std::string& name) const;
    const TrustedFn* findNOcallTarget(const std::string& name) const;

    /** Stable content digest folded into the enclave measurement, so the
     *  declared interface is part of the enclave identity. */
    Bytes interfaceDigestInput() const;

    /** Registered names per boundary (EDL binding validation). */
    std::vector<std::string> ecallNames() const;
    std::vector<std::string> nEcallNames() const;
    std::vector<std::string> nOcallTargetNames() const;

  private:
    std::map<std::string, TrustedFn> ecalls_;
    std::map<std::string, TrustedFn> nEcalls_;
    std::map<std::string, TrustedFn> nOcallTargets_;
};

}  // namespace nesgx::sdk
