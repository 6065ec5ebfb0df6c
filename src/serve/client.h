/**
 * TenantClient: the untrusted-network side of one tenant.
 *
 * Generates deterministic workload requests (echo / sql / svm), seals
 * them under the tenant key, and verifies every sealed response
 * byte-for-byte against a locally computed expectation — for sql that
 * means replaying the same statement on a shadow database, for svm
 * recomputing the linear score. This is the end-to-end integrity check
 * the pressure experiments rely on: if an eviction/reload cycle ever
 * corrupted tenant state, responses stop matching.
 */
#pragma once

#include <map>
#include <optional>

#include "db/executor.h"
#include "serve/protocol.h"
#include "support/rng.h"

namespace nesgx::serve {

class TenantClient {
  public:
    /** `sessionKey` is the attested EGETKEY-rooted key handed out by
     *  TenantService::sessionKeyFor; empty falls back to the legacy
     *  out-of-band tenantKey() (pre-trust-path deployments). */
    TenantClient(TenantId tenant, Workload workload,
                 ByteView sessionKey = ByteView{});

    TenantId tenant() const { return tenant_; }
    Workload workload() const { return workload_; }

    /** Builds and seals the next request (seq advances every call, even
     *  if the service later sheds it). After onRefused it seals the
     *  refused request's plaintext again instead of a new one. */
    Bytes nextRequest();

    // --- epoch fencing (placement-aware clients) ---------------------

    /** nextRequest() wrapped in the host-side epoch envelope for
     *  TenantService::submitStamped. Call onPlacement first. */
    Bytes nextStampedRequest();

    /** Adopts a freshly resolved placement: `epoch` stamps every future
     *  request; an `incarnation` change means the server lost in-enclave
     *  state, so the client resets exactly as onTenantRebuilt (the seal
     *  targets a fresh instance). Resets the redirect backoff. */
    void onPlacement(std::uint64_t epoch, std::uint64_t incarnation);

    /** One Err::WrongEpoch redirect: counts it and returns how many
     *  cycles to back off before re-resolving placement and retrying —
     *  exponential in the consecutive-redirect count, with deterministic
     *  seeded jitter so a fleet of redirected clients never thunders
     *  back in lockstep. */
    std::uint64_t onWrongEpoch();

    std::uint64_t epoch() const { return epoch_; }
    std::uint64_t redirectsSeen() const { return redirects_; }

    /** Verifies one sealed response; false on any mismatch. An empty
     *  response (shed/refused marker) counts as a failure here — track
     *  those separately with `onDropped`. */
    bool onResponse(ByteView sealedResponse);

    /** Records that an accepted request completed without a response
     *  (shed or failed typed): drops the oldest pending expectation so
     *  bookkeeping stays bounded. */
    void onDropped();

    /** The service refused the submit of the request nextRequest() just
     *  sealed, so no server saw it. Its expectation leaves the pending
     *  set, and the next nextRequest() seals the same plaintext with the
     *  same expectation under the next sequence number: an sql shadow
     *  that already ran the statement stays in step, and no (key, IV)
     *  pair repeats. */
    void onRefused();

    /** The server rebuilt this tenant's enclave from scratch: resets the
     *  client to mirror it — outstanding expectations can never verify,
     *  the sql shadow restarts empty. The sequence runs on for the key's
     *  lifetime, which rebuilds do not end (a fresh server accepts any
     *  first sequence). Safe to call once per rebuild-marked completion. */
    void onTenantRebuilt();

    std::uint64_t verified() const { return verified_; }
    std::uint64_t failures() const { return failures_; }
    std::uint64_t rebuildsSeen() const { return rebuildsSeen_; }
    std::size_t pending() const { return expected_.size(); }

  private:
    Bytes makePlaintext(std::uint64_t seq, Bytes& expectedResponse);

    TenantId tenant_;
    Workload workload_;
    crypto::AesGcm gcm_;
    Rng rng_;
    std::uint64_t sendSeq_ = 0;
    /** seq -> expected response plaintext, FIFO-dropped via onDropped. */
    std::map<std::uint64_t, Bytes> expected_;
    /** Plaintext of the newest sealed request, kept for onRefused. */
    Bytes lastPlain_;
    /** A refused request, waiting for nextRequest() to seal it again. */
    struct Refused {
        Bytes plain;
        Bytes expected;
    };
    std::optional<Refused> refused_;
    db::Database shadowDb_;
    std::uint64_t sqlStep_ = 0;
    std::uint64_t verified_ = 0;
    std::uint64_t failures_ = 0;
    std::uint64_t rebuildsSeen_ = 0;
    /** Placement cache for epoch fencing (0 = never resolved). */
    std::uint64_t epoch_ = 0;
    std::uint64_t incarnation_ = 0;
    std::uint64_t redirects_ = 0;
    std::uint64_t consecutiveRedirects_ = 0;
    /** Separate stream from rng_ so backoff jitter never perturbs the
     *  deterministic request payloads. */
    Rng backoffRng_;
};

}  // namespace nesgx::serve
