/**
 * Wire protocol between a tenant's client and its inner enclave.
 *
 * Every request/response is sealed with a per-tenant AES-GCM key that
 * only the client and the tenant's *inner* enclave hold — the shared
 * outer gateway enclave moves ciphertext by reference and never sees
 * plaintext (the paper's §VI service model: the library tier is shared,
 * the secrets are not).
 *
 * Sealed message layout:   [u64 seq LE][GCM ciphertext]
 *   iv  (12B) = seq LE64 || direction || 0 0 0
 *   aad (13B) = tenant u32 LE || direction || seq LE64
 * The sequence number rides in the clear so the server can keep a
 * strictly-monotonic replay check even when the admission controller
 * sheds intermediate requests (gaps are fine, regressions are not).
 *
 * Batch blobs (host -> gateway ecall, gateway -> host result):
 *   request:  [u32 slot LE][u32 count LE] then count x [u32 len][bytes]
 *   response: [u32 count LE] then count x [u32 len][bytes]
 * A zero-length response slot marks a request the server refused
 * (bad seal / replay); clients count those as integrity failures.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/gcm.h"
#include "support/bytes.h"
#include "support/status.h"

namespace nesgx::serve {

using TenantId = std::uint32_t;

enum class Workload : std::uint8_t { Echo, Sql, Svm };

/** Deterministic 16-byte per-tenant session key (client + inner only). */
Bytes tenantKey(TenantId tenant);

constexpr std::uint8_t kDirRequest = 0;
constexpr std::uint8_t kDirResponse = 1;
/** Direction tag for sealed migration snapshots (inner -> inner). */
constexpr std::uint8_t kDirMigrate = 2;
/** Direction tag for a session key an inner sealed for later instances
 *  of its identity on the same machine (TenantHandle::sealedSessionKey). */
constexpr std::uint8_t kDirSessionKey = 3;

/** Seals one message under the tenant session key. */
Bytes sealMessage(const crypto::AesGcm& gcm, TenantId tenant,
                  std::uint8_t dir, std::uint64_t seq, ByteView plain);

struct OpenedMessage {
    std::uint64_t seq = 0;
    Bytes plain;
};

/** Opens a sealed message; fails on truncation or MAC mismatch. */
Result<OpenedMessage> openMessage(const crypto::AesGcm& gcm, TenantId tenant,
                                  std::uint8_t dir, ByteView sealed);

/** Linear per-tenant scoring model standing in for SVM inference: the
 *  16 payload bytes are the feature vector, weights derive from the
 *  tenant id, so the client can recompute the exact score. */
std::int64_t svmScore(TenantId tenant, ByteView features);

/** Deterministic response text for one minidb statement result. */
std::string sqlResultText(bool ok, const std::string& error,
                          std::uint64_t rowsAffected, std::size_t rows);

// --- placement epoch stamp (host-side envelope) -------------------------

/**
 * Epoch-fenced submits wrap the sealed request in a host-side envelope:
 * [u64 epoch LE] + sealed bytes. The stamp is stripped by the service
 * *before* the sealed request is enqueued, so enclave-visible traffic —
 * and therefore the machine trace — is byte-identical whether or not a
 * client fences. Stale stamps are refused with Err::WrongEpoch.
 */
Bytes stampEpoch(std::uint64_t epoch, ByteView sealed);

/** Splits a stamped envelope; false on truncation. */
bool splitEpoch(ByteView stamped, std::uint64_t* epoch, Bytes* sealed);

// --- migration snapshot codec -------------------------------------------

/** Everything a tenant inner must carry across a live migration to
 *  resume its sealed session with sequence continuity: the session key,
 *  the replay high-water mark, and (for Sql tenants) the statement
 *  journal that deterministically rebuilds the database. Packed inside
 *  the enclave and sealed under a migration transport key — the
 *  untrusted relocation machinery only ever sees ciphertext. */
struct TenantSnapshot {
    Bytes sessionKey;  ///< empty = tenant still on the out-of-band key
    std::uint64_t lastSeq = 0;
    bool seenAny = false;
    std::vector<std::string> sqlJournal;
};

Bytes packSnapshot(const TenantSnapshot& snap);
Result<TenantSnapshot> parseSnapshot(ByteView blob);

// --- batch blob codec ---------------------------------------------------

Bytes packBatch(std::uint32_t slot, const std::vector<ByteView>& msgs);
Bytes packResponses(const std::vector<Bytes>& msgs);

struct ParsedBatch {
    std::uint32_t slot = 0;
    std::vector<ByteView> msgs;  ///< views into the input blob
};

/** Parses a request blob (views alias `blob`; keep it alive). */
Result<ParsedBatch> parseBatch(ByteView blob);

/** Parses a response blob into owned messages. */
Result<std::vector<Bytes>> parseResponses(ByteView blob);

}  // namespace nesgx::serve
