#include "serve/protocol.h"

#include "crypto/sha256.h"

namespace nesgx::serve {

Bytes
tenantKey(TenantId tenant)
{
    Bytes seed = bytesOf("nesgx-serve-tenant-key");
    seed.resize(seed.size() + 4);
    storeLe32(seed.data() + seed.size() - 4, tenant);
    auto digest = crypto::Sha256::hash(seed);
    return Bytes(digest.begin(), digest.begin() + 16);
}

namespace {

Bytes
messageIv(std::uint8_t dir, std::uint64_t seq)
{
    Bytes iv(crypto::kGcmIvSize, 0);
    storeLe64(iv.data(), seq);
    iv[8] = dir;
    return iv;
}

Bytes
messageAad(TenantId tenant, std::uint8_t dir, std::uint64_t seq)
{
    Bytes aad(13);
    storeLe32(aad.data(), tenant);
    aad[4] = dir;
    storeLe64(aad.data() + 5, seq);
    return aad;
}

}  // namespace

Bytes
sealMessage(const crypto::AesGcm& gcm, TenantId tenant, std::uint8_t dir,
            std::uint64_t seq, ByteView plain)
{
    Bytes out(8);
    storeLe64(out.data(), seq);
    Bytes sealed = gcm.seal(messageIv(dir, seq), messageAad(tenant, dir, seq),
                            plain);
    out.insert(out.end(), sealed.begin(), sealed.end());
    return out;
}

Bytes
stampEpoch(std::uint64_t epoch, ByteView sealed)
{
    Bytes out(8);
    storeLe64(out.data(), epoch);
    out.insert(out.end(), sealed.begin(), sealed.end());
    return out;
}

bool
splitEpoch(ByteView stamped, std::uint64_t* epoch, Bytes* sealed)
{
    if (stamped.size() < 8) return false;
    *epoch = loadLe64(stamped.data());
    sealed->assign(stamped.begin() + 8, stamped.end());
    return true;
}

Result<OpenedMessage>
openMessage(const crypto::AesGcm& gcm, TenantId tenant, std::uint8_t dir,
            ByteView sealed)
{
    if (sealed.size() < 8 + crypto::kGcmTagSize) return Err::BadCallBuffer;
    OpenedMessage out;
    out.seq = loadLe64(sealed.data());
    auto plain = gcm.open(messageIv(dir, out.seq),
                          messageAad(tenant, dir, out.seq),
                          sealed.subspan(8));
    if (!plain) return plain.status();
    out.plain = std::move(plain.value());
    return out;
}

std::int64_t
svmScore(TenantId tenant, ByteView features)
{
    // One-vs-rest linear decision value with per-tenant integer weights:
    // exact to recompute on the client, no float wire format needed.
    std::int64_t score = std::int64_t(tenant % 7) - 3;  // bias
    for (std::size_t i = 0; i < features.size(); ++i) {
        std::int64_t w =
            std::int64_t((std::uint64_t(tenant) * 31 + i * 17) % 101) - 50;
        score += w * std::int64_t(features[i]);
    }
    return score;
}

std::string
sqlResultText(bool ok, const std::string& error, std::uint64_t rowsAffected,
              std::size_t rows)
{
    if (!ok) return "err:" + error;
    return "ok:" + std::to_string(rowsAffected) + ":" + std::to_string(rows);
}

Bytes
packSnapshot(const TenantSnapshot& snap)
{
    Bytes out;
    out.resize(4);
    storeLe32(out.data(), std::uint32_t(snap.sessionKey.size()));
    append(out, snap.sessionKey);
    std::size_t at = out.size();
    out.resize(at + 8 + 1 + 4);
    storeLe64(out.data() + at, snap.lastSeq);
    out[at + 8] = snap.seenAny ? 1 : 0;
    storeLe32(out.data() + at + 9, std::uint32_t(snap.sqlJournal.size()));
    for (const auto& stmt : snap.sqlJournal) {
        at = out.size();
        out.resize(at + 4);
        storeLe32(out.data() + at, std::uint32_t(stmt.size()));
        append(out, ByteView(
            reinterpret_cast<const std::uint8_t*>(stmt.data()), stmt.size()));
    }
    return out;
}

Result<TenantSnapshot>
parseSnapshot(ByteView blob)
{
    TenantSnapshot snap;
    std::size_t off = 0;
    if (blob.size() < 4) return Err::BadCallBuffer;
    const std::uint32_t keyLen = loadLe32(blob.data());
    off = 4;
    if (blob.size() - off < keyLen) return Err::BadCallBuffer;
    snap.sessionKey.assign(blob.begin() + off, blob.begin() + off + keyLen);
    off += keyLen;
    if (blob.size() - off < 8 + 1 + 4) return Err::BadCallBuffer;
    snap.lastSeq = loadLe64(blob.data() + off);
    snap.seenAny = blob[off + 8] != 0;
    const std::uint32_t count = loadLe32(blob.data() + off + 9);
    off += 13;
    snap.sqlJournal.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        if (blob.size() - off < 4) return Err::BadCallBuffer;
        const std::uint32_t len = loadLe32(blob.data() + off);
        off += 4;
        if (blob.size() - off < len) return Err::BadCallBuffer;
        snap.sqlJournal.emplace_back(
            reinterpret_cast<const char*>(blob.data() + off), len);
        off += len;
    }
    if (off != blob.size()) return Err::BadCallBuffer;
    return snap;
}

Bytes
packBatch(std::uint32_t slot, const std::vector<ByteView>& msgs)
{
    std::size_t total = 8;
    for (ByteView m : msgs) total += 4 + m.size();
    Bytes out(total);
    storeLe32(out.data(), slot);
    storeLe32(out.data() + 4, std::uint32_t(msgs.size()));
    std::size_t at = 8;
    for (ByteView m : msgs) {
        storeLe32(out.data() + at, std::uint32_t(m.size()));
        at += 4;
        std::copy(m.begin(), m.end(), out.begin() + at);
        at += m.size();
    }
    return out;
}

Bytes
packResponses(const std::vector<Bytes>& msgs)
{
    std::size_t total = 4;
    for (const Bytes& m : msgs) total += 4 + m.size();
    Bytes out(total);
    storeLe32(out.data(), std::uint32_t(msgs.size()));
    std::size_t at = 4;
    for (const Bytes& m : msgs) {
        storeLe32(out.data() + at, std::uint32_t(m.size()));
        at += 4;
        std::copy(m.begin(), m.end(), out.begin() + at);
        at += m.size();
    }
    return out;
}

Result<ParsedBatch>
parseBatch(ByteView blob)
{
    if (blob.size() < 8) return Err::BadCallBuffer;
    ParsedBatch out;
    out.slot = loadLe32(blob.data());
    std::uint32_t count = loadLe32(blob.data() + 4);
    std::size_t at = 8;
#ifndef NESGX_BUG_BATCH_COUNT_UNCHECKED
    // The host writes `count`: every message takes at least its 4-byte
    // length, so refuse a count the blob cannot hold before allocating.
    if (count > (blob.size() - at) / 4) return Err::BadCallBuffer;
#endif
    out.msgs.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        if (at + 4 > blob.size()) return Err::BadCallBuffer;
        std::uint32_t len = loadLe32(blob.data() + at);
        at += 4;
        if (at + len > blob.size()) return Err::BadCallBuffer;
        out.msgs.push_back(blob.subspan(at, len));
        at += len;
    }
    return out;
}

Result<std::vector<Bytes>>
parseResponses(ByteView blob)
{
    if (blob.size() < 4) return Err::BadCallBuffer;
    std::uint32_t count = loadLe32(blob.data());
    std::size_t at = 4;
#ifndef NESGX_BUG_BATCH_COUNT_UNCHECKED
    if (count > (blob.size() - at) / 4) return Err::BadCallBuffer;
#endif
    std::vector<Bytes> out;
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        if (at + 4 > blob.size()) return Err::BadCallBuffer;
        std::uint32_t len = loadLe32(blob.data() + at);
        at += 4;
        if (at + len > blob.size()) return Err::BadCallBuffer;
        out.emplace_back(blob.begin() + at, blob.begin() + at + len);
        at += len;
    }
    return out;
}

}  // namespace nesgx::serve
