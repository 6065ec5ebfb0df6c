#include "serve/protocol.h"

#include "crypto/sha256.h"
#include "support/wire.h"

namespace nesgx::serve {

Bytes
tenantKey(TenantId tenant)
{
    WireWriter seed;
    seed.bytes(bytesOf("nesgx-serve-tenant-key")).u32(tenant);
    auto digest = crypto::Sha256::hash(seed.take());
    return Bytes(digest.begin(), digest.begin() + 16);
}

namespace {

Bytes
messageIv(std::uint8_t dir, std::uint64_t seq)
{
    return WireWriter(crypto::kGcmIvSize)
        .u64(seq).u8(dir).u8(0).u8(0).u8(0).take();
}

Bytes
messageAad(TenantId tenant, std::uint8_t dir, std::uint64_t seq)
{
    return WireWriter(13).u32(tenant).u8(dir).u64(seq).take();
}

/** The list both batch directions and the snapshot's journal carry:
 *  [u32 count] then count x [u32 len][bytes]. */
template <class Msgs>
std::size_t
listBytes(const Msgs& msgs)
{
    std::size_t n = 4;
    for (const auto& m : msgs) n += 4 + m.size();
    return n;
}

/** Appends the list and takes the encoding: each list ends its format. */
template <class Msgs>
Bytes
takeWithList(WireWriter& w, const Msgs& msgs)
{
    w.u32(std::uint32_t(msgs.size()));
    for (const auto& m : msgs) w.blob(m);
    return w.take();
}

/** Every element takes at least its 4-byte length, which bounds the
 *  host-written count before anything is allocated for it. */
template <class Msg>
std::vector<Msg>
readList(WireReader& r)
{
    std::vector<Msg> out;
    const std::uint32_t count = r.count(4);
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        const ByteView m = r.blob();
        out.emplace_back(m.begin(), m.end());
    }
    return out;
}

}  // namespace

Bytes
sealMessage(const crypto::AesGcm& gcm, TenantId tenant, std::uint8_t dir,
            std::uint64_t seq, ByteView plain)
{
    const Bytes sealed = gcm.seal(messageIv(dir, seq),
                                  messageAad(tenant, dir, seq), plain);
    return WireWriter(8 + sealed.size()).u64(seq).bytes(sealed).take();
}

Bytes
stampEpoch(std::uint64_t epoch, ByteView sealed)
{
    return WireWriter(8 + sealed.size()).u64(epoch).bytes(sealed).take();
}

bool
splitEpoch(ByteView stamped, std::uint64_t* epoch, Bytes* sealed)
{
    WireReader r(stamped);
    *epoch = r.u64();
    const ByteView rest = r.rest();
    sealed->assign(rest.begin(), rest.end());
    return r.done();
}

Result<OpenedMessage>
openMessage(const crypto::AesGcm& gcm, TenantId tenant, std::uint8_t dir,
            ByteView sealed)
{
    WireReader r(sealed);
    OpenedMessage out;
    out.seq = r.u64();
    const ByteView body = r.rest();
    if (!r.done()) return Err::BadCallBuffer;
    // open() refuses a body too short for its tag with the same code.
    auto plain = gcm.open(messageIv(dir, out.seq),
                          messageAad(tenant, dir, out.seq), body);
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
    WireWriter w;
    w.blob(snap.sessionKey).u64(snap.lastSeq).u8(snap.seenAny ? 1 : 0);
    return takeWithList(w, snap.sqlJournal);
}

Result<TenantSnapshot>
parseSnapshot(ByteView blob)
{
    WireReader r(blob);
    TenantSnapshot snap;
    const ByteView key = r.blob();
    snap.sessionKey.assign(key.begin(), key.end());
    snap.lastSeq = r.u64();
    snap.seenAny = r.u8() != 0;
    snap.sqlJournal = readList<std::string>(r);
    if (!r.done()) return Err::BadCallBuffer;
    return snap;
}

Bytes
packBatch(std::uint32_t slot, const std::vector<ByteView>& msgs)
{
    WireWriter w(4 + listBytes(msgs));
    return takeWithList(w.u32(slot), msgs);
}

Bytes
packResponses(const std::vector<Bytes>& msgs)
{
    WireWriter w(listBytes(msgs));
    return takeWithList(w, msgs);
}

Result<ParsedBatch>
parseBatch(ByteView blob)
{
    WireReader r(blob);
    ParsedBatch out;
    out.slot = r.u32();
    out.msgs = readList<ByteView>(r);
    if (!r.done()) return Err::BadCallBuffer;
    return out;
}

Result<std::vector<Bytes>>
parseResponses(ByteView blob)
{
    WireReader r(blob);
    std::vector<Bytes> out = readList<Bytes>(r);
    if (!r.done()) return Err::BadCallBuffer;
    return out;
}

}  // namespace nesgx::serve
