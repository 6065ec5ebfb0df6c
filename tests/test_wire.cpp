/**
 * The host/enclave wire formats. Each keeps its bytes: a fixed corpus
 * is encoded and its SHA-256 pinned, including a batch served through a
 * registry-built tenant, the session it exports and the pages EWB writes
 * out. And every parser refuses, typed and without throwing, each strict
 * prefix of a valid blob and each blob whose count word claims
 * 0xFFFFFFFF elements.
 */
#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "attest/verifier.h"
#include "harness.h"
#include "serve/client.h"
#include "serve/registry.h"
#include "sgx/sigstruct.h"

namespace nesgx::test {
namespace {

using serve::Workload;

std::string
digestOf(ByteView bytes)
{
    const crypto::Sha256Digest d = crypto::Sha256::hash(bytes);
    return toHex(ByteView(d.data(), d.size()));
}

sgx::Measurement
measurementOf(std::uint8_t seed)
{
    sgx::Measurement m{};
    for (std::size_t i = 0; i < m.size(); ++i) {
        m[i] = std::uint8_t(seed + i);
    }
    return m;
}

/** A 16-byte key cut from measurementOf(seed). */
Bytes
keyOf(std::uint8_t seed)
{
    const sgx::Measurement m = measurementOf(seed);
    return Bytes(m.begin(), m.begin() + 16);
}

/** One outer, two inners, every field distinct. */
sgx::NestedReport
fixedReport()
{
    sgx::NestedReport r;
    r.base.mrenclave = measurementOf(0x10);
    r.base.mrsigner = measurementOf(0x30);
    r.base.attributes = 0x0102030405060708ull;
    for (std::size_t i = 0; i < r.base.reportData.size(); ++i) {
        r.base.reportData[i] = std::uint8_t(0x80 + i);
    }
    r.base.mac = measurementOf(0x50);
    r.outerMeasurement = measurementOf(0x70);
    r.chainDepth = 2;
    r.outerMeasurements = {measurementOf(0x70)};
    r.innerMeasurements = {measurementOf(0x90), measurementOf(0xb0)};
    r.mac = measurementOf(0xd0);
    return r;
}

sgx::SigStruct
fixedSigStruct()
{
    sgx::SigStruct s;
    s.enclaveHash = measurementOf(0x01);
    s.attributes = 0x11;
    sgx::PeerExpectation byEnclave;
    byEnclave.mrenclave = measurementOf(0x21);
    sgx::PeerExpectation bySigner;
    bySigner.mrsigner = measurementOf(0x41);
    s.expectedOuter = bySigner;
    s.allowedInners = {byEnclave, bySigner};
    return s;
}

serve::TenantSnapshot
fixedSnapshot()
{
    serve::TenantSnapshot snap;
    snap.sessionKey = keyOf(0x61);
    snap.lastSeq = 0x1122334455667788ull;
    snap.seenAny = true;
    snap.sqlJournal = {"CREATE TABLE t (k, v)",
                       "INSERT INTO t VALUES (1, 'a')", ""};
    return snap;
}

const Bytes kMsgA = bytesOf("first message");
const Bytes kMsgB;
const Bytes kMsgC(300, 0x5a);

Bytes
fixedSealed()
{
    return serve::sealMessage(crypto::AesGcm(keyOf(0x07)), 7,
                              serve::kDirRequest,
                              0x0a0b0c0d0e0f1011ull, kMsgA);
}

/** The fixed corpus, one encoding per format. */
std::map<std::string, Bytes>
corpus()
{
    const Bytes sealed = fixedSealed();
    const sgx::NestedReport report = fixedReport();
    return {
        {"tenantKey", serve::tenantKey(7)},
        {"sealedMessage", sealed},
        {"epochStamp", serve::stampEpoch(9, sealed)},
        {"snapshot", serve::packSnapshot(fixedSnapshot())},
        {"batch", serve::packBatch(3, {kMsgA, kMsgB, kMsgC})},
        {"responses", serve::packResponses({kMsgA, kMsgB, kMsgC})},
        {"reportBody", report.base.macBody()},
        {"nestedReportBody", report.macBody()},
        {"sigstructBody", fixedSigStruct().signedBody()},
    };
}

/** What a registry-built svm tenant puts on the wire: a served batch
 *  (descriptor, length reply and score reply inside it), the session
 *  it exports and the pages EWB writes out, which ELDU must take back. */
std::map<std::string, Bytes>
servedCorpus()
{
    World world;
    serve::TenantRegistry registry(*world.urts, {});
    serve::TenantHandle* tenant =
        registry.ensure(5, Workload::Svm).orThrow("ensure");
    tenant->verified = true;
    serve::TenantClient client(5, Workload::Svm);

    std::map<std::string, Bytes> out;
    const Bytes request = client.nextRequest();
    auto served = registry.dispatch(
        *tenant, serve::packBatch(tenant->slot, {request}), 0);
    EXPECT_TRUE(served.isOk()) << errName(served.code());
    out["servedBatch"] = served.isOk() ? served.value() : Bytes{};

    auto exported =
        registry.exportInner(tenant->inner, tenant->inner->mrenclave());
    EXPECT_TRUE(exported.isOk()) << errName(exported.code());
    out["exportedSession"] = exported.isOk() ? exported.value() : Bytes{};

    EXPECT_GT(registry.evictTenant(*tenant), 0u);
    const os::EnclaveRecord* rec =
        world.kernel.enclaveRecord(tenant->inner->secsPage());
    Bytes pages;
    for (const auto& [va, page] : rec->evicted) {
        append(pages, page.iv);
        append(pages, page.ciphertext);
    }
    out["evictedPages"] = pages;
    auto reloaded = registry.ensureResident(*tenant);
    EXPECT_TRUE(reloaded.isOk()) << errName(reloaded.code());
    return out;
}

TEST(Wire, EveryFormatKeepsItsBytes)
{
    const std::map<std::string, std::string> pinned = {
        {"batch",
         "fb49808a5689fcb08dbd72ada0ec7a75898dc20636fbaef230ebaad4ece6eb7c"},
        {"epochStamp",
         "b855ff2b1f08fdd9b4c3d73992fbd06bbbf49c127d5e2f08aa9fd9da54cc6cd3"},
        {"evictedPages",
         "d31d59b080bf661b24d06ebcf4617a522dd238dd50844a2a1a4e34c28cb81cc6"},
        {"exportedSession",
         "5ead14b64c5ab08bdaba510e7cdb971ffdeea2b3a3610ffcc6f7d610f111769c"},
        {"nestedReportBody",
         "fe1a46bce7e52491345c2de689e4a141226211213ee736837c76f6111b70ed88"},
        {"reportBody",
         "73c3e2819997c181bd7283e707a23db0c482d0a08977daf947c3bce34f8ae7fe"},
        {"responses",
         "3e752932a3289cf89e5c46b58efcdf16f8dc0a9971e3ce1e75eb4608d5fc6b30"},
        {"sealedMessage",
         "89f55a591fe26670af34f1d228c502e32fc17775d0429374eab1d5ab9b57c6d7"},
        {"servedBatch",
         "23f867030afca821d4d59c62225753c71be813f8a1d399829eb579a173fcf9fe"},
        {"sigstructBody",
         "5afc7a6ff04dc7f2ee83b9853ecf1446323b5eb15199ef766b18a70699541685"},
        {"snapshot",
         "4863383a498145bc67425528ead1160114ee5b3e76981115b42785a3df113fee"},
        {"tenantKey",
         "13be11ee542aa26b5539cc4f4913e0ea94888d6e3fc827b266bed3aeedeb241a"},
    };
    auto all = corpus();
    all.merge(servedCorpus());
    EXPECT_EQ(all.size(), pinned.size());
    for (const auto& [name, bytes] : all) {
        EXPECT_EQ(digestOf(bytes), pinned.at(name)) << name;
    }
    // The evidence orders its fields as the MAC body does, then the two
    // MACs; its length is that of the field set.
    EXPECT_EQ(attest::encodeNestedReport(fixedReport()).size(), 340u);
}

/** A parser under test: the code it returns for a blob. */
using Parse = std::function<Err(ByteView)>;

template <class T>
Parse
parser(Result<T> (*parse)(ByteView))
{
    return [parse](ByteView blob) { return parse(blob).code(); };
}

TEST(Wire, EveryStrictPrefixIsRefused)
{
    const crypto::AesGcm gcm(keyOf(0x07));
    const Parse openSealed = [&](ByteView blob) {
        return serve::openMessage(gcm, 7, serve::kDirRequest, blob).code();
    };
    // A stamped request is refused if either layer refuses it: the host
    // splits the stamp, the inner opens the seal.
    const Parse openStamped = [&](ByteView blob) {
        std::uint64_t epoch = 0;
        Bytes sealed;
        if (!serve::splitEpoch(blob, &epoch, &sealed)) {
            return Err::BadCallBuffer;
        }
        return openSealed(sealed);
    };

    const sgx::NestedReport report = fixedReport();
    const std::size_t keyLen = fixedSnapshot().sessionKey.size();
    // The evidence's two counts follow the report body (136 bytes), the
    // chain depth and the primary outer; the inner count follows the
    // outers.
    const std::size_t outerCountAt = 136 + 4 + 32;
    const std::size_t innerCountAt =
        outerCountAt + 4 + 32 * report.outerMeasurements.size();
    struct Case {
        const char* name;
        Bytes blob;
        Parse parse;
        std::vector<std::size_t> countWords;
    };
    const std::vector<Case> cases = {
        {"batch", serve::packBatch(3, {kMsgA, kMsgB, kMsgC}),
         parser(&serve::parseBatch), {4}},
        {"responses", serve::packResponses({kMsgA, kMsgB, kMsgC}),
         parser(&serve::parseResponses), {0}},
        {"snapshot", serve::packSnapshot(fixedSnapshot()),
         parser(&serve::parseSnapshot), {0, 4 + keyLen + 9}},
        {"evidence", attest::encodeNestedReport(report),
         parser(&attest::decodeNestedReport), {outerCountAt, innerCountAt}},
        {"sealedMessage", fixedSealed(), openSealed, {}},
        {"epochStamp", serve::stampEpoch(9, fixedSealed()), openStamped, {}},
    };

    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        ASSERT_EQ(c.parse(c.blob), Err::Ok);
        for (std::size_t len = 0; len < c.blob.size(); ++len) {
            Err code = Err::Ok;
            EXPECT_NO_THROW(code = c.parse(ByteView(c.blob.data(), len)));
            EXPECT_NE(code, Err::Ok) << "prefix of " << len << " bytes";
        }
        for (std::size_t at : c.countWords) {
            Bytes lie = c.blob;
            storeLe32(lie.data() + at, 0xFFFFFFFFu);
            Err code = Err::Ok;
            EXPECT_NO_THROW(code = c.parse(lie));
            EXPECT_EQ(code, Err::BadCallBuffer) << "count word at " << at;
        }
    }
}

}  // namespace
}  // namespace nesgx::test
