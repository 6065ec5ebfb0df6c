#include "serve/client.h"

#include "support/wire.h"

namespace nesgx::serve {

TenantClient::TenantClient(TenantId tenant, Workload workload,
                           ByteView sessionKey)
    : tenant_(tenant), workload_(workload),
      gcm_(sessionKey.empty() ? crypto::AesGcm(tenantKey(tenant))
                              : crypto::AesGcm(sessionKey)),
      rng_(0x5e7ea11ull * (tenant + 1)),
      backoffRng_(0xbac0ffull * (tenant + 1))
{
}

Bytes
TenantClient::makePlaintext(std::uint64_t seq, Bytes& expectedResponse)
{
    switch (workload_) {
      case Workload::Echo: {
        Bytes payload = rng_.bytes(48 + seq % 96);
        expectedResponse = payload;
        return payload;
      }
      case Workload::Sql: {
        std::string stmt;
        const std::int64_t key = std::int64_t(sqlStep_ % 100);
        if (sqlStep_ == 0) {
            stmt = "CREATE TABLE t (k, v)";
        } else {
            switch (sqlStep_ % 3) {
              case 1:
                stmt = "INSERT INTO t VALUES (" + std::to_string(key) +
                       ", 'v" + std::to_string(sqlStep_) + "')";
                break;
              case 2:
                stmt = "SELECT * FROM t WHERE k = " + std::to_string(key);
                break;
              default:
                stmt = "UPDATE t SET v = 'u" + std::to_string(sqlStep_) +
                       "' WHERE k = " + std::to_string(key);
                break;
            }
        }
        ++sqlStep_;
        // The shadow database mirrors the server's engine statement by
        // statement, so sql expectations are only valid when every
        // request is delivered in order — drive sql tenants without
        // deadline shedding (echo/svm expectations are per-request and
        // tolerate gaps).
        db::QueryResult r = shadowDb_.execute(stmt);
        expectedResponse =
            bytesOf(sqlResultText(r.ok, r.error, r.rowsAffected,
                                  r.rows.size()));
        return bytesOf(stmt);
      }
      case Workload::Svm: {
        Bytes features = rng_.bytes(16);
        expectedResponse =
            WireWriter(8).u64(std::uint64_t(svmScore(tenant_, features)))
                .take();
        return features;
      }
    }
    expectedResponse.clear();
    return Bytes{};
}

Bytes
TenantClient::nextRequest()
{
    const std::uint64_t seq = ++sendSeq_;
    Bytes expectedResponse;
    Bytes plain;
    if (refused_) {
        plain = std::move(refused_->plain);
        expectedResponse = std::move(refused_->expected);
        refused_.reset();
    } else {
        plain = makePlaintext(seq, expectedResponse);
    }
    expected_[seq] = std::move(expectedResponse);
    Bytes sealed = sealMessage(gcm_, tenant_, kDirRequest, seq, plain);
    lastPlain_ = std::move(plain);
    return sealed;
}

Bytes
TenantClient::nextStampedRequest()
{
    return stampEpoch(epoch_, nextRequest());
}

void
TenantClient::onPlacement(std::uint64_t epoch, std::uint64_t incarnation)
{
    if (incarnation_ != 0 && incarnation != incarnation_) onTenantRebuilt();
    epoch_ = epoch;
    incarnation_ = incarnation;
    consecutiveRedirects_ = 0;
}

std::uint64_t
TenantClient::onWrongEpoch()
{
    ++redirects_;
    // 1k cycles doubling per consecutive redirect, capped at ~1M, with
    // up to 50% seeded jitter on top.
    const std::uint64_t shift =
        consecutiveRedirects_ < 10 ? consecutiveRedirects_ : 10;
    ++consecutiveRedirects_;
    const std::uint64_t base = 1000ull << shift;
    return base + backoffRng_.next() % (base / 2 + 1);
}

bool
TenantClient::onResponse(ByteView sealedResponse)
{
    if (sealedResponse.empty()) {
        ++failures_;
        return false;
    }
    auto opened = openMessage(gcm_, tenant_, kDirResponse, sealedResponse);
    if (!opened) {
        ++failures_;
        return false;
    }
    auto it = expected_.find(opened.value().seq);
    if (it == expected_.end() || it->second != opened.value().plain) {
        ++failures_;
        return false;
    }
    expected_.erase(it);
    ++verified_;
    return true;
}

void
TenantClient::onDropped()
{
    if (!expected_.empty()) expected_.erase(expected_.begin());
}

void
TenantClient::onRefused()
{
    auto it = expected_.find(sendSeq_);
    if (it == expected_.end()) return;
    refused_ = Refused{std::move(lastPlain_), std::move(it->second)};
    expected_.erase(it);
}

void
TenantClient::onTenantRebuilt()
{
    // A refused sql statement ran on the shadow that restarts here.
    refused_.reset();
    expected_.clear();
    shadowDb_ = db::Database{};
    sqlStep_ = 0;
    ++rebuildsSeen_;
}

}  // namespace nesgx::serve
