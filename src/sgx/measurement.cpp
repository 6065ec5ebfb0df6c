#include "sgx/measurement.h"

#include <cstring>

namespace nesgx::sgx {

namespace {

const std::uint8_t kZeroPage[hw::kPageSize] = {};

void
foldTag(crypto::Sha256& ctx, const char* tag)
{
    std::uint8_t buf[8] = {0};
    for (int i = 0; i < 8 && tag[i]; ++i) buf[i] = std::uint8_t(tag[i]);
    ctx.update(ByteView(buf, 8));
}

void
foldU64(crypto::Sha256& ctx, std::uint64_t v)
{
    std::uint8_t buf[8];
    storeLe64(buf, v);
    ctx.update(ByteView(buf, 8));
}

}  // namespace

void
MeasurementLog::recordCreate(std::uint64_t enclaveSize)
{
    foldTag(ctx_, "ECREATE");
    foldU64(ctx_, enclaveSize);
}

void
MeasurementLog::recordAdd(std::uint64_t pageOffset, PageType type,
                          PagePerms perms)
{
    foldTag(ctx_, "EADD");
    foldU64(ctx_, pageOffset);
    foldU64(ctx_, std::uint64_t(type));
    foldU64(ctx_, perms.bits());
}

void
MeasurementLog::extendPage(std::uint64_t pageOffset, const std::uint8_t* page)
{
    for (std::uint64_t off = 0; off < hw::kPageSize; off += kMeasureChunk) {
        foldTag(ctx_, "EEXTEND");
        foldU64(ctx_, pageOffset + off);
        ctx_.update(ByteView(page + off, kMeasureChunk));
    }
}

Measurement
MeasurementLog::finalize()
{
    return ctx_.finish();
}

void
PageFoldMemo::extendPage(MeasurementLog& log, std::uint64_t pageOffset,
                         const std::uint8_t* page)
{
    const std::uint64_t key =
        log.ctx_.stateHash() ^ (pageOffset * 0x9e3779b97f4a7c15ull);
    auto [first, last] = folds_.equal_range(key);
    for (auto it = first; it != last; ++it) {
        const Fold& fold = it->second;
        if (fold.pageOffset != pageOffset || !fold.before.sameState(log.ctx_)) {
            continue;
        }
#ifndef NESGX_BUG_PAGE_FOLD_UNCHECKED
        const std::uint8_t* stored =
            fold.page.empty() ? kZeroPage : fold.page.data();
        if (std::memcmp(page, stored, hw::kPageSize) != 0) continue;
#endif
        log.ctx_ = fold.after;
        ++hits_;
        return;
    }

    const crypto::Sha256 before = log.ctx_;
    log.extendPage(pageOffset, page);
    Fold fold{before, pageOffset, {}, log.ctx_};
    if (std::memcmp(page, kZeroPage, hw::kPageSize) != 0) {
        fold.page.assign(page, page + hw::kPageSize);
    }
    if (folds_.size() >= kCapacity) folds_.clear();
    folds_.emplace(key, std::move(fold));
}

}  // namespace nesgx::sgx
