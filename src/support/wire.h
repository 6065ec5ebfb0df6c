/**
 * WireWriter and WireReader: the one codec for the byte formats that
 * cross the host/enclave boundary, and for the SGX model's MAC'ed and
 * signed bodies. Integers are little-endian.
 *
 * The reader treats its input as hostile. Its first short read latches
 * it: that read consumes the rest, and from then on every read returns
 * zero or an empty view. A parser reads its format straight through and
 * checks once at the end: done() when the format fills its input, ok()
 * when it heads opaque bytes. count() refuses an element count that the
 * remaining bytes cannot hold, before the caller allocates for it.
 */
#pragma once

#include <algorithm>
#include <array>

#include "support/bytes.h"

namespace nesgx {

class WireWriter {
  public:
    /** `reserve`: the encoded size, where known (one allocation). */
    explicit WireWriter(std::size_t reserve = 0) { out_.reserve(reserve); }

    WireWriter& u8(std::uint8_t v) { return le(v, 1); }
    WireWriter& u32(std::uint32_t v) { return le(v, 4); }
    WireWriter& u64(std::uint64_t v) { return le(v, 8); }
    /** Raw bytes, no length. */
    WireWriter& bytes(ByteView v)
    {
        out_.insert(out_.end(), v.begin(), v.end());
        return *this;
    }
    /** [u32 len][bytes] of a byte or char range. */
    template <class Range>
    WireWriter& blob(const Range& r)
    {
        auto* p = reinterpret_cast<const std::uint8_t*>(r.data());
        return u32(std::uint32_t(r.size())).bytes(ByteView(p, r.size()));
    }
    Bytes take() { return std::move(out_); }

  private:
    WireWriter& le(std::uint64_t v, std::size_t n)
    {
        for (; n > 0; --n, v >>= 8) out_.push_back(std::uint8_t(v));
        return *this;
    }

    Bytes out_;
};

class WireReader {
  public:
    explicit WireReader(ByteView in) : in_(in) {}

    std::uint8_t u8() { return std::uint8_t(le(1)); }
    std::uint32_t u32() { return std::uint32_t(le(4)); }
    std::uint64_t u64() { return le(8); }
    /** The next `n` bytes, viewed in place; empty when short. */
    ByteView bytes(std::size_t n)
    {
        if (!ok_ || in_.size() - at_ < n) return refuse();
        at_ += n;
        return in_.subspan(at_ - n, n);
    }
    /** A fixed-size field; left as it is when short. */
    template <std::size_t N>
    void fill(std::array<std::uint8_t, N>& out)
    {
        const ByteView b = bytes(N);
        std::copy(b.begin(), b.end(), out.begin());
    }
    /** [u32 len][bytes]. */
    ByteView blob() { return bytes(u32()); }
    ByteView rest() { return bytes(in_.size() - at_); }
    /** A u32 count of elements of at least `minBytes` each; refused,
     *  as 0, when the bytes left cannot hold that many. */
    std::uint32_t count(std::size_t minBytes)
    {
        const std::uint32_t n = u32();
#ifndef NESGX_BUG_BATCH_COUNT_UNCHECKED
        if (n > (in_.size() - at_) / minBytes) refuse();
#endif
        return ok_ ? n : 0;
    }
    bool ok() const { return ok_; }
    /** ok(), and every byte read. */
    bool done() const { return ok_ && at_ == in_.size(); }

  private:
    std::uint64_t le(std::size_t n)
    {
        const ByteView b = bytes(n);
        std::uint64_t v = 0;
        for (std::size_t i = b.size(); i-- > 0;) v = v << 8 | b[i];
        return v;
    }
    /** Latches the reader; the refused read's empty view. */
    ByteView refuse()
    {
        at_ = in_.size();
#ifndef NESGX_BUG_WIRE_UNLATCHED
        ok_ = false;
#endif
        return {};
    }

    ByteView in_;
    std::size_t at_ = 0;
    bool ok_ = true;
};

}  // namespace nesgx
