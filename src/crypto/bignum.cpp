#include "crypto/bignum.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace nesgx::crypto {

namespace {

using Word = std::uint64_t;
using Wide = unsigned __int128;

/** Little-endian 32-bit limbs, zero-extended into k 64-bit words. */
std::vector<Word>
toWords(const std::vector<std::uint32_t>& limbs, std::size_t k)
{
    std::vector<Word> out(k, 0);
    for (std::size_t i = 0; i < limbs.size(); ++i) {
        out[i / 2] |= Word(limbs[i]) << (32 * (i % 2));
    }
    return out;
}

/**
 * Montgomery multiplication modulo an odd m of k 64-bit words, R = 2^(64k),
 * by CIOS (Koc, Acar and Kaliski, 1996): each outer step adds one row
 * a * b[i] and one word of reduction q * m, then drops the now-zero low
 * word, so the running sum stays within k + 2 words and no division runs.
 */
class Montgomery {
  public:
    explicit Montgomery(std::vector<Word> m)
        : m_(std::move(m)), k_(m_.size()), mInv_(negInverse(m_[0])),
          t_(k_ + 2)
    {
    }

    /** out = a * b / R mod m, for a, b < m. out may alias a or b. */
    void mul(const Word* a, const Word* b, Word* out)
    {
        const std::size_t k = k_;
        const Word* m = m_.data();
        Word* t = t_.data();
        std::fill(t, t + k + 2, 0);
        for (std::size_t i = 0; i < k; ++i) {
            Word carry = 0;
            for (std::size_t j = 0; j < k; ++j) {
                Wide cur = Wide(a[j]) * b[i] + t[j] + carry;
                t[j] = Word(cur);
                carry = Word(cur >> 64);
            }
            Wide top = Wide(t[k]) + carry;
            t[k] = Word(top);
            t[k + 1] = Word(top >> 64);

            // q makes t + q*m divisible by 2^64; shift down one word.
            const Word q = t[0] * mInv_;
            carry = Word((Wide(q) * m[0] + t[0]) >> 64);
            for (std::size_t j = 1; j < k; ++j) {
                Wide cur = Wide(q) * m[j] + t[j] + carry;
                t[j - 1] = Word(cur);
                carry = Word(cur >> 64);
            }
            top = Wide(t[k]) + carry;
            t[k - 1] = Word(top);
            t[k] = t[k + 1] + Word(top >> 64);
        }

        // t < 2m, so the result is t - m, or t itself when t < m: that is,
        // when the k-word subtraction borrows and t did not spill into t[k].
        Word borrow = 0;
        for (std::size_t j = 0; j < k; ++j) {
            Wide diff = Wide(t[j]) - m[j] - borrow;
            out[j] = Word(diff);
            borrow = Word(diff >> 127);
        }
        if (borrow && t[k] == 0) std::copy(t, t + k, out);
    }

  private:
    /** -m0^-1 mod 2^64 by Newton's iteration, for odd m0. */
    static Word negInverse(Word m0)
    {
        Word inv = m0;  // m0 * m0 == 1 (mod 8): 3 correct bits
        for (int i = 0; i < 5; ++i) inv *= 2 - m0 * inv;  // 6, 12, .., 96
        return 0 - inv;
    }

    std::vector<Word> m_;
    std::size_t k_;
    Word mInv_;
    std::vector<Word> t_;  // CIOS accumulator, k + 2 words
};

}  // namespace

BigUint::BigUint(std::uint64_t v)
{
    if (v != 0) limbs_.push_back(std::uint32_t(v));
    if (v >> 32) limbs_.push_back(std::uint32_t(v >> 32));
}

void
BigUint::trim()
{
    while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUint
BigUint::fromBytesBe(ByteView bytes)
{
    BigUint out;
    out.limbs_.assign((bytes.size() + 3) / 4, 0);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::size_t pos = bytes.size() - 1 - i;  // byte significance
        out.limbs_[pos / 4] |= std::uint32_t(bytes[i]) << (8 * (pos % 4));
    }
    out.trim();
    return out;
}

BigUint
BigUint::fromHex(const std::string& hex)
{
    std::string padded = hex;
    if (padded.size() % 2) padded.insert(padded.begin(), '0');
    return fromBytesBe(nesgx::fromHex(padded));
}

BigUint
BigUint::randomBits(Rng& rng, std::size_t bits)
{
    if (bits == 0) return BigUint();
    BigUint out;
    out.limbs_.assign((bits + 31) / 32, 0);
    for (auto& limb : out.limbs_) limb = std::uint32_t(rng.next());
    std::size_t topBit = (bits - 1) % 32;
    out.limbs_.back() &= (topBit == 31) ? 0xffffffffu
                                        : ((1u << (topBit + 1)) - 1);
    out.limbs_.back() |= 1u << topBit;
    return out;
}

Bytes
BigUint::toBytesBe(std::size_t width) const
{
    std::size_t minBytes = (bitLength() + 7) / 8;
    std::size_t total = std::max(width, std::max<std::size_t>(minBytes, 1));
    if (width != 0 && minBytes > width) {
        throw std::invalid_argument("BigUint::toBytesBe: value wider than width");
    }
    Bytes out(total, 0);
    for (std::size_t i = 0; i < minBytes; ++i) {
        std::uint32_t limb = limbs_[i / 4];
        out[total - 1 - i] = std::uint8_t(limb >> (8 * (i % 4)));
    }
    return out;
}

std::string
BigUint::toHex() const
{
    return nesgx::toHex(toBytesBe());
}

bool
BigUint::isZero() const
{
    return limbs_.empty();
}

bool
BigUint::isOdd() const
{
    return !limbs_.empty() && (limbs_[0] & 1);
}

std::size_t
BigUint::bitLength() const
{
    if (limbs_.empty()) return 0;
    std::uint32_t top = limbs_.back();
    std::size_t bits = (limbs_.size() - 1) * 32;
    while (top) {
        ++bits;
        top >>= 1;
    }
    return bits;
}

bool
BigUint::bit(std::size_t i) const
{
    std::size_t limb = i / 32;
    if (limb >= limbs_.size()) return false;
    return (limbs_[limb] >> (i % 32)) & 1;
}

int
BigUint::compare(const BigUint& a, const BigUint& b)
{
    if (a.limbs_.size() != b.limbs_.size()) {
        return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
    }
    for (std::size_t i = a.limbs_.size(); i-- > 0;) {
        if (a.limbs_[i] != b.limbs_[i]) {
            return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
        }
    }
    return 0;
}

BigUint
BigUint::operator+(const BigUint& o) const
{
    BigUint out;
    std::size_t n = std::max(limbs_.size(), o.limbs_.size());
    out.limbs_.assign(n + 1, 0);
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t sum = carry;
        if (i < limbs_.size()) sum += limbs_[i];
        if (i < o.limbs_.size()) sum += o.limbs_[i];
        out.limbs_[i] = std::uint32_t(sum);
        carry = sum >> 32;
    }
    out.limbs_[n] = std::uint32_t(carry);
    out.trim();
    return out;
}

BigUint
BigUint::operator-(const BigUint& o) const
{
    if (*this < o) {
        throw std::invalid_argument("BigUint: negative subtraction");
    }
    BigUint out;
    out.limbs_.assign(limbs_.size(), 0);
    std::int64_t borrow = 0;
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        std::int64_t diff = std::int64_t(limbs_[i]) - borrow -
            (i < o.limbs_.size() ? std::int64_t(o.limbs_[i]) : 0);
        if (diff < 0) {
            diff += std::int64_t(1) << 32;
            borrow = 1;
        } else {
            borrow = 0;
        }
        out.limbs_[i] = std::uint32_t(diff);
    }
    out.trim();
    return out;
}

BigUint
BigUint::operator*(const BigUint& o) const
{
    if (isZero() || o.isZero()) return BigUint();
    BigUint out;
    out.limbs_.assign(limbs_.size() + o.limbs_.size(), 0);
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        std::uint64_t carry = 0;
        for (std::size_t j = 0; j < o.limbs_.size(); ++j) {
            std::uint64_t cur = out.limbs_[i + j] +
                std::uint64_t(limbs_[i]) * o.limbs_[j] + carry;
            out.limbs_[i + j] = std::uint32_t(cur);
            carry = cur >> 32;
        }
        std::size_t k = i + o.limbs_.size();
        while (carry) {
            std::uint64_t cur = out.limbs_[k] + carry;
            out.limbs_[k] = std::uint32_t(cur);
            carry = cur >> 32;
            ++k;
        }
    }
    out.trim();
    return out;
}

BigUint
BigUint::operator<<(std::size_t bits) const
{
    if (isZero()) return BigUint();
    std::size_t limbShift = bits / 32;
    std::size_t bitShift = bits % 32;
    BigUint out;
    out.limbs_.assign(limbs_.size() + limbShift + 1, 0);
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        std::uint64_t v = std::uint64_t(limbs_[i]) << bitShift;
        out.limbs_[i + limbShift] |= std::uint32_t(v);
        out.limbs_[i + limbShift + 1] |= std::uint32_t(v >> 32);
    }
    out.trim();
    return out;
}

BigUint
BigUint::operator>>(std::size_t bits) const
{
    std::size_t limbShift = bits / 32;
    std::size_t bitShift = bits % 32;
    if (limbShift >= limbs_.size()) return BigUint();
    BigUint out;
    out.limbs_.assign(limbs_.size() - limbShift, 0);
    for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
        std::uint64_t v = limbs_[i + limbShift] >> bitShift;
        if (bitShift && i + limbShift + 1 < limbs_.size()) {
            v |= std::uint64_t(limbs_[i + limbShift + 1]) << (32 - bitShift);
        }
        out.limbs_[i] = std::uint32_t(v);
    }
    out.trim();
    return out;
}

void
BigUint::divMod(const BigUint& num, const BigUint& den, BigUint& q, BigUint& r)
{
    if (den.isZero()) {
        throw std::invalid_argument("BigUint: division by zero");
    }
    q = BigUint();
    r = BigUint();
    if (num < den) {
        r = num;
        return;
    }

    // Single-limb divisor: straight schoolbook word division.
    if (den.limbs_.size() == 1) {
        std::uint64_t d = den.limbs_[0];
        q.limbs_.assign(num.limbs_.size(), 0);
        std::uint64_t rem = 0;
        for (std::size_t i = num.limbs_.size(); i-- > 0;) {
            std::uint64_t cur = (rem << 32) | num.limbs_[i];
            q.limbs_[i] = std::uint32_t(cur / d);
            rem = cur % d;
        }
        q.trim();
        if (rem) r.limbs_.push_back(std::uint32_t(rem));
        return;
    }

    // Knuth Algorithm D (TAOCP vol. 2, 4.3.1) with 32-bit limbs.
    const std::size_t n = den.limbs_.size();
    const std::size_t m = num.limbs_.size() - n;

    // D1: normalize so the divisor's top limb has its high bit set.
    int shift = 0;
    for (std::uint32_t top = den.limbs_.back(); !(top & 0x80000000u);
         top <<= 1) {
        ++shift;
    }
    BigUint u = num << std::size_t(shift);
    BigUint v = den << std::size_t(shift);
    u.limbs_.resize(num.limbs_.size() + 1, 0);  // extra high limb u[m+n]

    q.limbs_.assign(m + 1, 0);
    const std::uint64_t base = 1ull << 32;
    const std::uint64_t vTop = v.limbs_[n - 1];
    const std::uint64_t vNext = v.limbs_[n - 2];

    for (std::size_t j = m + 1; j-- > 0;) {
        // D3: estimate the quotient digit from the top limbs.
        std::uint64_t numer =
            (std::uint64_t(u.limbs_[j + n]) << 32) | u.limbs_[j + n - 1];
        std::uint64_t qhat = numer / vTop;
        std::uint64_t rhat = numer % vTop;
        while (qhat >= base ||
               qhat * vNext > ((rhat << 32) | u.limbs_[j + n - 2])) {
            --qhat;
            rhat += vTop;
            if (rhat >= base) break;
        }

        // D4: multiply-subtract qhat*v from u[j..j+n].
        std::int64_t borrow = 0;
        std::uint64_t carry = 0;
        for (std::size_t i = 0; i < n; ++i) {
            std::uint64_t product = qhat * v.limbs_[i] + carry;
            carry = product >> 32;
            std::int64_t diff = std::int64_t(u.limbs_[i + j]) -
                                std::int64_t(product & 0xffffffffu) - borrow;
            if (diff < 0) {
                diff += std::int64_t(base);
                borrow = 1;
            } else {
                borrow = 0;
            }
            u.limbs_[i + j] = std::uint32_t(diff);
        }
        std::int64_t diff =
            std::int64_t(u.limbs_[j + n]) - std::int64_t(carry) - borrow;
        bool negative = diff < 0;
        u.limbs_[j + n] = std::uint32_t(diff);

        // D5/D6: the estimate was one too large — add the divisor back.
        if (negative) {
            --qhat;
            std::uint64_t addCarry = 0;
            for (std::size_t i = 0; i < n; ++i) {
                std::uint64_t sum =
                    std::uint64_t(u.limbs_[i + j]) + v.limbs_[i] + addCarry;
                u.limbs_[i + j] = std::uint32_t(sum);
                addCarry = sum >> 32;
            }
            u.limbs_[j + n] =
                std::uint32_t(std::uint64_t(u.limbs_[j + n]) + addCarry);
        }
        q.limbs_[j] = std::uint32_t(qhat);
    }
    q.trim();

    // D8: denormalize the remainder.
    u.limbs_.resize(n);
    u.trim();
    r = u >> std::size_t(shift);
}

BigUint
BigUint::operator%(const BigUint& m) const
{
    BigUint q, r;
    divMod(*this, m, q, r);
    return r;
}

BigUint
BigUint::operator/(const BigUint& d) const
{
    BigUint q, r;
    divMod(*this, d, q, r);
    return q;
}

BigUint
BigUint::subMod(const BigUint& o, const BigUint& m) const
{
    if (*this >= o) return *this - o;
    return (*this + m) - o;
}

BigUint
BigUint::mulMod(const BigUint& o, const BigUint& m) const
{
    return (*this * o) % m;
}

BigUint
BigUint::powMod(const BigUint& e, const BigUint& m) const
{
    if (m.isZero()) {
        throw std::invalid_argument("BigUint::powMod: zero modulus");
    }
    if (!m.isOdd()) {
        throw std::invalid_argument("BigUint::powMod: even modulus");
    }
    const std::size_t k = (m.limbs_.size() + 1) / 2;
    Montgomery mont(toWords(m.limbs_, k));

    // Enter the Montgomery domain (x -> xR mod m, R = 2^(64k)) through
    // R^2 mod m. These two reductions are the only divisions: the window
    // loop below runs on preallocated words.
    const std::vector<Word> r2 =
        toWords(((BigUint(1) << (128 * k)) % m).limbs_, k);
    std::vector<Word> base = toWords((*this % m).limbs_, k);
    mont.mul(base.data(), r2.data(), base.data());
    std::vector<Word> one(k, 0);
    one[0] = 1;

    // Fixed 4-bit windows, most significant first; table[i] = base^i * R,
    // built only up to the largest digit the exponent has (65537's
    // digits are 1, 0, 0, 0, 1; a full-width exponent uses all 16).
    const std::size_t windows = (e.bitLength() + 3) / 4;
    auto digit = [&e](std::size_t w) {
        std::size_t idx = 0;
        for (int i = 3; i >= 0; --i) {
            idx = (idx << 1) | (e.bit(w * 4 + std::size_t(i)) ? 1 : 0);
        }
        return idx;
    };
    std::size_t maxDigit = 0;
    for (std::size_t w = 0; w < windows && maxDigit < 15; ++w) {
        maxDigit = std::max(maxDigit, digit(w));
    }
    std::vector<Word> table((maxDigit + 1) * k);
    mont.mul(r2.data(), one.data(), table.data());
    for (std::size_t i = 1; i <= maxDigit; ++i) {
        mont.mul(&table[(i - 1) * k], base.data(), &table[i * k]);
    }
    std::vector<Word> acc(table.begin(), table.begin() + std::ptrdiff_t(k));
    for (std::size_t w = windows; w-- > 0;) {
        if (w != windows - 1) {
            for (int i = 0; i < 4; ++i) {
                mont.mul(acc.data(), acc.data(), acc.data());
            }
        }
        const std::size_t idx = digit(w);
        if (idx) mont.mul(acc.data(), &table[idx * k], acc.data());
    }
    mont.mul(acc.data(), one.data(), acc.data());  // leave the domain

    BigUint out;
    out.limbs_.resize(2 * k);
    for (std::size_t i = 0; i < k; ++i) {
        out.limbs_[2 * i] = std::uint32_t(acc[i]);
        out.limbs_[2 * i + 1] = std::uint32_t(acc[i] >> 32);
    }
    out.trim();
    return out;
}

BigUint
BigUint::gcd(BigUint a, BigUint b)
{
    while (!b.isZero()) {
        BigUint r = a % b;
        a = b;
        b = r;
    }
    return a;
}

BigUint
BigUint::invMod(const BigUint& m) const
{
    // Extended Euclid over signed combinations tracked as (pos, neg) pairs
    // would be tedious; instead use the iterative method with values kept
    // reduced mod m and subtraction order fixed by subMod.
    BigUint r0 = m, r1 = *this % m;
    BigUint t0(0), t1(1);
    while (!r1.isZero()) {
        BigUint q = r0 / r1;
        BigUint r2 = r0 - q * r1;
        BigUint t2 = t0.subMod(q.mulMod(t1, m), m);
        r0 = r1;
        r1 = r2;
        t0 = t1;
        t1 = t2;
    }
    if (r0 != BigUint(1)) {
        throw std::invalid_argument("BigUint::invMod: not invertible");
    }
    return t0 % m;
}

bool
BigUint::isProbablyPrime(Rng& rng, int rounds) const
{
    if (*this < BigUint(2)) return false;
    static const std::uint32_t smallPrimes[] = {2,  3,  5,  7,  11, 13, 17,
                                                19, 23, 29, 31, 37, 41, 43};
    for (std::uint32_t p : smallPrimes) {
        BigUint bp(p);
        if (*this == bp) return true;
        if ((*this % bp).isZero()) return false;
    }

    BigUint nMinus1 = *this - BigUint(1);
    BigUint d = nMinus1;
    std::size_t s = 0;
    while (!d.isOdd()) {
        d = d >> 1;
        ++s;
    }

    for (int round = 0; round < rounds; ++round) {
        // Witness in [2, n-2].
        BigUint a = randomBits(rng, bitLength() - 1) % (nMinus1 - BigUint(2));
        a = a + BigUint(2);
        BigUint x = a.powMod(d, *this);
        if (x == BigUint(1) || x == nMinus1) continue;
        bool witness = true;
        for (std::size_t i = 1; i < s; ++i) {
            x = x.mulMod(x, *this);
            if (x == nMinus1) {
                witness = false;
                break;
            }
        }
        if (witness) return false;
    }
    return true;
}

BigUint
BigUint::generatePrime(Rng& rng, std::size_t bits)
{
    for (;;) {
        BigUint candidate = randomBits(rng, bits);
        if (!candidate.isOdd()) candidate = candidate + BigUint(1);
        if (candidate.isProbablyPrime(rng)) return candidate;
    }
}

}  // namespace nesgx::crypto
