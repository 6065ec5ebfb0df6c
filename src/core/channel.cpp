#include "core/channel.h"

namespace nesgx::core {

namespace {

constexpr std::uint64_t kHeaderBytes = 16;  // head + tail cursors

/** Copies into a ring with wrap-around via validated enclave writes. */
Status
ringWrite(sdk::TrustedEnv& env, hw::Vaddr dataVa, std::uint64_t capacity,
          std::uint64_t offset, ByteView bytes)
{
    std::uint64_t pos = offset % capacity;
    std::uint64_t first = std::min<std::uint64_t>(bytes.size(), capacity - pos);
    Status st = env.writeBytes(dataVa + pos, ByteView(bytes.data(), first));
    if (!st) return st;
    if (first < bytes.size()) {
        st = env.writeBytes(dataVa, ByteView(bytes.data() + first,
                                             bytes.size() - first));
    }
    return st;
}

Result<Bytes>
ringRead(sdk::TrustedEnv& env, hw::Vaddr dataVa, std::uint64_t capacity,
         std::uint64_t offset, std::uint64_t len)
{
    std::uint64_t pos = offset % capacity;
    std::uint64_t first = std::min<std::uint64_t>(len, capacity - pos);
    auto head = env.readBytes(dataVa + pos, first);
    if (!head) return head.status();
    Bytes out = std::move(head.value());
    if (first < len) {
        auto rest = env.readBytes(dataVa, len - first);
        if (!rest) return rest.status();
        append(out, rest.value());
    }
    return out;
}

}  // namespace

// ------------------------------------------------------------- OuterChannel

Result<OuterChannel>
OuterChannel::create(sdk::LoadedEnclave& owner, std::uint64_t capacity)
{
    hw::Vaddr base = owner.heap().alloc(kHeaderBytes + capacity);
    if (base == 0) return Err::OutOfMemory;
    OuterChannel ch;
    ch.headVa_ = base;
    ch.tailVa_ = base + 8;
    ch.dataVa_ = base + kHeaderBytes;
    ch.capacity_ = capacity;
    return ch;
}

Status
OuterChannel::send(sdk::TrustedEnv& env, ByteView message) const
{
    auto head = env.readU64(headVa_);
    if (!head) return head.status();
    auto tail = env.readU64(tailVa_);
    if (!tail) return tail.status();

    std::uint64_t need = 8 + message.size();
    if (need > capacity_ - (tail.value() - head.value())) {
        return Err::OutOfMemory;
    }

    std::uint8_t lenBuf[8];
    storeLe64(lenBuf, message.size());
    Status st = ringWrite(env, dataVa_, capacity_, tail.value(),
                          ByteView(lenBuf, 8));
    if (!st) return st;
    st = ringWrite(env, dataVa_, capacity_, tail.value() + 8, message);
    if (!st) return st;
    return env.writeU64(tailVa_, tail.value() + need);
}

Result<Bytes>
OuterChannel::recv(sdk::TrustedEnv& env) const
{
    auto head = env.readU64(headVa_);
    if (!head) return head.status();
    auto tail = env.readU64(tailVa_);
    if (!tail) return tail.status();
    if (head.value() == tail.value()) return Err::BadCallBuffer;  // empty

    auto lenBytes = ringRead(env, dataVa_, capacity_, head.value(), 8);
    if (!lenBytes) return lenBytes.status();
    std::uint64_t len = loadLe64(lenBytes.value().data());
    if (len > capacity_) return Err::BadCallBuffer;

    auto body = ringRead(env, dataVa_, capacity_, head.value() + 8, len);
    if (!body) return body.status();
    Status st = env.writeU64(headVa_, head.value() + 8 + len);
    if (!st) return st;
    return body;
}

Result<bool>
OuterChannel::empty(sdk::TrustedEnv& env) const
{
    auto head = env.readU64(headVa_);
    if (!head) return head.status();
    auto tail = env.readU64(tailVa_);
    if (!tail) return tail.status();
    return head.value() == tail.value();
}

// --------------------------------------------------------------- GcmChannel

Result<GcmChannel>
GcmChannel::create(sdk::Urts& urts, std::uint64_t capacity, ByteView key)
{
    GcmChannel ch;
    std::uint64_t pages = (capacity + hw::kPageSize - 1) / hw::kPageSize;
    ch.dataVa_ = urts.kernel().mapUntrusted(urts.pid(), pages);
    ch.capacity_ = pages * hw::kPageSize;
    ch.gcm_ = std::make_unique<crypto::AesGcm>(key);
    return ch;
}

Status
GcmChannel::send(sdk::TrustedEnv& env, ByteView message)
{
    // Software authenticated encryption before anything leaves the
    // enclave: IV from the sequence number, AAD binds the sequence.
    Bytes iv(crypto::kGcmIvSize, 0);
    storeLe64(iv.data(), sendSeq_);
    Bytes aad(8);
    storeLe64(aad.data(), sendSeq_);
    Bytes sealed = gcm_->seal(iv, aad, message);
    env.chargeGcm(message.size());
    ++sendSeq_;

    std::uint64_t need = 8 + sealed.size();
    if (need > capacity_ - (tail_ - head_)) return Err::OutOfMemory;

    std::uint8_t lenBuf[8];
    storeLe64(lenBuf, sealed.size());
    Status st =
        ringWrite(env, dataVa_, capacity_, tail_, ByteView(lenBuf, 8));
    if (!st) return st;
    st = ringWrite(env, dataVa_, capacity_, tail_ + 8, sealed);
    if (!st) return st;
    tail_ += need;
    return Status::ok();
}

Result<Bytes>
GcmChannel::recv(sdk::TrustedEnv& env)
{
    if (head_ == tail_) return Err::BadCallBuffer;  // empty

    auto lenBytes = ringRead(env, dataVa_, capacity_, head_, 8);
    if (!lenBytes) return lenBytes.status();
    std::uint64_t len = loadLe64(lenBytes.value().data());
    if (len > capacity_) return Err::BadCallBuffer;

    auto sealed = ringRead(env, dataVa_, capacity_, head_ + 8, len);
    if (!sealed) return sealed.status();

    Bytes iv(crypto::kGcmIvSize, 0);
    storeLe64(iv.data(), recvSeq_);
    Bytes aad(8);
    storeLe64(aad.data(), recvSeq_);
    auto plain = gcm_->open(iv, aad, sealed.value());
    if (!plain) return plain.status();
    env.chargeGcm(plain.value().size());
    ++recvSeq_;
    head_ += 8 + len;
    return plain;
}

Status
GcmChannel::tamperNext(sdk::Urts& urts, hw::CoreId core)
{
    if (head_ == tail_) return Err::BadCallBuffer;
    // The OS flips one ciphertext bit of the pending message in place.
    std::uint64_t pos = (head_ + 8) % capacity_;
    auto pa = urts.machine().translate(core, dataVa_ + pos, hw::Access::Read);
    if (!pa) return pa.status();
    std::uint8_t b = *urts.machine().mem().raw(pa.value());
    b ^= 0x01;
    urts.machine().mem().write(pa.value(), &b, 1);
    return Status::ok();
}

}  // namespace nesgx::core
