#include "switchless/ring.h"

#include "support/bytes.h"

namespace nesgx::switchless {

namespace {

// Header field offsets.
constexpr std::uint64_t kHeadOff = 0;
constexpr std::uint64_t kTailOff = 8;

// Slot field offsets (relative to the slot base).
constexpr std::uint64_t kSlotLen = 0;
constexpr std::uint64_t kSlotSeq = 8;

}  // namespace

Status
DescRing::writeU64(sgx::Machine& machine, hw::CoreId core, hw::Vaddr va,
                   std::uint64_t v)
{
    std::uint8_t buf[8];
    storeLe64(buf, v);
    return machine.write(core, va, buf, sizeof buf);
}

Result<DescRing::Header>
DescRing::readHeader(sgx::Machine& machine, hw::CoreId core)
{
    std::uint8_t buf[kHeaderBytes];
    Status st = machine.read(core, baseVa_, buf, sizeof buf);
    if (!st) return st;
    return Header{loadLe64(buf + kHeadOff), loadLe64(buf + kTailOff)};
}

hw::Vaddr
DescRing::slotVa(std::uint64_t seq) const
{
    return baseVa_ + kHeaderBytes + (seq % capacity_) * kSlotBytes;
}

Status
DescRing::init(sgx::Machine& machine, hw::CoreId core, hw::Vaddr baseVa,
               std::uint64_t capacity, std::uint64_t ownerEid)
{
    if (baseVa == 0 || capacity == 0) return Err::BadCallBuffer;
    baseVa_ = baseVa;
    capacity_ = capacity;
    ownerEid_ = ownerEid;
    const std::uint8_t empty[kHeaderBytes] = {};
    return machine.write(core, baseVa_, empty, sizeof empty);
}

Status
DescRing::tryPush(sgx::Machine& machine, hw::CoreId core, std::uint64_t len)
{
    auto header = readHeader(machine, core);
    if (!header) return header.status();
    const auto [head, tail] = header.value();

#ifndef NESGX_BUG_RING_WRAP
    // Full ring: refuse, never overwrite an unconsumed slot. The
    // NESGX_BUG_RING_WRAP mutation removes exactly this check — the
    // producer then wraps onto a live slot and bumps the tail past
    // `head + capacity`. The consumer's bound in tryPop refuses that
    // header before the overwritten slot can surface, so the posts stay
    // unmatched and the TraceSwitchlessPairing rule flags them.
    if (tail - head >= capacity_) return Err::Backpressure;
#endif

    std::uint8_t slot[kSlotBytes];
    storeLe64(slot + kSlotLen, len);
    storeLe64(slot + kSlotSeq, tail);
    Status st = machine.write(core, slotVa(tail), slot, sizeof slot);
    if (!st) return st;

    // Publish the slot before the tail bump, mirroring the release-store
    // ordering a real SPSC ring needs.
    st = writeU64(machine, core, baseVa_ + kTailOff, tail + 1);
    if (!st) return st;

    machine.trace().publishLight(trace::EventKind::SwitchlessPost, core,
                                 ownerEid_, baseVa_, tail);
    machine.ringDoorbell(core, baseVa_);
    return Status::ok();
}

Result<Desc>
DescRing::tryPop(sgx::Machine& machine, hw::CoreId core)
{
    machine.ringPoll(core, baseVa_);
    auto header = readHeader(machine, core);
    if (!header) return header.status();
    const auto [head, tail] = header.value();
    if (head == tail) return Err::NotFound;

#ifndef NESGX_BUG_RING_BOUNDS_UNCHECKED
    // The producer may lie about its count (a hostile host owns the
    // header of a host-memory ring). More entries than slots, or a tail
    // behind the head, is refused before any slot is read, and the
    // header is left as it was.
    if (tail - head > capacity_) {
        machine.trace().publishLight(trace::EventKind::SwitchlessRefuse,
                                     core, ownerEid_, baseVa_, tail - head);
        return Err::BadCallBuffer;
    }
#endif

    std::uint8_t slot[kSlotBytes];
    Status st = machine.read(core, slotVa(head), slot, sizeof slot);
    if (!st) return st;
    const Desc out{loadLe64(slot + kSlotLen), loadLe64(slot + kSlotSeq)};

    st = writeU64(machine, core, baseVa_ + kHeadOff, head + 1);
    if (!st) return st;

    // Drain publishes the sequence number read *from the slot*, not the
    // head counter — a slot overwritten out of turn makes the two
    // diverge, and that divergence is what the FIFO oracle catches.
    machine.trace().publishLight(trace::EventKind::SwitchlessDrain, core,
                                 ownerEid_, baseVa_, out.seq);
    return out;
}

Result<std::uint64_t>
DescRing::abandon(sgx::Machine& machine, hw::CoreId core)
{
    auto header = readHeader(machine, core);
    if (!header) return header.status();
    const auto [head, tail] = header.value();
    if (head == tail) return std::uint64_t{0};
    Status st = writeU64(machine, core, baseVa_ + kHeadOff, tail);
    if (!st) return st;
    machine.trace().publishLight(trace::EventKind::SwitchlessFallback, core,
                                 ownerEid_, baseVa_, tail - head);
    return tail - head;
}

void
DescRing::markAbandoned(sgx::Machine& machine)
{
    machine.trace().publishLight(trace::EventKind::SwitchlessFallback,
                                 trace::kNoCore, ownerEid_, baseVa_, 0);
}

}  // namespace nesgx::switchless
