#include "switchless/ring.h"

#include "support/bytes.h"

namespace nesgx::switchless {

namespace {

// Header field offsets.
constexpr std::uint64_t kHeadOff = 0;
constexpr std::uint64_t kTailOff = 8;
constexpr std::uint64_t kCapOff = 16;

// Slot field offsets (relative to the slot base).
constexpr std::uint64_t kSlotId = 0;
constexpr std::uint64_t kSlotVa = 8;
constexpr std::uint64_t kSlotLen = 16;
constexpr std::uint64_t kSlotSeq = 24;

}  // namespace

Status
DescRing::writeU64(sgx::Machine& machine, hw::CoreId core, hw::Vaddr va,
                   std::uint64_t v)
{
    std::uint8_t buf[8];
    storeLe64(buf, v);
    return machine.write(core, va, buf, sizeof buf);
}

Result<std::uint64_t>
DescRing::readU64(sgx::Machine& machine, hw::CoreId core, hw::Vaddr va)
{
    std::uint8_t buf[8];
    Status st = machine.read(core, va, buf, sizeof buf);
    if (!st) return st;
    return loadLe64(buf);
}

Status
DescRing::init(sgx::Machine& machine, hw::CoreId core, hw::Vaddr baseVa,
               std::uint64_t capacity, std::uint64_t ownerEid)
{
    if (baseVa == 0 || capacity == 0) return Err::BadCallBuffer;
    baseVa_ = baseVa;
    capacity_ = capacity;
    ownerEid_ = ownerEid;
    Status st = writeU64(machine, core, baseVa_ + kHeadOff, 0);
    if (!st) return st;
    st = writeU64(machine, core, baseVa_ + kTailOff, 0);
    if (!st) return st;
    return writeU64(machine, core, baseVa_ + kCapOff, capacity_);
}

Status
DescRing::tryPush(sgx::Machine& machine, hw::CoreId core, Desc desc)
{
    auto head = readU64(machine, core, baseVa_ + kHeadOff);
    if (!head) return head.status();
    auto tail = readU64(machine, core, baseVa_ + kTailOff);
    if (!tail) return tail.status();

#ifndef NESGX_BUG_RING_WRAP
    // Full ring: refuse, never overwrite an unconsumed slot. The
    // NESGX_BUG_RING_WRAP mutation removes exactly this check — the
    // producer then wraps onto a live slot, and the consumer later
    // drains a sequence number ahead of the FIFO front, which the
    // TraceSwitchlessPairing rule flags.
    if (tail.value() - head.value() >= capacity_) return Err::Backpressure;
#endif

    const std::uint64_t seq = tail.value();
    const hw::Vaddr slot =
        baseVa_ + kHeaderBytes + (seq % capacity_) * kSlotBytes;
    Status st = writeU64(machine, core, slot + kSlotId, desc.id);
    if (!st) return st;
    st = writeU64(machine, core, slot + kSlotVa, desc.va);
    if (!st) return st;
    st = writeU64(machine, core, slot + kSlotLen, desc.len);
    if (!st) return st;
    st = writeU64(machine, core, slot + kSlotSeq, seq);
    if (!st) return st;

    // Publish the slot before the tail bump, mirroring the release-store
    // ordering a real SPSC ring needs.
    st = writeU64(machine, core, baseVa_ + kTailOff, seq + 1);
    if (!st) return st;

    machine.trace().publishLight(trace::EventKind::SwitchlessPost, core,
                                 ownerEid_, baseVa_, seq);
    machine.ringDoorbell(core, baseVa_);
    return Status::ok();
}

Result<Desc>
DescRing::tryPop(sgx::Machine& machine, hw::CoreId core)
{
    machine.ringPoll(core, baseVa_);
    auto head = readU64(machine, core, baseVa_ + kHeadOff);
    if (!head) return head.status();
    auto tail = readU64(machine, core, baseVa_ + kTailOff);
    if (!tail) return tail.status();
    if (head.value() == tail.value()) return Err::NotFound;

    const hw::Vaddr slot =
        baseVa_ + kHeaderBytes + (head.value() % capacity_) * kSlotBytes;
    Desc out;
    auto field = readU64(machine, core, slot + kSlotId);
    if (!field) return field.status();
    out.id = field.value();
    field = readU64(machine, core, slot + kSlotVa);
    if (!field) return field.status();
    out.va = field.value();
    field = readU64(machine, core, slot + kSlotLen);
    if (!field) return field.status();
    out.len = field.value();
    field = readU64(machine, core, slot + kSlotSeq);
    if (!field) return field.status();
    out.seq = field.value();

    Status st = writeU64(machine, core, baseVa_ + kHeadOff, head.value() + 1);
    if (!st) return st;

    // Drain publishes the sequence number read *from the slot*, not the
    // head counter — under a wraparound bug the two diverge, and that
    // divergence is precisely what the FIFO oracle catches.
    machine.trace().publishLight(trace::EventKind::SwitchlessDrain, core,
                                 ownerEid_, baseVa_, out.seq);
    return out;
}

Result<std::uint64_t>
DescRing::pending(sgx::Machine& machine, hw::CoreId core)
{
    auto head = readU64(machine, core, baseVa_ + kHeadOff);
    if (!head) return head.status();
    auto tail = readU64(machine, core, baseVa_ + kTailOff);
    if (!tail) return tail.status();
    return tail.value() - head.value();
}

Result<std::uint64_t>
DescRing::abandon(sgx::Machine& machine, hw::CoreId core)
{
    auto count = pending(machine, core);
    if (!count) return count.status();
    if (count.value() == 0) return count.value();
    auto tail = readU64(machine, core, baseVa_ + kTailOff);
    if (!tail) return tail.status();
    Status st = writeU64(machine, core, baseVa_ + kHeadOff, tail.value());
    if (!st) return st;
    machine.trace().publishLight(trace::EventKind::SwitchlessFallback, core,
                                 ownerEid_, baseVa_, count.value());
    return count.value();
}

void
DescRing::markAbandoned(sgx::Machine& machine)
{
    machine.trace().publishLight(trace::EventKind::SwitchlessFallback,
                                 trace::kNoCore, ownerEid_, baseVa_, 0);
}

}  // namespace nesgx::switchless
