/**
 * The orderliness checker's world: a small machine + kernel + three
 * enclave slots, driven step-by-step through every ENCLS/ENCLU leaf the
 * model implements — in arbitrary (including hostile, out-of-order)
 * interleavings across three cores.
 *
 * A `Step` is one leaf invocation with small integer operands; the world
 * resolves them to concrete pages/addresses. Steps are *allowed to fail*
 * (most random sequences violate leaf preconditions, and the hardware
 * must refuse them); what must never happen is a post-step state that
 * breaks a §VII-A invariant — that is the InvariantOracle's job
 * (oracle.h), run after every step.
 */
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "os/kernel.h"
#include "sdk/image.h"
#include "sgx/machine.h"
#include "support/status.h"
#include "switchless/ring.h"
#include "trace/ring_sink.h"

namespace nesgx::check {

/** One checker operation: an ENCLS/ENCLU leaf or an OS/hostile action. */
enum class Op : std::uint8_t {
    Create,           ///< kernel createEnclave(slotA)
    AddPage,          ///< kernel addPage: next image page of slotA
    Init,             ///< kernel initEnclave(slotA)
    Build,            ///< Create + remaining AddPages + Init in one step
                      ///< (keeps shrunk reproducers readable)
    Associate,        ///< kernel associate(inner=slotA, outer=slotB)
    Destroy,          ///< kernel destroyEnclave(slotA)
    Eenter,           ///< EENTER slotA's TCS[index] on core
    Eexit,            ///< EEXIT on core
    Neenter,          ///< NEENTER slotA's TCS[index] on core
    Neexit,           ///< NEEXIT on core
    Aex,              ///< AEX on core
    Eresume,          ///< ERESUME slotA's TCS[index] on core (stale PA ok)
    Evict,            ///< kernel evictPage: slotA heap page index
    Reload,           ///< kernel reloadPage: slotA heap page index
    EblockRaw,        ///< raw EBLOCK of slotA's index-th recorded page
    EtrackRaw,        ///< raw ETRACK of slotA
    HostileEvict,     ///< raw EBLOCK+ETRACK+IPI+EWB, blob thrown away
    Access,           ///< validated 8-byte read/write from core
    Schedule,         ///< context switch on core (TLB flush)
    FaultNextEextend, ///< arm the kernel's one-shot EEXTEND fault
    EvictAll,         ///< bulk-evict every evictable page of slotA (the
                      ///< serving layer's tenant-eviction pattern)
    ReloadAll,        ///< reload every evicted page of slotA
    SwitchlessPostDrain, ///< exercise a switchless DescRing: push past
                         ///< capacity (the full check must refuse with
                         ///< Backpressure), drain, abandon.
    DeepChain,        ///< composite depth op: build
                      ///< and associate a root->mid chain, enter both,
                      ///< attempt a third NEENTER hop picked by `index`
                      ///< (associated when bit 0, hostile otherwise), and
                      ///< — when the third hop landed and bit 1 is set —
                      ///< a FOURTH hop into a lazily-built depth enclave
                      ///< outside the generator's slot set (hostile when
                      ///< bit 2), then AEX — all in ONE step, so the
                      ///< whole nest is parked in the bottom TCS's
                      ///< savedFrames where only the SavedChainValidity
                      ///< rule inspects it, at depths past anything the
                      ///< serving topology ever builds.
};

/** Op count: the chaos draw's modulus. */
constexpr std::uint8_t kOpCount = std::uint8_t(Op::DeepChain) + 1;

const char* opName(Op op);

/** One step of a sequence. Operands are reduced modulo the valid range
 *  by the world, so any byte values form a meaningful (if doomed) step. */
struct Step {
    Op op = Op::Access;
    std::uint8_t core = 0;
    std::uint8_t slotA = 0;
    std::uint8_t slotB = 0;
    std::uint8_t index = 0;
};

class CheckWorld {
  public:
    static constexpr int kSlots = 3;
    static constexpr int kCores = 3;
    static constexpr int kTcsPerSlot = 2;

    struct Config {
        bool taggedTlb = true;
    };

    explicit CheckWorld(const Config& config);
    ~CheckWorld();

    CheckWorld(const CheckWorld&) = delete;
    CheckWorld& operator=(const CheckWorld&) = delete;

    /** Executes one step; failures are normal and returned, not thrown. */
    Status apply(const Step& step);

    sgx::Machine& machine() { return machine_; }
    const sgx::Machine& machine() const { return machine_; }
    os::Kernel& kernel() { return kernel_; }
    const os::Kernel& kernel() const { return kernel_; }

    /** Pages hostilely EWB'd behind the driver's back (blobs discarded);
     *  exempt from the oracle's leak accounting until they resurface. */
    std::set<hw::Paddr>& orphans() { return orphans_; }

    /** The world's event log: every machine event since construction,
     *  bounded (newest-kept). Feeds the trace-level oracle rules and the
     *  `--trace` reproducer dumps. */
    const trace::RingBufferSink& ring() const { return ring_; }

    // --- generator-facing state queries ---------------------------------
    bool slotCreated(int slot) const { return slots_[slot].secsPage != 0; }
    bool slotInitialized(int slot) const { return slots_[slot].initialized; }
    bool slotFullyAdded(int slot) const;
    bool slotHasPages(int slot) const;
    bool anyKnownTcs() const;
    std::size_t coreDepth(int core) const;

    /** The (static, process-cached) image loaded into a slot. */
    static const sdk::SignedEnclave& image(int slot);
    static hw::Vaddr slotBase(int slot);

    /** The fourth, depth-only image ("chk-d", loaded at slotBase(3)).
     *  Exposed so tests can size hand-written build sequences. */
    static const sdk::SignedEnclave& deepImage();

  private:
    struct Slot {
        hw::Paddr secsPage = 0;
        std::uint64_t pagesAdded = 0;
        bool initialized = false;
    };

    /** Resolves a TCS physical address for a slot. Live lookups refresh
     *  the per-slot cache; once the enclave is gone the *stale* cached PA
     *  is returned on purpose — exactly the dangling-resume sequences the
     *  ERESUME validation must refuse. */
    hw::Paddr tcsPa(int slot, std::uint8_t index);

    /** The index-th live page of the slot's driver record (0 if none). */
    hw::Paddr recordedPage(int slot, std::uint8_t index) const;

    /** Builds (or finishes building) the lazily-created depth enclave
     *  backing DeepChain's fourth hop. Outside the generator's slot
     *  operand space, so classic 3-slot streams never touch it. */
    Status buildDeepSlot();
    hw::Paddr deepTcsPa(std::uint8_t index);

    sgx::Machine machine_;
    trace::RingBufferSink ring_;
    os::Kernel kernel_;
    os::Pid pid_;
    hw::Vaddr untrustedVa_ = 0;
    /** Lazily-mapped page backing the SwitchlessPostDrain op's DescRing:
     *  a sequence that never draws the op leaves the kernel's untrusted
     *  VA layout exactly as its other steps make it. */
    hw::Vaddr switchlessVa_ = 0;
    switchless::DescRing switchRing_;
    std::array<Slot, kSlots> slots_{};
    std::array<std::array<hw::Paddr, kTcsPerSlot>, kSlots> knownTcs_{};
    /** DeepChain's fourth enclave: built on the first step that asks for
     *  a depth-4 nest, never destroyed (Destroy only addresses the three
     *  generator slots), so it keeps parking ever-deeper chains without
     *  perturbing the classic slot lifecycle streams. */
    Slot deepSlot_{};
    std::array<hw::Paddr, kTcsPerSlot> deepTcs_{};
    std::set<hw::Paddr> orphans_;
};

}  // namespace nesgx::check
