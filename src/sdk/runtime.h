/**
 * The nesgx runtimes.
 *
 * Urts (untrusted runtime) loads signed enclave images through the OS
 * driver, dispatches ecalls, serves ocalls, and wires nested enclaves
 * together (NASSO). TrustedEnv is the view a trusted function gets of its
 * enclave: validated memory access, the trusted heap, ocall/n_ecall/
 * n_ocall transitions, attestation, and work-cycle charging hooks for the
 * performance experiments.
 *
 * All transitions run the real machine leaves (EENTER/NEENTER/...), so
 * every call a case study makes pays the Table-II-calibrated cost and the
 * transition counters the figures report come from hardware-model stats.
 */
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "os/kernel.h"
#include "sdk/heap.h"
#include "sdk/image.h"
#include "sdk/interface.h"
#include "sgx/machine.h"
#include "support/counter.h"
#include "support/status.h"

namespace nesgx::sdk {

class Urts;

/** A loaded enclave instance: a shared signed image plus the trusted
 *  functions this instance was bound to at load. */
class LoadedEnclave {
  public:
    const std::string& name() const { return image_->spec.name; }
    hw::Paddr secsPage() const { return secsPage_; }
    hw::Vaddr base() const { return base_; }
    std::uint64_t size() const { return image_->sizeBytes; }
    const SignedEnclave& image() const { return *image_; }
    /** The functions its ecalls, n_ecalls and n_ocall targets run. */
    const EnclaveInterface& binding() const { return *binding_; }
    const sgx::Measurement& mrenclave() const { return image_->mrenclave; }
    const sgx::Measurement& mrsigner() const { return image_->mrsigner; }
    TrustedHeap& heap() { return heap_; }

    /** The primary outer enclave this one nests inside, if associated. */
    LoadedEnclave* outer() const { return outer_; }

    /**
     * Serializes TCS claims on this enclave: held from Urts::idleTcs
     * through the EENTER/NEENTER that takes the picked TCS, so two
     * threads entering concurrently never pick the same idle slot.
     */
    std::mutex& entryMutex() { return entryM_; }

  private:
    friend class Urts;
    friend class TrustedEnv;

    std::shared_ptr<const SignedEnclave> image_;
    std::shared_ptr<const EnclaveInterface> binding_;
    hw::Paddr secsPage_ = 0;
    hw::Vaddr base_ = 0;
    std::vector<hw::Paddr> tcsPages_;
    std::mutex entryM_;  ///< see entryMutex()
    TrustedHeap heap_;
    LoadedEnclave* outer_ = nullptr;
    std::vector<LoadedEnclave*> inners_;
};

/** Window a trusted function has onto its enclave world. */
class TrustedEnv {
  public:
    TrustedEnv(Urts& urts, LoadedEnclave& enclave, hw::CoreId core)
        : urts_(urts), enclave_(enclave), core_(core)
    {
    }

    LoadedEnclave& enclave() { return enclave_; }
    hw::CoreId core() const { return core_; }
    sgx::Machine& machine();

    // --- trusted heap ----------------------------------------------------
    /** Allocates in this enclave's heap; 0 when exhausted. */
    hw::Vaddr alloc(std::uint64_t size) { return enclave_.heap().alloc(size); }
    void free(hw::Vaddr va) { enclave_.heap().free(va); }

    // --- validated memory access (full Fig.-6 path) -----------------------
    Result<Bytes> readBytes(hw::Vaddr va, std::uint64_t len);
    Status writeBytes(hw::Vaddr va, ByteView data);
    Result<std::uint64_t> readU64(hw::Vaddr va);
    Status writeU64(hw::Vaddr va, std::uint64_t v);

    // --- transitions -------------------------------------------------------
    /** ocall: enclave -> untrusted function registered with the Urts. */
    Result<Bytes> ocall(const std::string& name, ByteView arg);

    /** n_ecall: outer -> inner enclave function (NEENTER/NEEXIT); a
     *  one-hop nEcallChain. */
    Result<Bytes> nEcall(LoadedEnclave& inner, const std::string& name,
                         ByteView arg);

    /**
     * Chain-routed n_ecall: NEENTERs each enclave in `remaining` in
     * order (pass-through hops), runs `name` (an n_ecall entry point)
     * in the last one, and NEEXITs back symmetrically. Every hop pays
     * the n_ecall dispatch cost and publishes its own SdkNEcallBegin/End
     * bracket.
     */
    Result<Bytes> nEcallChain(std::span<LoadedEnclave* const> remaining,
                              const std::string& name, ByteView arg);

    /** n_ocall: inner -> outer enclave function (NEEXIT/NEENTER). */
    Result<Bytes> nOcall(const std::string& name, ByteView arg);

    /**
     * Switchless-path dispatch: invokes one of this enclave's n_ecall
     * entry points *without any transition* — the core must already be
     * resident in this enclave (a parked poller that NEENTERed once at
     * arming time). Pays the dispatch cost and publishes the usual
     * SdkNEcallBegin/End bracket, but no NEENTER/NEEXIT: that is the
     * entire point of the switchless layer.
     */
    Result<Bytes> residentCall(const std::string& name, ByteView arg);

    // --- attestation -------------------------------------------------------
    Result<sgx::NestedReport> getNestedReport(const sgx::TargetInfo& target,
                                              const sgx::ReportData& data);
    Result<crypto::Sha256Digest> getSealKey();
    /** MRENCLAVE+MRSIGNER-bound seal key (stable across rebuilds). */
    Result<crypto::Sha256Digest> getSealKeyIdentity();

    // --- modelling hooks ----------------------------------------------------
    /** Charges app compute work on the simulated clock. */
    void chargeCycles(std::uint64_t cycles);
    /** Charges a software AES-GCM pass over n bytes (cost model). */
    void chargeGcm(std::uint64_t bytes);

  private:
    Urts& urts_;
    LoadedEnclave& enclave_;
    hw::CoreId core_;
};

class Urts {
  public:
    struct CallStats {
        /** Relaxed atomics (support/counter.h): every worker thread's
         *  dispatch path bumps these concurrently in threaded mode. */
        Counter ecalls;
        Counter ocalls;
        Counter nEcalls;
        Counter nOcalls;
        std::uint64_t totalCalls() const
        {
            return ecalls + ocalls + nEcalls + nOcalls;
        }
    };

    /** @param kernel OS model; @param pid process hosting the enclaves. */
    Urts(os::Kernel& kernel, os::Pid pid);

    os::Kernel& kernel() { return kernel_; }
    sgx::Machine& machine() { return kernel_.machine(); }
    os::Pid pid() const { return pid_; }

    /**
     * Loads a signed enclave image bound to `binding`: ECREATE,
     * EADD+EEXTEND every page in layout order, EINIT against the
     * SIGSTRUCT. Returns the instance. The image is shared, not copied,
     * so one signed image serves any number of loads. A binding whose
     * surface differs from the one the image measured is refused with
     * InvalidMeasurement before ECREATE: the host picks the functions,
     * so it must not be able to add, drop or rename one.
     */
    Result<LoadedEnclave*> load(
        std::shared_ptr<const SignedEnclave> image,
        std::shared_ptr<const EnclaveInterface> binding);

    /** Unloads (EREMOVE) an enclave. */
    Status unload(LoadedEnclave* enclave);

    /** NASSO wrapper: associates inner with outer and links runtimes. */
    Status associate(LoadedEnclave* inner, LoadedEnclave* outer);

    /** Registers an untrusted function servable via ocall. */
    void registerOcall(const std::string& name, UntrustedFn fn);

    /** ecall into an enclave (EENTER -> dispatch -> EEXIT); a
     *  one-element ecallChain. */
    Result<Bytes> ecall(LoadedEnclave* enclave, const std::string& name,
                        ByteView arg, hw::CoreId core = 0);

    /**
     * Depth-parametric entry, the SDK's one entry walk: routes a call
     * down an ancestor chain (root first, leaf last). Depth k costs one
     * EENTER plus k-1 NEENTERs in, and the symmetric NEEXIT unwind plus
     * one EEXIT out. Every adjacent pair is validated against the
     * hardware-recorded association before any transition. A
     * one-element chain runs `name` as an ecall (an n_ecall entry point
     * also qualifies) and copies the result back out; deeper chains run
     * it as the leaf's n_ecall (DESIGN §14). A trusted function that
     * throws, here or in any n_ecall or n_ocall it makes, fails its call
     * with EnclaveCrashed and the unwind still runs (DESIGN §11).
     */
    Result<Bytes> ecallChain(std::span<LoadedEnclave* const> chain,
                             const std::string& name, ByteView arg,
                             hw::CoreId core = 0);

    /**
     * The full ancestor chain of `leaf` along primary outers, root
     * first and `leaf` last — ready to hand to ecallChain().
     */
    std::vector<LoadedEnclave*> chainTo(LoadedEnclave* leaf);

    const CallStats& stats() const { return stats_; }
    void resetStats() { stats_ = CallStats{}; }

    /** Untrusted-side view of an enclave VA's backing frame (for tests). */
    Result<hw::Paddr> debugTranslate(hw::Vaddr va, hw::CoreId core = 0);

    /** Loaded-enclave lookup by SECS physical address. */
    LoadedEnclave* enclaveBySecs(hw::Paddr secsPage);

    /**
     * First non-busy TCS of the enclave (GeneralProtection when every
     * thread slot is taken). Callers hold the enclave's entryMutex()
     * from here through the EENTER/NEENTER that claims the TCS. Public
     * so the switchless layer can park poller threads on real TCSes
     * without going through an ecall.
     */
    Result<hw::Paddr> idleTcs(LoadedEnclave& enclave);

  private:
    friend class TrustedEnv;

    hw::Vaddr nextBase(std::uint64_t sizeBytes);

    os::Kernel& kernel_;
    os::Pid pid_;
    std::map<std::string, UntrustedFn> ocalls_;
    /**
     * Guards the loaded-enclave table (and the ELRANGE base allocator):
     * worker threads rebuild poisoned tenants — load/unload/associate —
     * while others dispatch. The dispatch path itself never takes this
     * lock; it works through the LoadedEnclave* it already holds, and
     * the serve layer's per-tenant ownership locks guarantee nobody
     * unloads an enclave that is mid-call. `ocalls_` stays setup-phase
     * single-threaded, like the spec builders.
     */
    mutable std::mutex structM_;
    std::vector<std::unique_ptr<LoadedEnclave>> enclaves_;
    hw::Vaddr nextEnclaveBase_ = 0x7000'0000'0000ull;
    CallStats stats_;
};

}  // namespace nesgx::sdk
