#include "sdk/runtime.h"

#include <algorithm>

namespace nesgx::sdk {

namespace {

/** SDK boundary events: built only when a sink listens. The call name is
 *  borrowed (`text` is not owned) — valid for the duration of the call,
 *  which is all a synchronous publish needs. */
inline void
publishSdk(sgx::Machine& machine, trace::EventKind kind, hw::CoreId core,
           const char* name)
{
    trace::TraceBus& bus = machine.trace();
    if (!bus.active()) return;
    trace::TraceEvent event;
    event.kind = kind;
    event.core = core;
    event.text = name;
    bus.publish(event);
}

/**
 * Runs a trusted function. Whatever it throws stops at the enclave
 * boundary as EnclaveCrashed, so the NEEXIT or EEXIT after the call
 * still runs and a core that entered for it leaves with every TCS on its
 * chain free.
 */
Result<Bytes>
runTrusted(const TrustedFn& fn, TrustedEnv& env, ByteView arg)
{
    try {
        return fn(env, arg);
    } catch (...) {
#ifdef NESGX_BUG_TRUSTED_THROW_ESCAPES
        throw;
#endif
        return Err::EnclaveCrashed;
    }
}

}  // namespace

// ---------------------------------------------------------------- TrustedEnv

sgx::Machine&
TrustedEnv::machine()
{
    return urts_.machine();
}

Result<Bytes>
TrustedEnv::readBytes(hw::Vaddr va, std::uint64_t len)
{
    Bytes out(len);
    Status st = machine().read(core_, va, out.data(), len);
    if (!st) return st;
    return out;
}

Status
TrustedEnv::writeBytes(hw::Vaddr va, ByteView data)
{
    return machine().write(core_, va, data.data(), data.size());
}

Result<std::uint64_t>
TrustedEnv::readU64(hw::Vaddr va)
{
    std::uint8_t buf[8];
    Status st = machine().read(core_, va, buf, 8);
    if (!st) return st;
    return loadLe64(buf);
}

Status
TrustedEnv::writeU64(hw::Vaddr va, std::uint64_t v)
{
    std::uint8_t buf[8];
    storeLe64(buf, v);
    return machine().write(core_, va, buf, 8);
}

Result<Bytes>
TrustedEnv::ocall(const std::string& name, ByteView arg)
{
    auto it = urts_.ocalls_.find(name);
    if (it == urts_.ocalls_.end()) return Err::NoSuchCall;

    sgx::Machine& m = machine();
    // The model restricts synchronous EEXIT to depth 1; the SDK routes
    // inner-enclave ocalls through the outer (use nOcall + outer ocall).
    if (m.core(core_).depth() != 1) return Err::GeneralProtection;
    hw::Paddr tcs = m.core(core_).currentTcs();

    m.charge(m.costs().ocallDispatch);
    m.charge(m.costs().copyBytes(arg.size()));
    ++urts_.stats_.ocalls;
    publishSdk(m, trace::EventKind::SdkOcallBegin, core_, name.c_str());

    Status st = m.eexit(core_);
    if (!st) {
        publishSdk(m, trace::EventKind::SdkOcallEnd, core_, name.c_str());
        return st;
    }
    Result<Bytes> result = it->second(arg);
    Status back = m.eenter(core_, tcs);
    publishSdk(m, trace::EventKind::SdkOcallEnd, core_, name.c_str());
    if (!back) return back;
    if (result) m.charge(m.costs().copyBytes(result.value().size()));
    return result;
}

Result<Bytes>
TrustedEnv::nEcall(LoadedEnclave& inner, const std::string& name, ByteView arg)
{
    LoadedEnclave* const hop = &inner;
    return nEcallChain({&hop, 1}, name, arg);
}

Result<Bytes>
TrustedEnv::nEcallChain(std::span<LoadedEnclave* const> remaining,
                        const std::string& name, ByteView arg)
{
    if (remaining.empty()) return Err::GeneralProtection;
    // The named function only runs at the leaf; every hop above it is
    // a pass-through that NEENTERs the next link and recurses.
    LoadedEnclave& next = *remaining.front();
    const TrustedFn* fn = nullptr;
    if (remaining.size() == 1) {
        fn = next.binding().findNEcall(name);
        if (!fn) return Err::NoSuchCall;
    }

    sgx::Machine& m = machine();
    {
        std::lock_guard<std::mutex> entry(next.entryM_);
        auto tcs = urts_.idleTcs(next);
        if (!tcs) return tcs.status();
        m.charge(m.costs().nEcallDispatch);
        // Arguments pass by reference through the shared outer enclave
        // memory: no marshalling copy and no software encryption — the
        // data-path (LLC/MEE) cost is charged when the callee touches
        // the bytes (paper §IV-A).
        ++urts_.stats_.nEcalls;
        urts_.kernel_.touchEnclave(next.secsPage_);
        publishSdk(m, trace::EventKind::SdkNEcallBegin, core_, name.c_str());
        Status st = m.neenter(core_, tcs.value());
        if (!st) {
            publishSdk(m, trace::EventKind::SdkNEcallEnd, core_,
                       name.c_str());
            return st;
        }
    }
    TrustedEnv nextEnv(urts_, next, core_);
    Result<Bytes> result =
        fn ? runTrusted(*fn, nextEnv, arg)
           : nextEnv.nEcallChain(remaining.subspan(1), name, arg);
    Status back = m.neexit(core_);
    publishSdk(m, trace::EventKind::SdkNEcallEnd, core_, name.c_str());
    if (!back) return back;
    return result;
}

Result<Bytes>
TrustedEnv::nOcall(const std::string& name, ByteView arg)
{
    sgx::Machine& m = machine();
    // NEEXIT returns to the outer frame we were NEENTERed from — under
    // the multi-outer extension that may be any of our outers, so the
    // target enclave is resolved from the frame stack, not statically.
    if (m.core(core_).depth() < 2) return Err::GeneralProtection;
    const auto& frames = m.core(core_).frames();
    LoadedEnclave* outer =
        urts_.enclaveBySecs(frames[frames.size() - 2].secs);
    if (!outer) return Err::GeneralProtection;
    const TrustedFn* fn = outer->binding().findNOcallTarget(name);
    if (!fn) return Err::NoSuchCall;

    hw::Paddr callerTcs = m.core(core_).currentTcs();

    m.charge(m.costs().nOcallDispatch);
    // As with n_ecall: by-reference through the shared outer memory.
    ++urts_.stats_.nOcalls;
    publishSdk(m, trace::EventKind::SdkNOcallBegin, core_, name.c_str());

    Status st = m.neexit(core_);
    if (!st) {
        publishSdk(m, trace::EventKind::SdkNOcallEnd, core_, name.c_str());
        return st;
    }
    TrustedEnv outerEnv(urts_, *outer, core_);
    Result<Bytes> result = runTrusted(*fn, outerEnv, arg);
    Status back = m.neenter(core_, callerTcs);
    publishSdk(m, trace::EventKind::SdkNOcallEnd, core_, name.c_str());
    if (!back) return back;
    return result;
}

Result<Bytes>
TrustedEnv::residentCall(const std::string& name, ByteView arg)
{
    sgx::Machine& m = machine();
    // The core must genuinely be resident in this enclave: the parked
    // poller entered once via the classic leaves at arming time and has
    // stayed inside since. Anything else is a protocol violation.
    if (m.core(core_).currentSecs() != enclave_.secsPage_) {
        return Err::GeneralProtection;
    }
    const TrustedFn* fn = enclave_.binding().findNEcall(name);
    if (!fn) fn = enclave_.binding().findEcall(name);
    if (!fn) return Err::NoSuchCall;

    m.charge(m.costs().nEcallDispatch);
    urts_.kernel_.touchEnclave(enclave_.secsPage_);
    publishSdk(m, trace::EventKind::SdkNEcallBegin, core_, name.c_str());
    Result<Bytes> result = runTrusted(*fn, *this, arg);
    publishSdk(m, trace::EventKind::SdkNEcallEnd, core_, name.c_str());
    return result;
}

Result<sgx::NestedReport>
TrustedEnv::getNestedReport(const sgx::TargetInfo& target,
                            const sgx::ReportData& data)
{
    return machine().nereport(core_, target, data);
}

Result<crypto::Sha256Digest>
TrustedEnv::getSealKey()
{
    return machine().egetkeySeal(core_);
}

Result<crypto::Sha256Digest>
TrustedEnv::getSealKeyIdentity()
{
    return machine().egetkeySealIdentity(core_);
}

void
TrustedEnv::chargeCycles(std::uint64_t cycles)
{
    machine().charge(cycles);
}

void
TrustedEnv::chargeGcm(std::uint64_t bytes)
{
    machine().charge(machine().costs().gcmMessage(bytes));
}

// ----------------------------------------------------------------------- Urts

Urts::Urts(os::Kernel& kernel, os::Pid pid) : kernel_(kernel), pid_(pid) {}

hw::Vaddr
Urts::nextBase(std::uint64_t sizeBytes)
{
    // ELRANGE must be naturally aligned to its (power-of-two) size.
    hw::Vaddr base = (nextEnclaveBase_ + sizeBytes - 1) & ~(sizeBytes - 1);
    nextEnclaveBase_ = base + sizeBytes;
    return base;
}

Result<LoadedEnclave*>
Urts::load(std::shared_ptr<const SignedEnclave> image,
           std::shared_ptr<const EnclaveInterface> binding)
{
#ifndef NESGX_BUG_IMAGE_BINDING_UNCHECKED
    if (!binding || binding->interfaceDigestInput() != image->surface) {
        return Err::InvalidMeasurement;
    }
#endif
    std::lock_guard<std::mutex> g(structM_);
    auto enclave = std::make_unique<LoadedEnclave>();
    enclave->image_ = std::move(image);
    enclave->binding_ = std::move(binding);
    const SignedEnclave& img = *enclave->image_;
    enclave->base_ = nextBase(img.sizeBytes);

    auto secs = kernel_.createEnclave(pid_, enclave->base_, img.sizeBytes,
                                      img.spec.attributes);
    if (!secs) return secs.status();
    enclave->secsPage_ = secs.value();

    for (const auto& page : img.pages) {
        Status st = kernel_.addPage(enclave->secsPage_,
                                    enclave->base_ + page.offset, page.type,
                                    page.perms, page.content);
        if (!st) {
            // Abandoning the half-built enclave would leak its SECS and
            // every page added so far: no handle ever maps them, so the
            // EPC pressure manager could never reclaim them.
            (void)kernel_.destroyEnclave(enclave->secsPage_);
            return st;
        }
        if (page.type == sgx::PageType::Tcs) {
            const os::EnclaveRecord* rec =
                kernel_.enclaveRecord(enclave->secsPage_);
            enclave->tcsPages_.push_back(
                rec->pages.at(enclave->base_ + page.offset));
        }
    }

    Status st = kernel_.initEnclave(enclave->secsPage_, img.sigstruct);
    if (!st) {
        (void)kernel_.destroyEnclave(enclave->secsPage_);
        return st;
    }

    enclave->heap_ =
        TrustedHeap(enclave->base_ + img.heapOffset, img.heapBytes);

    enclaves_.push_back(std::move(enclave));
    return enclaves_.back().get();
}

Status
Urts::unload(LoadedEnclave* enclave)
{
    std::lock_guard<std::mutex> g(structM_);
    Status st = kernel_.destroyEnclave(enclave->secsPage_);
    if (kernel_.enclaveRecord(enclave->secsPage_) != nullptr) {
        // The enclave survived (pages genuinely busy): the handle stays
        // valid and the caller may retry later.
        return st.isOk() ? Status(Err::OsError) : st;
    }
    // The enclave is gone — even if per-page teardown reported a
    // degraded status. The SECS frame returns to the free list and a
    // later load may reuse it: keeping the dead record would let
    // enclaveBySecs() resolve the old enclave and shadow the new one.
    // Unlink the association bookkeeping and drop the record entirely.
    if (enclave->outer_) {
        auto& siblings = enclave->outer_->inners_;
        siblings.erase(std::remove(siblings.begin(), siblings.end(), enclave),
                       siblings.end());
    }
    for (LoadedEnclave* inner : enclave->inners_) {
        if (inner->outer_ == enclave) inner->outer_ = nullptr;
    }
    for (auto it = enclaves_.begin(); it != enclaves_.end(); ++it) {
        if (it->get() == enclave) {
            enclaves_.erase(it);
            break;
        }
    }
    // Ok means exactly "the enclave is gone" — even when per-page
    // teardown reported a degraded status along the way.
    return Status::ok();
}

Status
Urts::associate(LoadedEnclave* inner, LoadedEnclave* outer)
{
    std::lock_guard<std::mutex> g(structM_);
    Status st = kernel_.associate(inner->secsPage_, outer->secsPage_);
    if (!st) return st;
    if (!inner->outer_) inner->outer_ = outer;  // primary
    outer->inners_.push_back(inner);
    return Status::ok();
}

LoadedEnclave*
Urts::enclaveBySecs(hw::Paddr secsPage)
{
    std::lock_guard<std::mutex> g(structM_);
    for (const auto& enclave : enclaves_) {
        if (enclave->secsPage_ == secsPage) return enclave.get();
    }
    return nullptr;
}

void
Urts::registerOcall(const std::string& name, UntrustedFn fn)
{
    ocalls_[name] = std::move(fn);
}

Result<hw::Paddr>
Urts::idleTcs(LoadedEnclave& enclave)
{
    for (hw::Paddr tcs : enclave.tcsPages_) {
        if (machine().tcsIdle(tcs)) return tcs;
    }
    return Err::GeneralProtection;
}

Result<Bytes>
Urts::ecall(LoadedEnclave* enclave, const std::string& name, ByteView arg,
            hw::CoreId core)
{
    return ecallChain({&enclave, 1}, name, arg, core);
}

Result<Bytes>
Urts::ecallChain(std::span<LoadedEnclave* const> chain,
                 const std::string& name, ByteView arg, hw::CoreId core)
{
    if (chain.empty()) return Err::GeneralProtection;

    // Validate every hop against the hardware-recorded association
    // before any transition (any of a link's outers qualifies under
    // the multi-outer extension).
    for (std::size_t i = 1; i < chain.size(); ++i) {
        if (!machine().chainLinked(chain[i]->secsPage_,
                                   chain[i - 1]->secsPage_)) {
            return Err::GeneralProtection;
        }
    }
    LoadedEnclave& root = *chain.front();
    const TrustedFn* fn = nullptr;
    if (chain.size() == 1) {
        // Paper Fig. 5: untrusted code can EENTER an inner enclave
        // directly, so an n_ecall entry point is also reachable as a
        // plain ecall.
        const EnclaveInterface& iface = root.binding();
        fn = iface.findEcall(name);
        if (!fn) fn = iface.findNEcall(name);
        if (!fn) return Err::NoSuchCall;
    }

    sgx::Machine& m = machine();
    {
        std::lock_guard<std::mutex> entry(root.entryM_);
        auto tcs = idleTcs(root);
        if (!tcs) return tcs.status();
        m.charge(m.costs().ecallDispatch);
        // ecall arguments traverse untrusted memory into the enclave.
        m.charge(m.costs().copyBytes(arg.size()));
        ++stats_.ecalls;
        for (LoadedEnclave* node : chain) kernel_.touchEnclave(node->secsPage_);
        publishSdk(m, trace::EventKind::SdkEcallBegin, core, name.c_str());
        Status st = m.eenter(core, tcs.value());
        if (!st) {
            publishSdk(m, trace::EventKind::SdkEcallEnd, core, name.c_str());
            return st;
        }
    }
    TrustedEnv env(*this, root, core);
    Result<Bytes> result =
        fn ? runTrusted(*fn, env, arg)
           : env.nEcallChain(chain.subspan(1), name, arg);
    Status back = m.eexit(core);
    publishSdk(m, trace::EventKind::SdkEcallEnd, core, name.c_str());
    if (!back) return back;
    // Only a one-element chain copies its result back out (a modelling
    // asymmetry DESIGN §14 records).
    if (fn && result) m.charge(m.costs().copyBytes(result.value().size()));
    return result;
}

std::vector<LoadedEnclave*>
Urts::chainTo(LoadedEnclave* leaf)
{
    std::lock_guard<std::mutex> g(structM_);
    std::vector<LoadedEnclave*> chain;
    // Bounded by the loaded-enclave count: a corrupted association
    // graph (cycle) terminates instead of spinning.
    for (LoadedEnclave* node = leaf;
         node && chain.size() <= enclaves_.size(); node = node->outer_) {
        chain.push_back(node);
    }
    std::reverse(chain.begin(), chain.end());
    return chain;
}

Result<hw::Paddr>
Urts::debugTranslate(hw::Vaddr va, hw::CoreId core)
{
    return machine().translate(core, va, hw::Access::Read);
}

}  // namespace nesgx::sdk
