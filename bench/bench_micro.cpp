/**
 * Wall-clock microbenchmarks (google-benchmark) of the substrate
 * primitives: crypto kernels, the access-validation path, and the data
 * structures behind the case studies. These measure the *host* cost of
 * the model itself — useful for keeping the simulator fast — as opposed
 * to the simulated-clock figures the table/figure binaries report.
 */
#include <benchmark/benchmark.h>

#include <optional>

#include "crypto/gcm.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "db/btree.h"
#include "os/kernel.h"
#include "sdk/image.h"
#include "sdk/runtime.h"
#include "svm/kernel.h"

namespace {

using namespace nesgx;

/**
 * The kernel a crypto row runs, from its second argument: 0 is the portable
 * kernel, 1 the x86 one and 2 (AES-GCM only) the wide VAES one. A host
 * without a kernel's CPUID flags reports that row as an error instead of
 * timing another kernel under its name.
 */
std::optional<crypto::Kernel>
rowKernel(benchmark::State& state, crypto::Kernel hostBest)
{
    const auto kernel = crypto::Kernel(state.range(1));
    if (kernel <= hostBest) return kernel;
    state.SkipWithError("host lacks the kernel's CPUID flags");
    return std::nullopt;
}

void
BM_Sha256(benchmark::State& state)
{
    auto kernel = rowKernel(state, crypto::sha256Kernel());
    if (!kernel) return;
    Bytes data(std::size_t(state.range(0)), 0xab);
    for (auto _ : state) {
        crypto::Sha256 ctx(*kernel);
        ctx.update(data);
        benchmark::DoNotOptimize(ctx.finish());
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)
    ->ArgsProduct({{64, 4096, 65536}, {0, 1}})
    ->ArgNames({"bytes", "kernel"});

void
BM_AesGcmSeal(benchmark::State& state)
{
    auto kernel = rowKernel(state, crypto::gcmKernel());
    if (!kernel) return;
    crypto::AesGcm gcm(Bytes(16, 0x11), *kernel);
    Bytes iv(12, 0x22);
    Bytes data(std::size_t(state.range(0)), 0x33);
    for (auto _ : state) {
        benchmark::DoNotOptimize(gcm.seal(iv, {}, data));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesGcmSeal)
    ->ArgsProduct({{64, 4096}, {0, 1, 2}})
    ->ArgNames({"bytes", "kernel"});

void
BM_AesGcmOpen(benchmark::State& state)
{
    auto kernel = rowKernel(state, crypto::gcmKernel());
    if (!kernel) return;
    crypto::AesGcm gcm(Bytes(16, 0x11), *kernel);
    Bytes iv(12, 0x22);
    Bytes sealed = gcm.seal(iv, {}, Bytes(std::size_t(state.range(0)), 0x33));
    for (auto _ : state) {
        benchmark::DoNotOptimize(gcm.open(iv, {}, sealed));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesGcmOpen)
    ->ArgsProduct({{64, 4096}, {0, 1, 2}})
    ->ArgNames({"bytes", "kernel"});

void
BM_RsaVerify(benchmark::State& state)
{
    Rng rng(1);
    auto key = crypto::RsaKeyPair::generate(rng, 1024);
    Bytes msg = bytesOf("sigstruct body");
    Bytes sig = crypto::rsaSign(key, msg);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::rsaVerify(key.pub, msg, sig));
    }
}
BENCHMARK(BM_RsaVerify);

/** One SIGSTRUCT signature (CRT) at the default and the SGX modulus size. */
void
BM_RsaSign(benchmark::State& state)
{
    Rng rng(3);
    auto key = crypto::RsaKeyPair::generate(rng, std::size_t(state.range(0)));
    Bytes msg = bytesOf("sigstruct body");
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::rsaSign(key, msg));
    }
}
BENCHMARK(BM_RsaSign)->Arg(1024)->Arg(3072)->Unit(benchmark::kMicrosecond);

/** Shared scaffolding for the machine-path microbenchmarks. */
struct MachineBench {
    sgx::Machine machine;
    os::Kernel kernel;
    os::Pid pid;
    sdk::Urts urts;
    sdk::LoadedEnclave* enclave = nullptr;
    hw::Paddr tcs = 0;

    static sgx::Machine::Config configFor(bool taggedTlb)
    {
        sgx::Machine::Config config;
        config.dramBytes = 64ull << 20;
        config.prmBase = 32ull << 20;
        config.prmBytes = 16ull << 20;
        config.taggedTlb = taggedTlb;
        return config;
    }

    explicit MachineBench(bool taggedTlb)
        : machine(configFor(taggedTlb)),
          kernel(machine),
          pid(kernel.createProcess()),
          urts(kernel, pid)
    {
        kernel.schedule(0, pid);
        Rng rng(7);
        auto key = crypto::RsaKeyPair::generate(rng, 512);
        sdk::EnclaveSpec spec;
        spec.name = "bm";
        spec.codePages = 2;
        spec.heapPages = 8;
        spec.interface->addEcall(
            "empty", [](sdk::TrustedEnv&, ByteView) -> Result<Bytes> {
                return Bytes{};
            });
        enclave =
            urts.load(sdk::buildImage(spec, key),
                      spec.interface).orThrow("load");
        const auto* rec = kernel.enclaveRecord(enclave->secsPage());
        for (const auto& [va, pa] : rec->pages) {
            if (machine.epcm().entry(machine.mem().epcPageIndex(pa)).type ==
                sgx::PageType::Tcs) {
                tcs = pa;
                break;
            }
        }
    }

    /** Surfaces the fast-path counters in the benchmark report. */
    void exportCounters(benchmark::State& state) const
    {
        const auto& s = machine.stats();
        state.counters["tlbFlushes"] = double(s.tlbFlushes);
        state.counters["flushesAvoided"] = double(s.flushesAvoided);
        state.counters["closureCacheHits"] = double(s.closureCacheHits);
        state.counters["closureCacheMisses"] = double(s.closureCacheMisses);
        state.counters["taggedLookupRejects"] = double(s.taggedLookupRejects);
    }
};

/** A tenant inner as the serving registry shapes it by default: 8 code,
 *  2 data, 16 heap and 2 stack pages, one TCS, four n_ecalls. */
sdk::EnclaveSpec
tenantShapedSpec()
{
    sdk::EnclaveSpec spec;
    spec.name = "tenant-0";
    spec.codePages = 8;
    spec.dataPages = 2;
    spec.heapPages = 16;
    spec.stackPages = 2;
    spec.tcsCount = 1;
    spec.expectedOuter = sgx::PeerExpectation{};
    for (const char* name : {"serve_batch", "tenant_provision",
                             "tenant_export", "tenant_import"}) {
        spec.interface->addNEcall(
            name, [](sdk::TrustedEnv&, ByteView) -> Result<Bytes> {
                return Bytes{};
            });
    }
    return spec;
}

/** Building a tenant-shaped image under a 1024-bit author key: layout,
 *  MRENCLAVE and the SIGSTRUCT signature, paid once per tenant record. */
void
BM_BuildImage(benchmark::State& state)
{
    Rng rng(3);
    const auto key = crypto::RsaKeyPair::generate(rng, 1024);
    const sdk::EnclaveSpec spec = tenantShapedSpec();
    for (auto _ : state) {
        benchmark::DoNotOptimize(sdk::buildImage(spec, key));
    }
}
BENCHMARK(BM_BuildImage)->Unit(benchmark::kMicrosecond);

/** Loading and unloading a prebuilt image of the same spec: ECREATE,
 *  EADD and EEXTEND of every page, EINIT's signature and measurement
 *  checks, EREMOVE. Every rebuild and live move pays this. */
void
BM_LoadImage(benchmark::State& state)
{
    MachineBench bench(true);
    Rng rng(3);
    const auto key = crypto::RsaKeyPair::generate(rng, 1024);
    const sdk::EnclaveSpec spec = tenantShapedSpec();
    const auto image = sdk::buildImage(spec, key);
    for (auto _ : state) {
        auto* enclave = bench.urts.load(image, spec.interface).orThrow("load");
        bench.urts.unload(enclave).orThrow("unload");
    }
}
BENCHMARK(BM_LoadImage)->Unit(benchmark::kMicrosecond);

/** The hot path of the whole model: validated translate + data copy.
 *  Arg: 0 = flush-on-transition TLB, 1 = context-tagged TLB. */
void
BM_ValidatedRead(benchmark::State& state)
{
    MachineBench bench(state.range(0) != 0);
    bench.machine.eenter(0, bench.tcs).orThrow("eenter");
    hw::Vaddr heap = bench.enclave->heap().alloc(4096);

    std::uint8_t buf[256];
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            bench.machine.read(0, heap, buf, sizeof(buf)));
    }
    state.SetBytesProcessed(state.iterations() * sizeof(buf));
    bench.exportCounters(state);
}
BENCHMARK(BM_ValidatedRead)->Arg(0)->Arg(1);

/** A multi-page streaming read: exercises the contiguous-range fast
 *  path on top of the tagged TLB. */
void
BM_StreamingRead(benchmark::State& state)
{
    MachineBench bench(state.range(0) != 0);
    bench.machine.eenter(0, bench.tcs).orThrow("eenter");
    hw::Vaddr heap = bench.enclave->heap().alloc(4 * hw::kPageSize);

    std::vector<std::uint8_t> buf(4 * hw::kPageSize);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            bench.machine.read(0, heap, buf.data(), buf.size()));
    }
    state.SetBytesProcessed(state.iterations() * std::int64_t(buf.size()));
    bench.exportCounters(state);
}
BENCHMARK(BM_StreamingRead)->Arg(0)->Arg(1);

/** Warm ecall round-trips: where the tagged TLB pays off — no flush on
 *  either edge, and the enclave's translations survive between calls. */
void
BM_EcallRoundTrip(benchmark::State& state)
{
    MachineBench bench(state.range(0) != 0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(bench.urts.ecall(bench.enclave, "empty", {}));
    }
    bench.exportCounters(state);
}
BENCHMARK(BM_EcallRoundTrip)->Arg(0)->Arg(1);

void
BM_BtreeInsertFind(benchmark::State& state)
{
    db::Btree tree;
    Rng rng(3);
    db::Key next = 0;
    for (int i = 0; i < 10000; ++i) tree.insert(next++, {"v"});
    for (auto _ : state) {
        tree.insert(next++, {"v"});
        benchmark::DoNotOptimize(
            tree.find(db::Key(rng.nextBelow(std::uint64_t(next)))));
    }
}
BENCHMARK(BM_BtreeInsertFind);

void
BM_RbfKernel(benchmark::State& state)
{
    Rng rng(4);
    auto data = svm::generate(svm::shapeByName("protein"), 2, rng);
    svm::KernelParams params;
    std::uint64_t flops = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(svm::kernel(params, data.samples[0],
                                             data.samples[1], flops));
    }
}
BENCHMARK(BM_RbfKernel);

}  // namespace

BENCHMARK_MAIN();
