/**
 * Reproduces paper Table II: average latency of enclave transition calls
 * for real-hardware SGX, emulated SGX, and emulated nested enclave.
 *
 * Method as in the paper (§V): a microbenchmark performing transition
 * calls many times (1 M at full scale); the reported figure is the mean
 * per-call latency. Every call exercises the real leaf emulation
 * (EENTER/EEXIT/NEENTER/NEEXIT with TLB flushes), and the latency is the
 * simulated-clock delta at the i7-7700's 3.6 GHz.
 */
#include <array>

#include "bench_util.h"

namespace nesgx::bench {
namespace {

struct Row {
    const char* mode;
    double ecallUs;
    double ocallUs;
};

/** Measures mean ecall and ocall latency under one cost preset.
 *  `taggedTlb=false` reproduces the paper's flush-on-transition rows. */
Row
measure(hw::CostPreset preset, bool nested, std::uint64_t iterations,
        bool taggedTlb = false)
{
    auto config = defaultConfig(preset);
    config.taggedTlb = taggedTlb;
    BenchWorld world(config);

    sdk::EnclaveSpec outerSpec;
    outerSpec.name = "t2-outer";
    outerSpec.codePages = 4;
    outerSpec.heapPages = 8;
    outerSpec.interface->addEcall(
        "empty", [](sdk::TrustedEnv&, ByteView) -> Result<Bytes> {
            return Bytes{};
        });
    outerSpec.interface->addEcall(
        "ocall_loop",
        [](sdk::TrustedEnv& env, ByteView arg) -> Result<Bytes> {
            std::uint64_t n = loadLe64(arg.data());
            for (std::uint64_t i = 0; i < n; ++i) {
                auto r = env.ocall("empty_host", {});
                if (!r) return r.status();
            }
            return Bytes{};
        });
    outerSpec.interface->addNOcallTarget(
        "empty_outer", [](sdk::TrustedEnv&, ByteView) -> Result<Bytes> {
            return Bytes{};
        });
    world.urts->registerOcall("empty_host",
                              [](ByteView) -> Result<Bytes> { return Bytes{}; });

    sdk::EnclaveSpec innerSpec;
    innerSpec.name = "t2-inner";
    innerSpec.codePages = 4;
    innerSpec.heapPages = 8;
    innerSpec.interface->addNEcall(
        "empty_inner", [](sdk::TrustedEnv&, ByteView) -> Result<Bytes> {
            return Bytes{};
        });
    innerSpec.interface->addNEcall(
        "nocall_loop",
        [](sdk::TrustedEnv& env, ByteView arg) -> Result<Bytes> {
            std::uint64_t n = loadLe64(arg.data());
            for (std::uint64_t i = 0; i < n; ++i) {
                auto r = env.nOcall("empty_outer", {});
                if (!r) return r.status();
            }
            return Bytes{};
        });
    // The outer additionally exposes an n_ecall loop driver.
    std::shared_ptr<sdk::LoadedEnclave*> innerSlot =
        std::make_shared<sdk::LoadedEnclave*>(nullptr);
    outerSpec.interface->addEcall(
        "necall_loop",
        [innerSlot](sdk::TrustedEnv& env, ByteView arg) -> Result<Bytes> {
            std::uint64_t n = loadLe64(arg.data());
            for (std::uint64_t i = 0; i < n; ++i) {
                auto r = env.nEcall(**innerSlot, "empty_inner", {});
                if (!r) return r.status();
            }
            return Bytes{};
        });

    auto app = core::NestedAppBuilder(*world.urts)
                   .outer(outerSpec)
                   .addInner(innerSpec)
                   .build()
                   .orThrow("build");
    *innerSlot = app.inner("t2-inner");

    auto& clock = world.machine.clock();
    Bytes loopArg(8);
    storeLe64(loopArg.data(), iterations);

    Row row{"", 0, 0};
    if (!nested) {
        // Plain ecall latency.
        std::uint64_t before = clock.cycles();
        for (std::uint64_t i = 0; i < iterations; ++i) {
            app.callOuter("empty", {}).orThrow("ecall");
        }
        row.ecallUs = clock.cyclesToMicros(clock.cycles() - before) /
                      double(iterations);

        // ocall latency: one envelope ecall amortized over the loop.
        before = clock.cycles();
        app.callOuter("ocall_loop", loopArg).orThrow("ocall loop");
        std::uint64_t delta = clock.cycles() - before;
        delta -= world.machine.costs().ecallRoundTrip(taggedTlb) +
                 world.machine.costs().copyBytes(8);
        row.ocallUs = clock.cyclesToMicros(delta) / double(iterations);
    } else {
        // n_ecall latency, amortizing the envelope ecall.
        std::uint64_t before = clock.cycles();
        app.callOuter("necall_loop", loopArg).orThrow("necall loop");
        std::uint64_t delta = clock.cycles() - before;
        delta -= world.machine.costs().ecallRoundTrip(taggedTlb) +
                 world.machine.costs().copyBytes(8);
        row.ecallUs = clock.cyclesToMicros(delta) / double(iterations);

        // n_ocall latency, amortizing ecall + n_ecall envelopes.
        before = clock.cycles();
        world.urts
            ->ecallChain(std::array{app.outer(), app.inner("t2-inner")},
                         "nocall_loop", loopArg)
            .orThrow("nocall loop");
        delta = clock.cycles() - before;
        delta -= world.machine.costs().ecallRoundTrip(taggedTlb) +
                 world.machine.costs().nEcallRoundTrip(taggedTlb) +
                 world.machine.costs().copyBytes(8);
        row.ocallUs = clock.cyclesToMicros(delta) / double(iterations);
    }
    return row;
}

}  // namespace
}  // namespace nesgx::bench

int
main(int argc, char** argv)
{
    using namespace nesgx::bench;
    Flags flags(argc, argv);
    // Paper uses 1 M calls; the default here is 20 k (identical means on
    // a deterministic clock), overridable with --iterations.
    std::uint64_t iterations = flags.u64("iterations", 20000);

    header("Table II: average latency of enclave transition calls");
    note("paper: HW 3.45/3.13 us, emulated SGX 1.25/1.14 us, "
         "emulated nested 1.11/1.06 us");
    note("iterations per cell: " + std::to_string(iterations));

    Row hw = measure(nesgx::hw::CostPreset::HwSgx, false, iterations);
    Row emu = measure(nesgx::hw::CostPreset::EmulatedSgx, false, iterations);
    Row nested =
        measure(nesgx::hw::CostPreset::EmulatedNested, true, iterations);

    std::printf("\n  %-46s %10s %10s\n", "Mode", "ecall", "ocall");
    std::printf("  %-46s %9.2fus %9.2fus\n", "HW SGX ecall/ocall",
                hw.ecallUs, hw.ocallUs);
    std::printf("  %-46s %9.2fus %9.2fus\n", "Emulated SGX ecall/ocall",
                emu.ecallUs, emu.ocallUs);
    std::printf("  %-46s %9.2fus %9.2fus\n",
                "Emulated nested ecall/ocall (n_ecall/n_ocall)",
                nested.ecallUs, nested.ocallUs);

    // Ablation beyond the paper: the same transitions with the
    // context-tagged TLB (no flush on EENTER/EEXIT/NEENTER/NEEXIT).
    header("Ablation: context-tagged TLB (taggedTlb=on vs paper-faithful off)");
    Row emuTag =
        measure(nesgx::hw::CostPreset::EmulatedSgx, false, iterations, true);
    Row nestedTag =
        measure(nesgx::hw::CostPreset::EmulatedNested, true, iterations, true);
    std::printf("\n  %-46s %10s %10s\n", "Mode", "ecall", "ocall");
    std::printf("  %-46s %9.2fus %9.2fus\n", "Emulated SGX, flushed TLB",
                emu.ecallUs, emu.ocallUs);
    std::printf("  %-46s %9.2fus %9.2fus\n", "Emulated SGX, tagged TLB",
                emuTag.ecallUs, emuTag.ocallUs);
    std::printf("  %-46s %9.2fus %9.2fus\n",
                "Emulated nested (n_ecall/n_ocall), flushed TLB",
                nested.ecallUs, nested.ocallUs);
    std::printf("  %-46s %9.2fus %9.2fus\n",
                "Emulated nested (n_ecall/n_ocall), tagged TLB",
                nestedTag.ecallUs, nestedTag.ocallUs);

    JsonReport json;
    json.set("iterations", double(iterations));
    json.set("hw_ecall_us", hw.ecallUs);
    json.set("hw_ocall_us", hw.ocallUs);
    json.set("emulated_ecall_us", emu.ecallUs);
    json.set("emulated_ocall_us", emu.ocallUs);
    json.set("nested_necall_us", nested.ecallUs);
    json.set("nested_nocall_us", nested.ocallUs);
    json.set("tagged_emulated_ecall_us", emuTag.ecallUs);
    json.set("tagged_emulated_ocall_us", emuTag.ocallUs);
    json.set("tagged_nested_necall_us", nestedTag.ecallUs);
    json.set("tagged_nested_nocall_us", nestedTag.ocallUs);
    json.writeIfRequested(flags);
    return 0;
}
