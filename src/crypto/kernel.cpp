#include "crypto/kernel.h"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace nesgx::crypto {

namespace {

#if defined(__x86_64__)
/** XCR0, the state components the OS saves; needs CPUID's OSXSAVE. */
unsigned
xcr0()
{
    unsigned lo = 0, hi = 0;
    __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
    return lo;
}
#endif

struct HostKernels {
    Kernel gcm = Kernel::Portable;
    Kernel sha256 = Kernel::Portable;

    HostKernels()
    {
#if defined(__x86_64__)
        // The x86 kernels use only XMM registers, which every x86-64 OS
        // saves, so their CPUID feature bits alone decide whether they
        // run. The wide kernel uses YMM registers, whose upper halves an
        // OS may leave unsaved: it also needs XCR0 to enable SSE and AVX
        // state (bits 1 and 2).
        unsigned a = 0, b = 0, c = 0, d = 0;
        if (!__get_cpuid(1, &a, &b, &c, &d)) return;
        const bool sse = (c & bit_SSSE3) && (c & bit_SSE4_1);
        const bool ymmSaved = (c & bit_OSXSAVE) && (xcr0() & 0x6) == 0x6;
        if (sse && (c & bit_AES) && (c & bit_PCLMUL)) gcm = Kernel::X86;
        if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return;
        if (sse && (b & bit_SHA)) sha256 = Kernel::X86;
        if (gcm == Kernel::X86 && ymmSaved && (b & bit_AVX2) &&
            (c & bit_VAES) && (c & bit_VPCLMULQDQ)) {
            gcm = Kernel::Vaes;
        }
#endif
    }
};

const HostKernels&
host()
{
    static const HostKernels kernels;
    return kernels;
}

}  // namespace

Kernel
gcmKernel()
{
    return host().gcm;
}

Kernel
sha256Kernel()
{
    return host().sha256;
}

}  // namespace nesgx::crypto
