#include "crypto/kernel.h"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace nesgx::crypto {

namespace {

struct HostKernels {
    Kernel gcm = Kernel::Portable;
    Kernel sha256 = Kernel::Portable;

    HostKernels()
    {
#if defined(__x86_64__)
        // The kernels use only XMM registers, which every x86-64 OS
        // saves, so the CPUID feature bits alone decide what runs.
        unsigned a = 0, b = 0, c = 0, d = 0;
        if (!__get_cpuid(1, &a, &b, &c, &d)) return;
        const bool sse = (c & bit_SSSE3) && (c & bit_SSE4_1);
        if (sse && (c & bit_AES) && (c & bit_PCLMUL)) gcm = Kernel::X86;
        if (sse && __get_cpuid_count(7, 0, &a, &b, &c, &d) && (b & bit_SHA)) {
            sha256 = Kernel::X86;
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
