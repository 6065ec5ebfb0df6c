/**
 * Which implementation runs a primitive's bulk work.
 *
 * AES-GCM and SHA-256 each have a portable kernel (T-table AES, Shoup
 * GHASH, scalar SHA-256 rounds), which runs everywhere and is the
 * reference the tests compare against, and an x86-64 kernel on the
 * AES-NI/PCLMULQDQ and SHA-NI instructions. AES-GCM has a third, wide
 * kernel on the 256-bit VAES/VPCLMULQDQ forms. All produce the same bytes.
 * The default is read once per process from CPUID; nothing else selects it.
 */
#pragma once

namespace nesgx::crypto {

/**
 * Ordered by what a kernel needs: each needs every flag of the one before
 * it, so the host runs a GCM kernel exactly when it is no later than
 * gcmKernel(). SHA-256 has no Vaes kernel.
 */
enum class Kernel { Portable, X86, Vaes };

/**
 * Vaes when the host has X86's flags plus AVX2, VAES and VPCLMULQDQ, and
 * the OS saves YMM state (OSXSAVE, with XCR0 bits 1 and 2 set); else X86
 * when it has AES-NI, PCLMULQDQ, SSSE3 and SSE4.1; else Portable.
 */
Kernel gcmKernel();

/** X86 when the host has SHA-NI, SSSE3 and SSE4.1; never Vaes. */
Kernel sha256Kernel();

}  // namespace nesgx::crypto
