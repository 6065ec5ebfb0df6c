/**
 * Which implementation runs a primitive's bulk work.
 *
 * AES-GCM and SHA-256 each have a portable kernel (T-table AES, Shoup
 * GHASH, scalar SHA-256 rounds), which runs everywhere and is the
 * reference the tests compare against, and an x86-64 kernel on the
 * AES-NI/PCLMULQDQ and SHA-NI instructions. Both produce the same bytes.
 * The default is read once per process from CPUID; nothing else selects it.
 */
#pragma once

namespace nesgx::crypto {

enum class Kernel { Portable, X86 };

/** X86 when the host has AES-NI, PCLMULQDQ, SSSE3 and SSE4.1. */
Kernel gcmKernel();

/** X86 when the host has SHA-NI, SSSE3 and SSE4.1. */
Kernel sha256Kernel();

}  // namespace nesgx::crypto
