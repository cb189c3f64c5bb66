// Block kernels behind Aes128 and Sha256: the portable reference code
// and, on x86-64 hosts whose CPU has the instructions, AES-NI and SHA-NI
// versions of the same functions over the same state layout (the 176-byte
// AES round-key array, the SHA-256 h[8] words).
//
// Aes128 and Sha256 pick a kernel once per process from CPUID; nothing
// else selects a path. This header is for the crypto sources and the
// differential tests, which call each kernel directly.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/aes128.h"
#include "crypto/sha256.h"

namespace dlte::crypto::kernels {

using AesRoundKeys = std::array<std::uint8_t, 176>;

struct AesKernel {
  // FIPS-197 key expansion: 11 round keys of 16 bytes, in byte order.
  void (*expand_key)(const Key128& key, AesRoundKeys& round_keys);
  Block128 (*encrypt)(const AesRoundKeys& round_keys, const Block128& in);
};

// The byte-wise FIPS-197 and scalar FIPS-180-4 reference code: the only
// path on CPUs without the extensions, and the tests' oracle.
extern const AesKernel kPortableAes;
void sha256_compress_portable(std::uint32_t* h, const std::uint8_t* blocks,
                              std::size_t count);

// The hardware kernels, or null when the build target is not x86-64 or
// the CPU lacks AES-NI (resp. SHA-NI, SSE4.1 and SSSE3). CPUID is read
// once per process.
[[nodiscard]] const AesKernel* aes_ni();
[[nodiscard]] Sha256Compress sha_ni();

}  // namespace dlte::crypto::kernels
