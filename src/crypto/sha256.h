// SHA-256 and HMAC-SHA-256 (FIPS-180-4 / RFC 2104).
//
// Used by the key-derivation function (3GPP TS 33.401 Annex A style) that
// turns CK/IK from Milenage into the session key hierarchy, and by the
// blockchain-like registry's block hashing.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace dlte::crypto {

using Digest256 = std::array<std::uint8_t, 32>;

// Folds `count` consecutive 64-byte blocks into the eight state words `h`.
using Sha256Compress = void (*)(std::uint32_t* h, const std::uint8_t* blocks,
                                std::size_t count);

// Streaming SHA-256. Whole blocks go from the caller's bytes straight to
// the compressor; only a partial block is buffered.
class Sha256 {
 public:
  // Compresses with SHA-NI where the CPU has it, else with the portable
  // reference (crypto/kernels.h); the digests are identical.
  Sha256();
  // Compresses with `compress`; the differential tests pin a path with it.
  explicit Sha256(Sha256Compress compress) : compress_(compress) {}

  Sha256& update(std::span<const std::uint8_t> data);
  // Pads, compresses the last block(s) and returns the digest. Call once.
  [[nodiscard]] Digest256 final();

 private:
  Sha256Compress compress_;
  std::uint32_t h_[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_{0};
  std::uint64_t length_{0};
};

// Streaming HMAC-SHA-256: the key pads are absorbed at construction, so
// a message can be fed in pieces without first being copied into one
// buffer.
class HmacSha256 {
 public:
  explicit HmacSha256(std::span<const std::uint8_t> key);

  HmacSha256& update(std::span<const std::uint8_t> data) {
    inner_.update(data);
    return *this;
  }
  // Call once.
  [[nodiscard]] Digest256 final();

 private:
  Sha256 inner_;  // Has absorbed key ^ ipad.
  Sha256 outer_;  // Has absorbed key ^ opad.
};

[[nodiscard]] Digest256 sha256(std::span<const std::uint8_t> data);

[[nodiscard]] Digest256 hmac_sha256(std::span<const std::uint8_t> key,
                                    std::span<const std::uint8_t> message);

}  // namespace dlte::crypto
