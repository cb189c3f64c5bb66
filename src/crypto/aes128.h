// AES-128 block cipher (FIPS-197), encryption direction only.
//
// Milenage (the 3GPP authentication-and-key-agreement kernel) is defined
// purely in terms of AES-128 encryption, so decryption is intentionally
// not implemented. On x86-64 CPUs with AES-NI the key schedule and the
// rounds run on those instructions; elsewhere a byte-wise table-based
// implementation runs, which is also the tests' reference (crypto/kernels.h).
// Both give identical round keys and ciphertext. Side-channel hardening is
// out of scope for a simulator.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace dlte::crypto {

using Block128 = std::array<std::uint8_t, 16>;
using Key128 = std::array<std::uint8_t, 16>;

class Aes128 {
 public:
  explicit Aes128(const Key128& key);

  // Encrypt one 16-byte block (ECB, single block).
  [[nodiscard]] Block128 encrypt(const Block128& plaintext) const;

 private:
  // 11 round keys of 16 bytes each.
  std::array<std::uint8_t, 176> round_keys_{};
};

// XOR of two 128-bit blocks; used pervasively by Milenage.
[[nodiscard]] Block128 xor_blocks(const Block128& a, const Block128& b);

}  // namespace dlte::crypto
