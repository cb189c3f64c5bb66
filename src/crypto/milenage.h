// Milenage authentication-and-key-agreement kernel (3GPP TS 35.205/35.206).
//
// The HSS uses f1–f5 to build authentication vectors; the USIM uses the
// same functions to verify the network and answer the challenge. dLTE's
// "open key" mode (paper §4.2) publishes K/OPc in the registry so any AP's
// local core can run this same procedure — the cryptography is unchanged,
// only the key distribution differs.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/aes128.h"

namespace dlte::crypto {

using Rand128 = Block128;
using Sqn48 = std::array<std::uint8_t, 6>;
using Amf16 = std::array<std::uint8_t, 2>;
using Mac64 = std::array<std::uint8_t, 8>;
using Res64 = std::array<std::uint8_t, 8>;
using Ak48 = std::array<std::uint8_t, 6>;
using Ck128 = Block128;
using Ik128 = Block128;

// Derive OPc from the operator variant constant OP and subscriber key K:
//   OPc = OP xor E_K(OP).
[[nodiscard]] Block128 derive_opc(const Key128& k, const Block128& op);

class Milenage {
 public:
  // K is the subscriber secret key; opc the precomputed operator constant.
  Milenage(const Key128& k, const Block128& opc);

  // TEMP = E_K(RAND xor OPc), the block every function below starts
  // from. An AKA run computes it once per RAND and passes it to the
  // Temp-taking forms; the RAND-taking forms recompute it per call.
  struct Temp {
    Block128 block;
  };
  [[nodiscard]] Temp temp(const Rand128& rand) const;

  struct F1Output {
    Mac64 mac_a;  // Network authentication code (f1).
    Mac64 mac_s;  // Resynchronisation code (f1*).
  };
  [[nodiscard]] F1Output f1(const Temp& temp, const Sqn48& sqn,
                            const Amf16& amf) const;
  [[nodiscard]] F1Output f1(const Rand128& rand, const Sqn48& sqn,
                            const Amf16& amf) const {
    return f1(temp(rand), sqn, amf);
  }

  struct F2F5Output {
    Res64 res;  // Expected user response (f2).
    Ak48 ak;    // Anonymity key (f5).
  };
  [[nodiscard]] F2F5Output f2_f5(const Temp& temp) const;
  [[nodiscard]] F2F5Output f2_f5(const Rand128& rand) const {
    return f2_f5(temp(rand));
  }

  [[nodiscard]] Ck128 f3(const Temp& temp) const;  // Cipher key.
  [[nodiscard]] Ck128 f3(const Rand128& rand) const { return f3(temp(rand)); }
  [[nodiscard]] Ik128 f4(const Temp& temp) const;  // Integrity key.
  [[nodiscard]] Ik128 f4(const Rand128& rand) const { return f4(temp(rand)); }
  [[nodiscard]] Ak48 f5_star(const Temp& temp) const;  // Resync AK.
  [[nodiscard]] Ak48 f5_star(const Rand128& rand) const {
    return f5_star(temp(rand));
  }

 private:
  [[nodiscard]] Block128 out_block(const Temp& temp, int rotate_bits,
                                   std::uint8_t c_last_byte) const;

  Aes128 cipher_;
  Block128 opc_;
};

}  // namespace dlte::crypto
