#include "crypto/aes128.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "crypto/kernels.h"

namespace dlte::crypto {

namespace {

using kernels::AesRoundKeys;

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

// Multiply by x (i.e. {02}) in GF(2^8) with the AES polynomial.
std::uint8_t xtime(std::uint8_t a) {
  return static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0x00));
}

void expand_key_portable(const Key128& key, AesRoundKeys& round_keys) {
  for (int i = 0; i < 16; ++i) {
    round_keys[static_cast<std::size_t>(i)] = key[static_cast<std::size_t>(i)];
  }
  for (int round = 1; round <= 10; ++round) {
    const std::size_t base = static_cast<std::size_t>(round) * 16;
    // RotWord + SubWord + Rcon on the previous word.
    std::uint8_t t0 = kSbox[round_keys[base - 3]];
    std::uint8_t t1 = kSbox[round_keys[base - 2]];
    std::uint8_t t2 = kSbox[round_keys[base - 1]];
    std::uint8_t t3 = kSbox[round_keys[base - 4]];
    t0 = static_cast<std::uint8_t>(t0 ^ kRcon[round - 1]);
    round_keys[base + 0] =
        static_cast<std::uint8_t>(round_keys[base - 16] ^ t0);
    round_keys[base + 1] =
        static_cast<std::uint8_t>(round_keys[base - 15] ^ t1);
    round_keys[base + 2] =
        static_cast<std::uint8_t>(round_keys[base - 14] ^ t2);
    round_keys[base + 3] =
        static_cast<std::uint8_t>(round_keys[base - 13] ^ t3);
    for (std::size_t i = 4; i < 16; ++i) {
      round_keys[base + i] =
          static_cast<std::uint8_t>(round_keys[base + i - 4] ^
                                    round_keys[base + i - 16]);
    }
  }
}

Block128 encrypt_portable(const AesRoundKeys& round_keys,
                          const Block128& plaintext) {
  Block128 s = plaintext;
  auto add_round_key = [&](int round) {
    const std::size_t base = static_cast<std::size_t>(round) * 16;
    for (std::size_t i = 0; i < 16; ++i) s[i] ^= round_keys[base + i];
  };
  auto sub_bytes = [&] {
    for (auto& b : s) b = kSbox[b];
  };
  auto shift_rows = [&] {
    // State is column-major: s[c*4 + r].
    Block128 t = s;
    for (int r = 1; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) {
        s[static_cast<std::size_t>(c * 4 + r)] =
            t[static_cast<std::size_t>(((c + r) % 4) * 4 + r)];
      }
    }
  };
  auto mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      const std::size_t i = static_cast<std::size_t>(c) * 4;
      const std::uint8_t a0 = s[i], a1 = s[i + 1], a2 = s[i + 2],
                         a3 = s[i + 3];
      const std::uint8_t all = static_cast<std::uint8_t>(a0 ^ a1 ^ a2 ^ a3);
      s[i + 0] = static_cast<std::uint8_t>(
          a0 ^ all ^ xtime(static_cast<std::uint8_t>(a0 ^ a1)));
      s[i + 1] = static_cast<std::uint8_t>(
          a1 ^ all ^ xtime(static_cast<std::uint8_t>(a1 ^ a2)));
      s[i + 2] = static_cast<std::uint8_t>(
          a2 ^ all ^ xtime(static_cast<std::uint8_t>(a2 ^ a3)));
      s[i + 3] = static_cast<std::uint8_t>(
          a3 ^ all ^ xtime(static_cast<std::uint8_t>(a3 ^ a0)));
    }
  };

  add_round_key(0);
  for (int round = 1; round <= 9; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(10);
  return s;
}

#if defined(__x86_64__)

// AES-NI kernels. The round keys are stored with unaligned moves, in the
// byte order the portable expansion writes, so both paths share one
// round-key layout.
__attribute__((target("aes"))) __m128i next_round_key(__m128i key,
                                                      __m128i assist) {
  // assist's top word is SubWord(RotWord(w3)) ^ Rcon; fold in the
  // running XOR of the previous round key's words.
  assist = _mm_shuffle_epi32(assist, 0xff);
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  return _mm_xor_si128(key, assist);
}

__attribute__((target("aes"))) void expand_key_ni(const Key128& key,
                                                  AesRoundKeys& round_keys) {
  __m128i k[11];
  k[0] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key.data()));
  // The round constant is an immediate operand, so the rounds are unrolled.
  k[1] = next_round_key(k[0], _mm_aeskeygenassist_si128(k[0], 0x01));
  k[2] = next_round_key(k[1], _mm_aeskeygenassist_si128(k[1], 0x02));
  k[3] = next_round_key(k[2], _mm_aeskeygenassist_si128(k[2], 0x04));
  k[4] = next_round_key(k[3], _mm_aeskeygenassist_si128(k[3], 0x08));
  k[5] = next_round_key(k[4], _mm_aeskeygenassist_si128(k[4], 0x10));
  k[6] = next_round_key(k[5], _mm_aeskeygenassist_si128(k[5], 0x20));
  k[7] = next_round_key(k[6], _mm_aeskeygenassist_si128(k[6], 0x40));
  k[8] = next_round_key(k[7], _mm_aeskeygenassist_si128(k[7], 0x80));
  k[9] = next_round_key(k[8], _mm_aeskeygenassist_si128(k[8], 0x1b));
  k[10] = next_round_key(k[9], _mm_aeskeygenassist_si128(k[9], 0x36));
  for (int round = 0; round <= 10; ++round) {
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(round_keys.data() + round * 16), k[round]);
  }
}

__attribute__((target("aes"))) Block128 encrypt_ni(
    const AesRoundKeys& round_keys, const Block128& plaintext) {
  const auto* rk = reinterpret_cast<const __m128i*>(round_keys.data());
  __m128i s =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(plaintext.data()));
  s = _mm_xor_si128(s, _mm_loadu_si128(rk));
  for (int round = 1; round <= 9; ++round) {
    s = _mm_aesenc_si128(s, _mm_loadu_si128(rk + round));
  }
  s = _mm_aesenclast_si128(s, _mm_loadu_si128(rk + 10));
  Block128 out;
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out.data()), s);
  return out;
}

constexpr kernels::AesKernel kAesNi{expand_key_ni, encrypt_ni};

bool cpu_has_aes_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ecx & (1u << 25)) != 0;  // CPUID.1:ECX.AES
}

#endif  // defined(__x86_64__)

// The process's kernel, chosen on first use.
const kernels::AesKernel& active_aes() {
  const kernels::AesKernel* hardware = kernels::aes_ni();
  return hardware != nullptr ? *hardware : kernels::kPortableAes;
}

}  // namespace

namespace kernels {

const AesKernel kPortableAes{expand_key_portable, encrypt_portable};

const AesKernel* aes_ni() {
#if defined(__x86_64__)
  static const bool present = cpu_has_aes_ni();
  return present ? &kAesNi : nullptr;
#else
  return nullptr;
#endif
}

}  // namespace kernels

Aes128::Aes128(const Key128& key) {
  active_aes().expand_key(key, round_keys_);
}

Block128 Aes128::encrypt(const Block128& plaintext) const {
  return active_aes().encrypt(round_keys_, plaintext);
}

Block128 xor_blocks(const Block128& a, const Block128& b) {
  Block128 out;
  for (std::size_t i = 0; i < 16; ++i) {
    out[i] = static_cast<std::uint8_t>(a[i] ^ b[i]);
  }
  return out;
}

}  // namespace dlte::crypto
