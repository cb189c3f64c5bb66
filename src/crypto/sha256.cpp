#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "crypto/kernels.h"

namespace dlte::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void process_block(std::uint32_t* h, const std::uint8_t* p) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(p[i * 4]) << 24) |
           (static_cast<std::uint32_t>(p[i * 4 + 1]) << 16) |
           (static_cast<std::uint32_t>(p[i * 4 + 2]) << 8) |
           static_cast<std::uint32_t>(p[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
  std::uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = hh + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    hh = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
  h[5] += f;
  h[6] += g;
  h[7] += hh;
}

#if defined(__x86_64__)

// Four rounds on SHA-NI: add the round constants K[4g..4g+3] to the four
// schedule words in `w`, then two two-round steps.
__attribute__((target("sha,sse4.1,ssse3"))) inline void rounds4_ni(
    __m128i& abef, __m128i& cdgh, __m128i w, int group) {
  const __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + group * 4)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
}

// SHA-NI keeps the state as (A,B,E,F) and (C,D,G,H) vectors; h[8] is
// converted in and out once per call, so the layout callers see is the
// portable one.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_ni(
    std::uint32_t* h, const std::uint8_t* blocks, std::size_t count) {
  // Big-endian message words into little-endian lanes.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(h)), 0xb1);
  const __m128i hgfe = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(h + 4)), 0x1b);
  __m128i abef = _mm_alignr_epi8(dcba, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, dcba, 0xf0);
  for (std::size_t b = 0; b < count; ++b, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[g % 4] holds schedule words 4g..4g+3 once group g is computed;
    // group g >= 4 expands from the four groups before it.
    __m128i w[4];
    for (int g = 0; g < 4; ++g) {
      w[g] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + g * 16)),
          bswap);
      rounds4_ni(abef, cdgh, w[g], g);
    }
    for (int g = 4; g < 16; ++g) {
      const __m128i prev = w[(g + 3) % 4];
      const __m128i w7 = _mm_alignr_epi8(prev, w[(g + 2) % 4], 4);
      w[g % 4] = _mm_sha256msg2_epu32(
          _mm_add_epi32(_mm_sha256msg1_epu32(w[g % 4], w[(g + 1) % 4]), w7),
          prev);
      rounds4_ni(abef, cdgh, w[g % 4], g);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool cpu_has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & (1u << 9)) != 0;   // CPUID.1:ECX.SSSE3
  const bool sse41 = (ecx & (1u << 19)) != 0;  // CPUID.1:ECX.SSE4_1
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1u << 29)) != 0;  // CPUID.(7,0):EBX.SHA
  return ssse3 && sse41 && sha;
}

#endif  // defined(__x86_64__)

// The process's compressor, chosen on first use.
Sha256Compress active_compress() {
  const Sha256Compress hardware = kernels::sha_ni();
  return hardware != nullptr ? hardware : kernels::sha256_compress_portable;
}

}  // namespace

namespace kernels {

void sha256_compress_portable(std::uint32_t* h, const std::uint8_t* blocks,
                              std::size_t count) {
  for (std::size_t b = 0; b < count; ++b) process_block(h, blocks + b * 64);
}

Sha256Compress sha_ni() {
#if defined(__x86_64__)
  static const bool present = cpu_has_sha_ni();
  return present ? compress_ni : nullptr;
#else
  return nullptr;
#endif
}

}  // namespace kernels

Sha256::Sha256() : compress_(active_compress()) {}

Sha256& Sha256::update(std::span<const std::uint8_t> data) {
  // An empty span may carry a null data(); memcpy's pointers must be
  // valid even for a zero-length copy.
  if (data.empty()) return *this;
  length_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (buffered_ > 0) {
    const std::size_t take = std::min(n, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ < buffer_.size()) return *this;
    compress_(h_, buffer_.data(), 1);
    buffered_ = 0;
  }
  if (n >= 64) {
    compress_(h_, p, n / 64);
    p += n / 64 * 64;
    n %= 64;
  }
  if (n > 0) {
    std::memcpy(buffer_.data(), p, n);
    buffered_ = n;
  }
  return *this;
}

Digest256 Sha256::final() {
  // Final padded block(s).
  std::uint8_t tail[128] = {};
  const std::size_t rem = buffered_;
  std::memcpy(tail, buffer_.data(), rem);
  tail[rem] = 0x80;
  const std::size_t tail_len = rem + 9 <= 64 ? 64 : 128;
  const std::uint64_t bit_len = length_ * 8;
  for (int b = 0; b < 8; ++b) {
    tail[tail_len - 1 - static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(bit_len >> (8 * b));
  }
  compress_(h_, tail, tail_len / 64);

  Digest256 out;
  for (int w = 0; w < 8; ++w) {
    out[static_cast<std::size_t>(w * 4 + 0)] =
        static_cast<std::uint8_t>(h_[w] >> 24);
    out[static_cast<std::size_t>(w * 4 + 1)] =
        static_cast<std::uint8_t>(h_[w] >> 16);
    out[static_cast<std::size_t>(w * 4 + 2)] =
        static_cast<std::uint8_t>(h_[w] >> 8);
    out[static_cast<std::size_t>(w * 4 + 3)] =
        static_cast<std::uint8_t>(h_[w]);
  }
  return out;
}

HmacSha256::HmacSha256(std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, 64> k_block{};
  if (key.size() > 64) {
    const Digest256 kh = sha256(key);
    std::memcpy(k_block.data(), kh.data(), kh.size());
  } else if (!key.empty()) {
    std::memcpy(k_block.data(), key.data(), key.size());
  }
  std::array<std::uint8_t, 64> pad{};
  for (std::size_t i = 0; i < pad.size(); ++i) {
    pad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x36);
  }
  inner_.update(pad);
  for (std::size_t i = 0; i < pad.size(); ++i) {
    pad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x5c);
  }
  outer_.update(pad);
}

Digest256 HmacSha256::final() {
  const Digest256 inner_hash = inner_.final();
  return outer_.update(inner_hash).final();
}

Digest256 sha256(std::span<const std::uint8_t> data) {
  return Sha256().update(data).final();
}

Digest256 hmac_sha256(std::span<const std::uint8_t> key,
                      std::span<const std::uint8_t> message) {
  return HmacSha256(key).update(message).final();
}

}  // namespace dlte::crypto
