// The AES-NI and SHA-NI kernels against the portable reference code, on
// seeded random inputs. Each test prints its seed; where the build target
// or the CPU lacks an extension the hardware comparison is skipped and
// only the dispatching front end is checked against the reference.
#include "crypto/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <vector>

namespace dlte::crypto {
namespace {

constexpr std::uint64_t kSeed = 20181115;

std::mt19937_64 seeded_rng(const char* test) {
  std::printf("[   SEED   ] %s seed=%llu\n", test,
              static_cast<unsigned long long>(kSeed));
  return std::mt19937_64{kSeed};
}

template <typename Bytes>
void fill_random(std::mt19937_64& rng, Bytes& bytes) {
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
}

Block128 random_block(std::mt19937_64& rng) {
  Block128 b{};
  fill_random(rng, b);
  return b;
}

Digest256 portable_sha256(std::span<const std::uint8_t> data) {
  return Sha256(kernels::sha256_compress_portable).update(data).final();
}

// RFC 2104 spelled out over the portable compressor.
Digest256 portable_hmac(std::span<const std::uint8_t> key,
                        std::span<const std::uint8_t> message) {
  std::array<std::uint8_t, 64> k{};
  if (key.size() > 64) {
    const Digest256 kh = portable_sha256(key);
    std::copy(kh.begin(), kh.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }
  std::array<std::uint8_t, 64> ipad{};
  std::array<std::uint8_t, 64> opad{};
  for (std::size_t i = 0; i < k.size(); ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  const Digest256 inner = Sha256(kernels::sha256_compress_portable)
                              .update(ipad)
                              .update(message)
                              .final();
  return Sha256(kernels::sha256_compress_portable)
      .update(opad)
      .update(inner)
      .final();
}

TEST(CryptoKernels, AesNiMatchesPortable) {
  const kernels::AesKernel* hw = kernels::aes_ni();
  if (hw == nullptr) {
    GTEST_SKIP() << "no AES-NI: build target is not x86-64 or CPU lacks it";
  }
  auto rng = seeded_rng("AesNiMatchesPortable");
  for (int i = 0; i < 10000; ++i) {
    const Key128 key = random_block(rng);
    const Block128 plaintext = random_block(rng);
    kernels::AesRoundKeys want{};
    kernels::AesRoundKeys got{};
    kernels::kPortableAes.expand_key(key, want);
    hw->expand_key(key, got);
    ASSERT_EQ(want, got) << "round keys differ, case " << i;
    ASSERT_EQ(kernels::kPortableAes.encrypt(want, plaintext),
              hw->encrypt(got, plaintext))
        << "ciphertext differs, case " << i;
  }
}

TEST(CryptoKernels, Aes128MatchesPortable) {
  auto rng = seeded_rng("Aes128MatchesPortable");
  for (int i = 0; i < 1000; ++i) {
    const Key128 key = random_block(rng);
    const Block128 plaintext = random_block(rng);
    kernels::AesRoundKeys round_keys{};
    kernels::kPortableAes.expand_key(key, round_keys);
    ASSERT_EQ(Aes128{key}.encrypt(plaintext),
              kernels::kPortableAes.encrypt(round_keys, plaintext))
        << "case " << i;
  }
}

TEST(CryptoKernels, ShaNiCompressMatchesPortable) {
  const Sha256Compress hw = kernels::sha_ni();
  if (hw == nullptr) {
    GTEST_SKIP() << "no SHA-NI: build target is not x86-64 or CPU lacks "
                    "SHA, SSE4.1 or SSSE3";
  }
  auto rng = seeded_rng("ShaNiCompressMatchesPortable");
  std::vector<std::uint8_t> blocks(4 * 64);
  for (int i = 0; i < 2000; ++i) {
    std::uint32_t want[8] = {};
    for (auto& word : want) word = static_cast<std::uint32_t>(rng());
    std::uint32_t got[8] = {};
    std::copy(std::begin(want), std::end(want), std::begin(got));
    fill_random(rng, blocks);
    const std::size_t count = 1 + rng() % 4;
    kernels::sha256_compress_portable(want, blocks.data(), count);
    hw(got, blocks.data(), count);
    ASSERT_TRUE(std::equal(std::begin(want), std::end(want), std::begin(got)))
        << "state differs, case " << i << ", " << count << " blocks";
  }
}

TEST(CryptoKernels, ShaNiDigestsMatchPortable) {
  const Sha256Compress hw = kernels::sha_ni();
  if (hw == nullptr) {
    GTEST_SKIP() << "no SHA-NI: build target is not x86-64 or CPU lacks "
                    "SHA, SSE4.1 or SSSE3";
  }
  auto rng = seeded_rng("ShaNiDigestsMatchPortable");
  std::vector<std::uint8_t> data(4096);
  fill_random(rng, data);
  auto check = [&](std::size_t length) {
    const std::span<const std::uint8_t> message{data.data(), length};
    ASSERT_EQ(portable_sha256(message), Sha256(hw).update(message).final())
        << "length " << length;
  };
  for (std::size_t length = 0; length <= 300; ++length) check(length);
  for (int i = 0; i < 200; ++i) check(rng() % (data.size() + 1));
}

TEST(CryptoKernels, HmacLongKeysMatchPortable) {
  if (kernels::sha_ni() == nullptr) {
    GTEST_SKIP() << "no SHA-NI: build target is not x86-64 or CPU lacks "
                    "SHA, SSE4.1 or SSSE3";
  }
  auto rng = seeded_rng("HmacLongKeysMatchPortable");
  std::vector<std::uint8_t> key;
  std::vector<std::uint8_t> message;
  for (int i = 0; i < 500; ++i) {
    key.resize(65 + rng() % 236);
    message.resize(rng() % 301);
    fill_random(rng, key);
    fill_random(rng, message);
    ASSERT_EQ(portable_hmac(key, message), hmac_sha256(key, message))
        << "case " << i << ": key " << key.size() << " bytes, message "
        << message.size() << " bytes";
  }
}

}  // namespace
}  // namespace dlte::crypto
