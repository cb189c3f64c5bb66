#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace dlte::crypto {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

std::string to_hex(std::span<const std::uint8_t> d) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  for (std::uint8_t b : d) {
    s += digits[b >> 4];
    s += digits[b & 0xf];
  }
  return s;
}

// FIPS-180 known-answer vectors.
TEST(Sha256, EmptyInput) {
  EXPECT_EQ(
      to_hex(sha256({})),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(
      to_hex(sha256(bytes_of("abc"))),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      to_hex(sha256(bytes_of(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, ExactBlockBoundaryLengths) {
  // 55 bytes: padding fits one block; 56 bytes: padding spills to a second.
  const auto d55 = sha256(bytes_of(std::string(55, 'a')));
  const auto d56 = sha256(bytes_of(std::string(56, 'a')));
  const auto d64 = sha256(bytes_of(std::string(64, 'a')));
  EXPECT_NE(to_hex(d55), to_hex(d56));
  EXPECT_NE(to_hex(d56), to_hex(d64));
  // Regression: 64*'a' known value.
  EXPECT_EQ(
      to_hex(d64),
      "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

// FIPS-180 long-message vector: one million 'a'. Fed once whole and once
// in 7-byte pieces, so the streaming hasher's partial-block buffering is
// crossed at every offset.
TEST(Sha256, MillionA) {
  const std::vector<std::uint8_t> data(1000000, 'a');
  const std::string want =
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
  EXPECT_EQ(to_hex(sha256(data)), want);
  Sha256 streaming;
  for (std::size_t i = 0; i < data.size(); i += 7) {
    streaming.update(std::span{data}.subspan(i, std::min<std::size_t>(
                                                    7, data.size() - i)));
  }
  EXPECT_EQ(to_hex(streaming.final()), want);
}

// RFC 4231 test case 1.
TEST(HmacSha256, Rfc4231Case1) {
  std::vector<std::uint8_t> key(20, 0x0b);
  EXPECT_EQ(
      to_hex(hmac_sha256(key, bytes_of("Hi There"))),
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(
      to_hex(hmac_sha256(bytes_of("Jefe"),
                         bytes_of("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 6: key longer than block size (hashed first).
TEST(HmacSha256, LongKeyIsHashed) {
  std::vector<std::uint8_t> key(131, 0xaa);
  EXPECT_EQ(
      to_hex(hmac_sha256(
          key, bytes_of("Test Using Larger Than Block-Size Key - Hash "
                        "Key First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// RFC 4231 test cases 3-7 (case 6 is LongKeyIsHashed above). Case 5's
// published value is the leftmost 128 bits.
TEST(HmacSha256, Rfc4231Cases3To7) {
  std::vector<std::uint8_t> key4;
  for (std::uint8_t b = 0x01; b <= 0x19; ++b) key4.push_back(b);
  const struct {
    int rfc_case;
    std::vector<std::uint8_t> key;
    std::vector<std::uint8_t> data;
    std::string hex;
  } cases[] = {
      {3, std::vector<std::uint8_t>(20, 0xaa),
       std::vector<std::uint8_t>(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {4, key4, std::vector<std::uint8_t>(50, 0xcd),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {5, std::vector<std::uint8_t>(20, 0x0c), bytes_of("Test With Truncation"),
       "a3b6167473100ee06e0c796c2955552b"},
      {7, std::vector<std::uint8_t>(131, 0xaa),
       bytes_of("This is a test using a larger than block-size key and a "
                "larger than block-size data. The key needs to be hashed "
                "before being used by the HMAC algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(to_hex(hmac_sha256(c.key, c.data)).substr(0, c.hex.size()),
              c.hex)
        << "RFC 4231 case " << c.rfc_case;
  }
}

}  // namespace
}  // namespace dlte::crypto
