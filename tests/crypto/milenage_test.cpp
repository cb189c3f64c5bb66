#include "crypto/milenage.h"

#include <gtest/gtest.h>

#include <string>

namespace dlte::crypto {
namespace {

template <std::size_t N>
std::array<std::uint8_t, N> from_hex_n(const std::string& hex) {
  std::array<std::uint8_t, N> out{};
  for (std::size_t i = 0; i < N; ++i) {
    out[i] = static_cast<std::uint8_t>(
        std::stoul(hex.substr(i * 2, 2), nullptr, 16));
  }
  return out;
}

template <std::size_t N>
std::string to_hex(const std::array<std::uint8_t, N>& b) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  for (std::uint8_t byte : b) {
    s += digits[byte >> 4];
    s += digits[byte & 0xf];
  }
  return s;
}

// 3GPP TS 35.207 §4 Test Set 1.
struct TestSet1 {
  Key128 k = from_hex_n<16>("465b5ce8b199b49faa5f0a2ee238a6bc");
  Rand128 rand = from_hex_n<16>("23553cbe9637a89d218ae64dae47bf35");
  Sqn48 sqn = from_hex_n<6>("ff9bb4d0b607");
  Amf16 amf = from_hex_n<2>("b9b9");
  Block128 op = from_hex_n<16>("cdc202d5123e20f62b6d676ac72cb318");
};

TEST(Milenage, OpcDerivation) {
  TestSet1 t;
  EXPECT_EQ(to_hex(derive_opc(t.k, t.op)),
            "cd63cb71954a9f4e48a5994e37a02baf");
}

TEST(Milenage, F1MacA) {
  TestSet1 t;
  Milenage m{t.k, derive_opc(t.k, t.op)};
  const auto out = m.f1(t.rand, t.sqn, t.amf);
  EXPECT_EQ(to_hex(out.mac_a), "4a9ffac354dfafb3");
}

TEST(Milenage, F1StarMacS) {
  TestSet1 t;
  Milenage m{t.k, derive_opc(t.k, t.op)};
  const auto out = m.f1(t.rand, t.sqn, t.amf);
  EXPECT_EQ(to_hex(out.mac_s), "01cfaf9ec4e871e9");
}

TEST(Milenage, F2Response) {
  TestSet1 t;
  Milenage m{t.k, derive_opc(t.k, t.op)};
  EXPECT_EQ(to_hex(m.f2_f5(t.rand).res), "a54211d5e3ba50bf");
}

TEST(Milenage, F5AnonymityKey) {
  TestSet1 t;
  Milenage m{t.k, derive_opc(t.k, t.op)};
  EXPECT_EQ(to_hex(m.f2_f5(t.rand).ak), "aa689c648370");
}

TEST(Milenage, F3CipherKey) {
  TestSet1 t;
  Milenage m{t.k, derive_opc(t.k, t.op)};
  EXPECT_EQ(to_hex(m.f3(t.rand)), "b40ba9a3c58b2a05bbf0d987b21bf8cb");
}

TEST(Milenage, F4IntegrityKey) {
  TestSet1 t;
  Milenage m{t.k, derive_opc(t.k, t.op)};
  EXPECT_EQ(to_hex(m.f4(t.rand)), "f769bcd751044604127672711c6d3441");
}

TEST(Milenage, F5StarResyncKey) {
  TestSet1 t;
  Milenage m{t.k, derive_opc(t.k, t.op)};
  EXPECT_EQ(to_hex(m.f5_star(t.rand)), "451e8beca43b");
}

// The TEMP-taking forms an AKA run uses (TEMP computed once per RAND)
// reproduce the same Test Set 1 outputs.
TEST(Milenage, TempFormsMatchTestSet1) {
  TestSet1 t;
  Milenage m{t.k, derive_opc(t.k, t.op)};
  const Milenage::Temp temp = m.temp(t.rand);
  EXPECT_EQ(to_hex(m.f1(temp, t.sqn, t.amf).mac_a), "4a9ffac354dfafb3");
  EXPECT_EQ(to_hex(m.f1(temp, t.sqn, t.amf).mac_s), "01cfaf9ec4e871e9");
  EXPECT_EQ(to_hex(m.f2_f5(temp).res), "a54211d5e3ba50bf");
  EXPECT_EQ(to_hex(m.f2_f5(temp).ak), "aa689c648370");
  EXPECT_EQ(to_hex(m.f3(temp)), "b40ba9a3c58b2a05bbf0d987b21bf8cb");
  EXPECT_EQ(to_hex(m.f4(temp)), "f769bcd751044604127672711c6d3441");
  EXPECT_EQ(to_hex(m.f5_star(temp)), "451e8beca43b");
}

// The mutual-authentication property dLTE's open-key mode rests on: any
// party holding (K, OPc) — e.g. an AP that fetched published keys from
// the registry — computes the same vector the USIM expects.
TEST(Milenage, TwoPartiesAgree) {
  TestSet1 t;
  const Block128 opc = derive_opc(t.k, t.op);
  Milenage hss{t.k, opc};
  Milenage usim{t.k, opc};
  EXPECT_EQ(to_hex(hss.f2_f5(t.rand).res), to_hex(usim.f2_f5(t.rand).res));
  EXPECT_EQ(to_hex(hss.f3(t.rand)), to_hex(usim.f3(t.rand)));
  EXPECT_EQ(to_hex(hss.f1(t.rand, t.sqn, t.amf).mac_a),
            to_hex(usim.f1(t.rand, t.sqn, t.amf).mac_a));
}

TEST(Milenage, WrongKeyFailsAgreement) {
  TestSet1 t;
  const Block128 opc = derive_opc(t.k, t.op);
  Key128 wrong = t.k;
  wrong[0] ^= 0x01;
  Milenage hss{t.k, opc};
  Milenage impostor{wrong, opc};
  EXPECT_NE(to_hex(hss.f2_f5(t.rand).res),
            to_hex(impostor.f2_f5(t.rand).res));
}

}  // namespace
}  // namespace dlte::crypto
