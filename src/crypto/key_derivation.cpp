#include "crypto/key_derivation.h"

#include <algorithm>

namespace dlte::crypto {

namespace {
// Feeds one KDF parameter and its 2-byte big-endian length.
void append_param(HmacSha256& mac, std::span<const std::uint8_t> p) {
  const std::uint8_t length[2] = {static_cast<std::uint8_t>(p.size() >> 8),
                                  static_cast<std::uint8_t>(p.size())};
  mac.update(p).update(length);
}
}  // namespace

Kasme derive_kasme(const Ck128& ck, const Ik128& ik,
                   std::string_view serving_network_id,
                   const Sqn48& sqn_xor_ak) {
  std::array<std::uint8_t, 32> key{};
  std::copy(ck.begin(), ck.end(), key.begin());
  std::copy(ik.begin(), ik.end(), key.begin() + 16);

  HmacSha256 mac(key);
  const std::uint8_t fc = 0x10;  // FC for KASME derivation.
  mac.update({&fc, 1});
  append_param(mac, std::span{reinterpret_cast<const std::uint8_t*>(
                                  serving_network_id.data()),
                              serving_network_id.size()});
  append_param(mac, sqn_xor_ak);
  return mac.final();
}

Digest256 derive_kenb(const Kasme& kasme, std::uint32_t nas_uplink_count) {
  HmacSha256 mac(kasme);
  const std::uint8_t fc = 0x11;  // FC for K_eNB derivation.
  mac.update({&fc, 1});
  const std::uint8_t count[4] = {
      static_cast<std::uint8_t>(nas_uplink_count >> 24),
      static_cast<std::uint8_t>(nas_uplink_count >> 16),
      static_cast<std::uint8_t>(nas_uplink_count >> 8),
      static_cast<std::uint8_t>(nas_uplink_count)};
  append_param(mac, count);
  return mac.final();
}

Digest256 derive_nas_key(const Kasme& kasme, std::uint8_t algorithm_type,
                         std::uint8_t algorithm_id) {
  HmacSha256 mac(kasme);
  const std::uint8_t fc = 0x15;  // FC for algorithm key derivation.
  mac.update({&fc, 1});
  append_param(mac, std::span{&algorithm_type, 1});
  append_param(mac, std::span{&algorithm_id, 1});
  return mac.final();
}

}  // namespace dlte::crypto
