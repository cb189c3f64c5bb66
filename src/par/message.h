// Cross-shard message: the only way state crosses a shard boundary in
// the parallel runtime (DESIGN.md §11).
//
// Everything a shard wants another shard to see — an X2 PDU, a packet
// leaving through an egress portal, a control notification — is frozen
// into one of these, parked in the posting shard's outbox, and injected
// into the destination shard's event queue at the next barrier. The
// merge key (deliver_at, src, seq) is deliberately free of any shard
// identity: src is a stable endpoint id and seq counts that endpoint's
// posts, so the globally sorted injection order is the same at every
// shard count — the heart of the byte-identical-replay guarantee.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>

#include "common/time.h"

namespace dlte::par {

// Stable scenario-assigned identity of a message source/sink (an AP, a
// regional service). Endpoint ids never depend on the partition; they
// index the runtime's endpoint table, so scenarios number them densely
// from 0.
using EndpointId = std::uint32_t;

// Immutable message bytes: up to kInline of them stored in place, more on
// the heap. Every load report, X2 PDU and most registry-plane requests
// fit inline, so posting and delivering them allocates nothing.
class Payload {
 public:
  static constexpr std::size_t kInline = 24;

  Payload() = default;
  explicit Payload(std::span<const std::uint8_t> bytes) : size_(bytes.size()) {
    std::uint8_t* dst = inline_;
    if (size_ > kInline) dst = heap_ = new std::uint8_t[size_];
    if (size_ > 0) std::memcpy(dst, bytes.data(), size_);
  }
  Payload(const Payload& other) : Payload(other.bytes()) {}
  Payload(Payload&& other) noexcept { steal(other); }
  Payload& operator=(const Payload& other) {
    if (this != &other) *this = Payload(other.bytes());
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  ~Payload() { release(); }

  [[nodiscard]] const std::uint8_t* data() const {
    return size_ > kInline ? heap_ : inline_;
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const {
    return data()[i];
  }
  [[nodiscard]] const std::uint8_t* begin() const { return data(); }
  [[nodiscard]] const std::uint8_t* end() const { return data() + size_; }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {data(), size_};
  }
  // Decoders take spans; a Payload reads as one.
  operator std::span<const std::uint8_t>() const { return bytes(); }

 private:
  void steal(Payload& other) {
    size_ = std::exchange(other.size_, 0);
    if (size_ > kInline) {
      heap_ = other.heap_;
    } else {
      std::memcpy(inline_, other.inline_, size_);
    }
  }
  void release() {
    if (size_ > kInline) delete[] heap_;
    size_ = 0;
  }

  std::size_t size_{0};
  union {
    std::uint8_t inline_[kInline];
    std::uint8_t* heap_;
  };
};

struct Message {
  EndpointId src{0};
  EndpointId dst{0};
  TimePoint deliver_at{};
  // Per-SOURCE monotone sequence number (ties on deliver_at between two
  // posts by the same endpoint keep their post order).
  std::uint64_t seq{0};
  // Scenario-defined payload tag (protocol number, message class).
  std::uint16_t kind{0};
  Payload payload;
};

// Deterministic global injection order: earliest delivery first, then by
// source endpoint, then by that source's posting order. Strict weak
// ordering over distinct messages (an endpoint never reuses a seq).
inline bool message_order(const Message& a, const Message& b) {
  if (a.deliver_at != b.deliver_at) return a.deliver_at < b.deliver_at;
  if (a.src != b.src) return a.src < b.src;
  return a.seq < b.seq;
}

}  // namespace dlte::par
