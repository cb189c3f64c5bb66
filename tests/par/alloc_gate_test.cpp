// Heap allocations on the runtime's hot paths, counted — a figure that
// does not depend on the host. This executable replaces the global
// operator new with a counting one, so it holds nothing but these tests.
//
// Two gates:
//   - a reduced metro (200 APs x 100 UEs, the benchmark's profiling and
//     audit planes on) allocates at most kMetroAllocsPerEvent times per
//     executed event, construction and build included, at 1 and 4
//     shards;
//   - once warm, posting and delivering a payload of at most
//     Payload::kInline bytes allocates nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <span>

#include "par/metro.h"
#include "par/sharded_sim.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dlte::par {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// Recorded bound. This reduced metro measured 0.576 allocations per
// event at 1 shard and 0.621 at 4 with gcc 12 / libstdc++ (1.760 and
// 1.807 while flow-train events, label interning and message payloads
// still allocated); most of what is left is calendar-queue bucket
// growth. The bound leaves ~13% for library differences.
constexpr double kMetroAllocsPerEvent = 0.70;

MetroConfig reduced_metro(std::size_t shards) {
  MetroConfig config;
  config.aps = 200;
  config.ues_per_ap = 100;
  config.districts = 20;
  config.shards = shards;
  config.threads = 1;
  config.seed = 3;
  config.profile = true;
  config.audit = true;
  config.engine_sample_interval = Duration::millis(500);
  return config;
}

TEST(AllocationGate, MetroAllocationsPerEventUnderBound) {
  for (const std::size_t shards : {1u, 4u}) {
    const std::uint64_t before = allocations();
    std::uint64_t events = 0;
    {
      MetroScenario metro{reduced_metro(shards)};
      events = metro.run().events_executed;
    }
    const std::uint64_t allocs = allocations() - before;
    const double per_event =
        static_cast<double>(allocs) / static_cast<double>(events);
    std::printf("[  ALLOCS  ] metro 200x100 shards=%zu: %llu allocations, "
                "%llu events, %.3f per event (bound %.2f)\n",
                shards, static_cast<unsigned long long>(allocs),
                static_cast<unsigned long long>(events), per_event,
                kMetroAllocsPerEvent);
    ASSERT_GT(events, 0u);
    EXPECT_LE(per_event, kMetroAllocsPerEvent) << "shards=" << shards;
  }
}

// Two endpoints on two shards bouncing `payload_bytes`-byte messages, two
// in flight at all times. Returns allocations over one simulated second
// after a warm-up second, and the messages delivered in it.
struct PingPong {
  std::uint64_t allocations{0};
  std::uint64_t delivered{0};
};

PingPong ping_pong(std::size_t payload_bytes) {
  ShardedConfig config;
  config.shards = 2;
  config.threads = 1;
  config.lookahead = Duration::millis(1);
  ShardedSimulator rt{config};
  std::array<std::uint8_t, 64> bytes{};
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const std::span<const std::uint8_t> payload{bytes.data(), payload_bytes};
  std::uint64_t delivered = 0;
  bool intact = true;
  auto bounce = [&](EndpointId self, EndpointId peer) {
    return [&rt, &delivered, &intact, payload, self, peer](const Message& m) {
      ++delivered;
      intact = intact && m.payload.size() == payload.size() &&
               std::equal(payload.begin(), payload.end(), m.payload.begin());
      rt.post(self, peer, Duration::millis(1), 7, payload);
    };
  };
  rt.register_endpoint(0, 0, bounce(0, 1));
  rt.register_endpoint(1, 1, bounce(1, 0));
  rt.post(0, 1, Duration::millis(1), 7, payload);
  rt.post(1, 0, Duration::millis(1), 7, payload);
  rt.run_until(TimePoint{} + Duration::seconds(1.0));
  const std::uint64_t warm = delivered;
  const std::uint64_t before = allocations();
  rt.run_until(TimePoint{} + Duration::seconds(2.0));
  PingPong out{allocations() - before, delivered - warm};
  EXPECT_TRUE(intact) << "payload bytes changed in flight";
  return out;
}

TEST(AllocationGate, InlinePayloadPostAndDeliveryAllocateNothing) {
  constexpr std::size_t kSizes[] = {0, 4, 17, Payload::kInline};
  for (const std::size_t size : kSizes) {
    const PingPong run = ping_pong(size);
    EXPECT_GT(run.delivered, 1000u) << "size=" << size;
    EXPECT_EQ(run.allocations, 0u) << "size=" << size;
  }
}

// The counter sees the runtime: a payload one byte over the inline size
// costs exactly one allocation per message.
TEST(AllocationGate, HeapPayloadCostsOneAllocationPerMessage) {
  const PingPong run = ping_pong(Payload::kInline + 1);
  EXPECT_GT(run.delivered, 1000u);
  EXPECT_EQ(run.allocations, run.delivered);
}

}  // namespace
}  // namespace dlte::par
