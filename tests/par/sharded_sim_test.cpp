#include "par/sharded_sim.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace dlte::par {
namespace {

ShardedConfig two_shards(std::size_t threads) {
  ShardedConfig cfg;
  cfg.shards = 2;
  cfg.threads = threads;
  cfg.lookahead = Duration::millis(1);
  return cfg;
}

TEST(ShardedSimulator, CrossShardPingPongPaysLookaheadPerHop) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ShardedSimulator rt{two_shards(threads)};
    std::vector<double> deliveries_ms;
    int bounces = 0;
    rt.register_endpoint(0, 0, [&](const Message& m) {
      deliveries_ms.push_back(rt.shard_sim(0).now().to_millis());
      EXPECT_EQ(m.src, 1u);
      rt.post(0, 1, Duration::millis(1), 0, {});
    });
    rt.register_endpoint(1, 1, [&](const Message& m) {
      deliveries_ms.push_back(rt.shard_sim(1).now().to_millis());
      EXPECT_EQ(m.src, 0u);
      if (++bounces < 3) rt.post(1, 0, Duration::millis(1), 0, {});
    });
    rt.post(0, 1, Duration::millis(1), 0, {});
    rt.run_until(TimePoint::from_ns(0) + Duration::millis(10));
    // 0→1 at 1ms, 1→0 at 2ms, 0→1 at 3ms, ... one lookahead per hop.
    EXPECT_EQ(deliveries_ms,
              (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}))
        << "threads=" << threads;
    EXPECT_EQ(rt.messages_exchanged(), 5u);
    EXPECT_DOUBLE_EQ(rt.shard_sim(0).now().to_millis(), 10.0);
    EXPECT_DOUBLE_EQ(rt.shard_sim(1).now().to_millis(), 10.0);
  }
}

TEST(ShardedSimulator, ShortPostsClampToLookaheadAndCount) {
  ShardedSimulator rt{two_shards(1)};
  double delivered_ms = -1.0;
  rt.register_endpoint(0, 0, [](const Message&) {});
  rt.register_endpoint(1, 1, [&](const Message& m) {
    delivered_ms = m.deliver_at.to_millis();
  });
  rt.post(0, 1, Duration::micros(10), 0, {});  // Below the 1 ms lookahead.
  rt.run_until(TimePoint::from_ns(0) + Duration::millis(5));
  EXPECT_DOUBLE_EQ(delivered_ms, 1.0);
  EXPECT_EQ(rt.posts_clamped(), 1u);
}

TEST(ShardedSimulator, SimultaneousMessagesInjectInEndpointSeqOrder) {
  // Three sources on two shards all target endpoint 9 at the same
  // instant. Whatever order the outboxes are gathered in, injection must
  // follow (deliver_at, src, per-source seq).
  ShardedSimulator rt{two_shards(2)};
  std::vector<std::pair<std::uint32_t, std::uint64_t>> order;
  rt.register_endpoint(0, 0, [](const Message&) {});
  rt.register_endpoint(1, 1, [](const Message&) {});
  rt.register_endpoint(2, 1, [](const Message&) {});
  rt.register_endpoint(9, 0, [&](const Message& m) {
    order.emplace_back(m.src, m.seq);
  });
  // Posted in scrambled source order; second post from src 2 first.
  rt.post(2, 9, Duration::millis(2), 0, {});
  rt.post(1, 9, Duration::millis(2), 0, {});
  rt.post(2, 9, Duration::millis(2), 0, {});
  rt.post(0, 9, Duration::millis(2), 0, {});
  rt.run_until(TimePoint::from_ns(0) + Duration::millis(5));
  const std::vector<std::pair<std::uint32_t, std::uint64_t>> expected{
      {0u, 0u}, {1u, 0u}, {2u, 0u}, {2u, 1u}};
  EXPECT_EQ(order, expected);
}

TEST(ShardedSimulator, IdleWindowsAreSkippedOnTheGrid) {
  // One event a second into the run with a 1 ms lookahead: the runtime
  // must jump to it rather than grind through ~1000 empty windows.
  ShardedSimulator rt{two_shards(1)};
  rt.register_endpoint(0, 0, [](const Message&) {});
  rt.register_endpoint(1, 1, [](const Message&) {});
  double seen_ms = -1.0;
  rt.shard_sim(1).schedule(Duration::seconds(1.0), [&] {
    seen_ms = rt.shard_sim(1).now().to_millis();
  });
  rt.run_until(TimePoint::from_ns(0) + Duration::seconds(2.0));
  EXPECT_DOUBLE_EQ(seen_ms, 1000.0);
  EXPECT_LE(rt.windows_run(), 4u);
}

TEST(ShardedSimulator, MergedMetricsFoldDomainRegistries) {
  ShardedSimulator rt{two_shards(1)};
  rt.shard_registry(0).counter("ap0.x").inc(2);
  rt.shard_registry(1).counter("ap1.x").inc(5);
  rt.shard_registry(0).counter("shared").inc(1);
  rt.shard_registry(1).counter("shared").inc(1);
  obs::MetricsRegistry merged;
  rt.merged_metrics_into(merged);
  EXPECT_EQ(merged.counter("ap0.x").value(), 2u);
  EXPECT_EQ(merged.counter("ap1.x").value(), 5u);
  EXPECT_EQ(merged.counter("shared").value(), 2u);
}

TEST(ShardedSimulator, RuntimeMetricsLandInAttachedRegistry) {
  ShardedSimulator rt{two_shards(2)};
  obs::MetricsRegistry reg;
  rt.set_metrics(&reg);
  rt.register_endpoint(0, 0, [](const Message&) {});
  rt.register_endpoint(1, 1, [](const Message&) {});
  rt.post(0, 1, Duration::micros(1), 0, {});
  rt.run_until(TimePoint::from_ns(0) + Duration::millis(3));
  EXPECT_EQ(reg.counter("par.messages").value(), 1u);
  EXPECT_EQ(reg.counter("par.posts_clamped").value(), 1u);
  EXPECT_GT(reg.counter("par.windows").value(), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("par.shards").value(), 2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("par.threads").value(), 2.0);
}

TEST(ShardedSimulator, CoordinatorSamplingIsOnTheConfiguredCadence) {
  ShardedConfig cfg = two_shards(1);
  cfg.sample_interval = Duration::millis(10);
  ShardedSimulator rt{cfg};
  rt.register_endpoint(0, 0, [](const Message&) {});
  rt.register_endpoint(1, 1, [](const Message&) {});
  rt.shard_registry(0).counter("ap0.c").inc(1);
  rt.run_until(TimePoint::from_ns(0) + Duration::millis(50));
  const obs::TimeSeriesSampler* sampler = rt.shard_sampler(0);
  ASSERT_NE(sampler, nullptr);
  EXPECT_EQ(sampler->samples(), 5u);
  const obs::TimeSeries* series = sampler->find("ap0.c");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->points().size(), 5u);
  EXPECT_DOUBLE_EQ(series->points().front().t_s, 0.01);
}

TEST(Payload, InlineAndHeapBytesSurviveCopyAndMove) {
  constexpr std::size_t kSizes[] = {0, 1, Payload::kInline,
                                    Payload::kInline + 1, 300};
  for (const std::size_t size : kSizes) {
    std::vector<std::uint8_t> bytes(size);
    for (std::size_t i = 0; i < size; ++i) {
      bytes[i] = static_cast<std::uint8_t>(i * 13 + 5);
    }
    const Payload original{bytes};
    Payload copy = original;
    Payload moved = std::move(copy);
    Payload assigned{std::vector<std::uint8_t>(40, 9)};
    assigned = moved;
    Payload move_assigned;
    move_assigned = std::move(moved);
    const Payload* copies[] = {&original, &assigned, &move_assigned};
    for (const Payload* p : copies) {
      EXPECT_EQ(std::vector<std::uint8_t>(p->begin(), p->end()), bytes)
          << "size=" << size;
    }
    EXPECT_EQ(copy.size(), 0u);
    EXPECT_EQ(moved.size(), 0u);
  }
}

TEST(ShardedSimulator, PayloadBytesArriveAsPosted) {
  // One inline-sized and one heap-sized payload, through the exchange.
  ShardedSimulator rt{two_shards(1)};
  std::vector<std::vector<std::uint8_t>> got;
  rt.register_endpoint(0, 0, [](const Message&) {});
  rt.register_endpoint(1, 1, [&](const Message& m) {
    got.emplace_back(m.payload.begin(), m.payload.end());
  });
  const std::vector<std::uint8_t> small{1, 2, 3, 4};
  std::vector<std::uint8_t> large(100);
  for (std::size_t i = 0; i < large.size(); ++i) {
    large[i] = static_cast<std::uint8_t>(255 - i);
  }
  rt.post(0, 1, Duration::millis(1), 0, small);
  rt.post(0, 1, Duration::millis(2), 0, large);
  rt.run_until(TimePoint::from_ns(0) + Duration::millis(5));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], small);
  EXPECT_EQ(got[1], large);
}

TEST(ShardedSimulator, UnregisteredEndpointIsRefused) {
  ShardedSimulator rt{two_shards(1)};
  rt.register_endpoint(0, 0, [](const Message&) {});
  rt.register_endpoint(3, 1, [](const Message&) {});
  EXPECT_EQ(rt.owner_of(3), 1u);
  // Id 1 sits inside the table but was never registered.
  EXPECT_THROW((void)rt.owner_of(1), std::out_of_range);
  EXPECT_THROW((void)rt.owner_of(7), std::out_of_range);
  EXPECT_THROW(rt.post(2, 0, Duration::millis(1), 0, {}), std::out_of_range);
}

}  // namespace
}  // namespace dlte::par
