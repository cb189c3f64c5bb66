#include "registry/spatial.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace dlte::registry {
namespace {

constexpr double kZone = 50'000.0;

SiteEntry site(std::uint64_t id, double x, double y, double range_m,
               double center_mhz = 3550.0, double bw_mhz = 10.0) {
  SiteEntry e;
  e.id = id;
  e.location = Position{x, y};
  e.range_m = range_m;
  e.center_hz = center_mhz * 1e6;
  e.half_bw_hz = bw_mhz * 1e6 / 2.0;
  return e;
}

std::vector<std::uint64_t> reaching_ids(const SpatialIndex& index,
                                        Position pos) {
  std::vector<std::uint64_t> ids;
  index.for_each_reaching(pos, [&](const SiteEntry& e) { ids.push_back(e.id); });
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(ZoneKey, ExactAndDistinct) {
  // Adjacent zones, including negative coordinates, never collide.
  const auto a = zone_key(Position{0.0, 0.0}, kZone);
  const auto b = zone_key(Position{kZone + 1.0, 0.0}, kZone);
  const auto c = zone_key(Position{0.0, kZone + 1.0}, kZone);
  const auto d = zone_key(Position{-1.0, 0.0}, kZone);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
  EXPECT_NE(a, d);
  // Same zone → same key, wherever in the square.
  EXPECT_EQ(a, zone_key(Position{kZone - 1.0, kZone - 1.0}, kZone));
  EXPECT_EQ(zone_key(Position{2.5 * kZone, 3.5 * kZone}, kZone),
            zone_key_of(2, 3));
}

TEST(SpatialIndex, ReachingMatchesPredicate) {
  SpatialIndex index{kZone};
  index.insert(site(1, 0.0, 0.0, 10'000.0));        // Covers origin area.
  index.insert(site(2, 8'000.0, 0.0, 10'000.0));    // Also covers origin.
  index.insert(site(3, 30'000.0, 0.0, 10'000.0));   // Too far.
  index.insert(site(4, 60'000.0, 0.0, 70'000.0));   // Next zone, huge reach.
  EXPECT_EQ(reaching_ids(index, Position{0.0, 0.0}),
            (std::vector<std::uint64_t>{1, 2, 4}));
  EXPECT_EQ(index.size(), 4u);
}

TEST(SpatialIndex, CrossZoneReachIsFound) {
  SpatialIndex index{kZone};
  // Entry sits near its zone's edge; its reach spills into the next zone.
  index.insert(site(7, kZone - 100.0, 100.0, 5'000.0));
  EXPECT_EQ(reaching_ids(index, Position{kZone + 1'000.0, 100.0}),
            (std::vector<std::uint64_t>{7}));
  // Beyond the reach: nothing.
  EXPECT_TRUE(reaching_ids(index, Position{kZone + 20'000.0, 100.0}).empty());
}

TEST(SpatialIndex, EraseRemovesExactly) {
  SpatialIndex index{kZone};
  index.insert(site(1, 0.0, 0.0, 10'000.0));
  index.insert(site(2, 100.0, 0.0, 10'000.0));
  EXPECT_TRUE(index.erase(1, Position{0.0, 0.0}));
  EXPECT_FALSE(index.erase(1, Position{0.0, 0.0}));  // Already gone.
  EXPECT_FALSE(index.erase(99, Position{0.0, 0.0}));
  EXPECT_EQ(reaching_ids(index, Position{0.0, 0.0}),
            (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(index.size(), 1u);
}

TEST(SpatialIndex, ContendingFiltersBandAndSelf) {
  SpatialIndex index{kZone};
  index.insert(site(1, 0.0, 0.0, 10'000.0, 3550.0));
  index.insert(site(2, 1'000.0, 0.0, 10'000.0, 3550.0));  // Co-channel.
  index.insert(site(3, 1'000.0, 0.0, 10'000.0, 3555.0));  // Overlapping.
  index.insert(site(4, 1'000.0, 0.0, 10'000.0, 3580.0));  // Disjoint band.
  std::vector<std::uint64_t> ids;
  index.for_each_contending(Position{0.0, 0.0}, 3550.0 * 1e6, 5.0 * 1e6,
                            10'000.0, /*skip_id=*/1,
                            [&](const SiteEntry& e) { ids.push_back(e.id); });
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{2, 3}));
}

TEST(SpatialIndex, ContendingUsesMaxOfRanges) {
  SpatialIndex index{kZone};
  // Entry too far for its own 1 km reach, but the querier reaches 30 km:
  // contention is symmetric, max(own, entry) applies.
  index.insert(site(5, 20'000.0, 0.0, 1'000.0, 3550.0));
  std::vector<std::uint64_t> ids;
  index.for_each_contending(Position{0.0, 0.0}, 3550.0 * 1e6, 5.0 * 1e6,
                            30'000.0, 0,
                            [&](const SiteEntry& e) { ids.push_back(e.id); });
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{5}));
}

TEST(SpatialIndex, ContendingFindsShortReachEntryAcrossZones) {
  SpatialIndex index{kZone};
  // Entry in the next zone with a tiny 1 km reach: the gap from the
  // query point to its zone (10 km) exceeds every reach indexed there,
  // but the querier's own 70 km range still covers it. The zone-level
  // reject must honour the querier-side floor, not just the zone max.
  index.insert(site(6, 60'000.0, 0.0, 1'000.0, 3550.0));
  std::vector<std::uint64_t> ids;
  index.for_each_contending(Position{0.0, 0.0}, 3550.0 * 1e6, 5.0 * 1e6,
                            70'000.0, 0,
                            [&](const SiteEntry& e) { ids.push_back(e.id); });
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{6}));
  // A reaching query at the same point must NOT see it: 1 km reach
  // cannot cover the origin, floor only applies to contention.
  EXPECT_TRUE(reaching_ids(index, Position{0.0, 0.0}).empty());
}

TEST(SpatialIndex, TouchingZoneSnapshot) {
  SpatialIndex index{kZone};
  const std::int64_t zone = zone_key_of(0, 0);
  index.insert(site(1, 1'000.0, 1'000.0, 500.0));           // Inside.
  index.insert(site(2, kZone + 3'000.0, 100.0, 5'000.0));   // Reaches in.
  index.insert(site(3, kZone + 30'000.0, 100.0, 5'000.0));  // Does not.
  std::vector<std::uint64_t> ids;
  index.for_each_touching_zone(zone,
                               [&](const SiteEntry& e) { ids.push_back(e.id); });
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2}));
}

TEST(SpatialIndex, FarLongReachEntryDoesNotWidenTouchingScans) {
  SpatialIndex index{kZone};
  // A 7x7 block of zones around (0, 0), each holding one short-reach
  // entry at its centre: only the 3x3 ring around a zone can touch it.
  std::uint64_t id = 1;
  for (int zx = -3; zx <= 3; ++zx) {
    for (int zy = -3; zy <= 3; ++zy) {
      index.insert(site(id++, (zx + 0.5) * kZone, (zy + 0.5) * kZone,
                        1'000.0));
    }
  }
  const auto scan = [&index](std::int64_t zone) {
    const std::uint64_t before = index.zones_visited();
    std::vector<std::uint64_t> ids;
    index.for_each_touching_zone(
        zone, [&](const SiteEntry& e) { ids.push_back(e.id); });
    return std::make_pair(index.zones_visited() - before, ids.size());
  };
  const std::int64_t origin = zone_key_of(0, 0);
  EXPECT_EQ(scan(origin), std::make_pair(std::uint64_t{9}, std::size_t{1}));

  // One 150 km-reach entry far away raises the global scan radius past
  // the whole block, but no zone of the block gains any reach: the
  // origin's scan must still walk the same 9 zones.
  index.insert(site(999, 40.5 * kZone, 40.5 * kZone, 150'000.0));
  EXPECT_EQ(index.max_range_m(), 150'000.0);
  EXPECT_EQ(scan(origin), std::make_pair(std::uint64_t{9}, std::size_t{1}));
  // Where the long reach does arrive, its zone is walked and its entry
  // found.
  EXPECT_EQ(scan(zone_key_of(38, 40)),
            std::make_pair(std::uint64_t{1}, std::size_t{1}));
}

TEST(SpatialIndex, GenerationMovesOnEveryChange) {
  SpatialIndex index{kZone};
  const std::uint64_t g0 = index.generation();
  index.insert(site(1, 0.0, 0.0, 1'000.0));
  const std::uint64_t g1 = index.generation();
  EXPECT_NE(g1, g0);
  EXPECT_FALSE(index.erase(2, Position{0.0, 0.0}));  // No change, no bump.
  EXPECT_EQ(index.generation(), g1);
  EXPECT_TRUE(index.erase(1, Position{0.0, 0.0}));
  EXPECT_NE(index.generation(), g1);
}

TEST(SpatialIndex, VisitOrderIsDeterministic) {
  // Two identically-built indexes produce the same visit sequence.
  SpatialIndex a{kZone};
  SpatialIndex b{kZone};
  for (int i = 0; i < 200; ++i) {
    const auto e = site(static_cast<std::uint64_t>(i + 1),
                        (i % 17) * 9'000.0, (i % 13) * 11'000.0, 12'000.0,
                        3550.0 + (i % 4) * 10.0);
    a.insert(e);
    b.insert(e);
  }
  std::vector<std::uint64_t> seq_a;
  std::vector<std::uint64_t> seq_b;
  a.for_each_reaching(Position{40'000.0, 40'000.0},
                      [&](const SiteEntry& e) { seq_a.push_back(e.id); });
  b.for_each_reaching(Position{40'000.0, 40'000.0},
                      [&](const SiteEntry& e) { seq_b.push_back(e.id); });
  EXPECT_FALSE(seq_a.empty());
  EXPECT_EQ(seq_a, seq_b);
}

}  // namespace
}  // namespace dlte::registry
