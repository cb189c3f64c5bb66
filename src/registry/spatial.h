// Zone-bucketed spatial index for planet-scale grant lookup (DESIGN.md
// §16).
//
// spectrum::Registry's flat vector makes every region query an O(n)
// scan — fine for a town, hopeless for the millions of leases ROADMAP
// item 4 asks for. This index partitions the plane into kZoneSizeM-sized
// grid zones (the same coarse grid the federated registry uses as its
// failure domain) and, inside each zone, buckets entries per band
// (center frequency). A query then walks only the zones whose own
// longest reach can bridge the gap to its target (a point, or a zone
// square for snapshots), and a contention query additionally skips
// buckets whose band cannot overlap.
//
// Determinism: zones are visited in a fixed (zx ascending, zy ascending)
// order and bucket/entry order is insertion order, so a visit sequence
// is a pure function of the insert/erase history. Callers that need a
// canonical result order sort by id — the index itself promises only
// "every matching entry exactly once".
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/geo.h"

namespace dlte::registry {

// Packed (zx, zy) grid coordinate of `location` on a `zone_size_m` grid.
// Unlike spectrum::Registry::zone_of's hash interleave this is exact
// (32 bits per axis), so distinct zones never collide — cache and index
// keys must not merge unrelated zones.
[[nodiscard]] std::int64_t zone_key(Position location, double zone_size_m);
[[nodiscard]] std::int64_t zone_key_of(std::int32_t zx, std::int32_t zy);

// What the index knows about a grant: identity, placement, precomputed
// interference reach, and band extent. The owner (spectrum::Registry)
// maps ids back to full grants; keeping the entry POD-small means a
// zone scan stays cache-friendly at millions of leases.
struct SiteEntry {
  std::uint64_t id{0};
  Position location;
  double range_m{0.0};    // Interference reach (precomputed, metres).
  double center_hz{0.0};  // Band center.
  double half_bw_hz{0.0};  // Half the occupied bandwidth.
};

class SpatialIndex {
 public:
  explicit SpatialIndex(double zone_size_m = 50'000.0);

  void insert(const SiteEntry& entry);
  // Erase by id; `location` routes the lookup to the owning zone.
  // Returns false when no such entry is indexed there.
  bool erase(std::uint64_t id, Position location);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] double zone_size_m() const { return zone_size_m_; }
  // Largest reach ever indexed — the scan radius bound. Monotone (never
  // shrinks on erase): a conservative bound keeps the visited-zone set a
  // deterministic function of insert history alone.
  [[nodiscard]] double max_range_m() const { return max_range_m_; }
  // Bumped by every insert and every successful erase. Any query answer
  // computed at one generation holds until the generation moves, which
  // is what lets the owner memoize results across queries.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  // Zones whose entries the scans have walked so far (those that passed
  // the zone-level reject) — a machine-independent cost counter.
  [[nodiscard]] std::uint64_t zones_visited() const { return zones_visited_; }

  // The visitors below are templates so a query's per-entry callback
  // inlines into the zone walk; each takes `visit(const SiteEntry&)`.

  // Every entry whose own reach covers `location` (the grants_near
  // predicate): distance(entry, location) <= entry.range_m.
  template <typename Visit>
  void for_each_reaching(Position location, Visit&& visit) const {
    for_each_zone_near(Box::point(location), max_range_m_,
                       /*floor_range_m=*/0.0, [&](const Zone& zone) {
      for (const Bucket& bucket : zone.buckets) {
        for (const SiteEntry& entry : bucket.entries) {
          if (distance_m(entry.location, location) <= entry.range_m) {
            visit(entry);
          }
        }
      }
    });
  }

  // Every entry (except `skip_id`) whose band overlaps
  // [center_hz ± half_bw_hz] and whose distance to `location` is within
  // max(own_range_m, entry.range_m) — the contention-domain predicate.
  template <typename Visit>
  void for_each_contending(Position location, double center_hz,
                           double half_bw_hz, double own_range_m,
                           std::uint64_t skip_id, Visit&& visit) const {
    // Reach in a contention pair is the max of the two sides, so the scan
    // radius must cover the larger of own_range and any indexed reach.
    const double radius = std::max(own_range_m, max_range_m_);
    for_each_zone_near(Box::point(location), radius, own_range_m,
                       [&](const Zone& zone) {
      for (const Bucket& bucket : zone.buckets) {
        // Band-level reject: overlap requires |Δcenter| < half_a + half_b.
        if (std::abs(bucket.center_hz - center_hz) >=
            half_bw_hz + bucket.max_half_bw_hz) {
          continue;
        }
        for (const SiteEntry& entry : bucket.entries) {
          if (entry.id == skip_id) continue;
          if (std::abs(entry.center_hz - center_hz) >=
              half_bw_hz + entry.half_bw_hz) {
            continue;
          }
          const double reach = std::max(own_range_m, entry.range_m);
          if (distance_m(entry.location, location) <= reach) visit(entry);
        }
      }
    });
  }

  // Every entry whose reach touches the axis-aligned square of `zone`
  // (a packed zone_key) — the membership snapshot the hierarchical
  // cache serves for that zone.
  template <typename Visit>
  void for_each_touching_zone(std::int64_t zone, Visit&& visit) const {
    const Box square = zone_square(zone);
    for_each_zone_near(square, max_range_m_, /*floor_range_m=*/0.0,
                       [&](const Zone& z) {
      for (const Bucket& bucket : z.buckets) {
        for (const SiteEntry& entry : bucket.entries) {
          if (square.gap_m(entry.location) <= entry.range_m) visit(entry);
        }
      }
    });
  }

 private:
  // Entries of one band within one zone. A bucket caches the largest
  // reach and half-bandwidth of its members so a whole band can be
  // skipped without touching its entries.
  struct Bucket {
    double center_hz{0.0};
    double max_half_bw_hz{0.0};
    double max_range_m{0.0};
    std::vector<SiteEntry> entries;
  };
  struct Zone {
    double max_range_m{0.0};
    std::vector<Bucket> buckets;
  };
  // A closed axis-aligned query target: a point (zero extent) or a zone
  // square.
  struct Box {
    double x0{0.0};
    double y0{0.0};
    double x1{0.0};
    double y1{0.0};
    static Box point(Position p) { return Box{p.x_m, p.y_m, p.x_m, p.y_m}; }
    // Distance from the box to the closed square [sx, sx+s] × [sy, sy+s];
    // zero when they overlap.
    [[nodiscard]] double gap_m(double sx, double sy, double s) const {
      const double dx = std::max({sx - x1, 0.0, x0 - (sx + s)});
      const double dy = std::max({sy - y1, 0.0, y0 - (sy + s)});
      return std::sqrt(dx * dx + dy * dy);
    }
    // Distance from a point to the box.
    [[nodiscard]] double gap_m(Position p) const {
      const double dx = std::max({x0 - p.x_m, 0.0, p.x_m - x1});
      const double dy = std::max({y0 - p.y_m, 0.0, p.y_m - y1});
      return std::sqrt(dx * dx + dy * dy);
    }
  };

  [[nodiscard]] std::int32_t axis_zone(double v) const {
    return static_cast<std::int32_t>(std::floor(v / zone_size_m_));
  }
  [[nodiscard]] Box zone_square(std::int64_t zone) const;

  // Visit all zones whose square could hold an entry matching within
  // `radius_m` of `target`, in fixed (zx, zy) ascending order. A zone is
  // skipped when its gap to `target` exceeds both the zone's own longest
  // reach and `floor_range_m` — the querier-side reach that the
  // contending predicate (max(own, entry) ranges) contributes. Reaching
  // and touching queries pass a zero floor.
  template <typename VisitZone>
  void for_each_zone_near(const Box& target, double radius_m,
                          double floor_range_m, VisitZone&& visit) const {
    if (zones_.empty()) return;
    const std::int32_t zx0 = axis_zone(target.x0 - radius_m);
    const std::int32_t zx1 = axis_zone(target.x1 + radius_m);
    const std::int32_t zy0 = axis_zone(target.y0 - radius_m);
    const std::int32_t zy1 = axis_zone(target.y1 + radius_m);
    for (std::int32_t zx = zx0; zx <= zx1; ++zx) {
      for (std::int32_t zy = zy0; zy <= zy1; ++zy) {
        const auto it = zones_.find(zone_key_of(zx, zy));
        if (it == zones_.end()) continue;
        // Zone-level reject: skip when neither the zone's longest reach
        // nor the querier-side floor can bridge the gap to the target.
        // The floor matters for the contending predicate, where a
        // short-reach entry still contends if it sits inside the
        // querier's own range.
        const double gap = target.gap_m(zx * zone_size_m_, zy * zone_size_m_,
                                        zone_size_m_);
        if (gap > std::max(it->second.max_range_m, floor_range_m)) continue;
        ++zones_visited_;
        visit(it->second);
      }
    }
  }

  double zone_size_m_;
  double max_range_m_{0.0};
  std::size_t size_{0};
  std::uint64_t generation_{0};
  mutable std::uint64_t zones_visited_{0};
  std::unordered_map<std::int64_t, Zone> zones_;
};

}  // namespace dlte::registry
