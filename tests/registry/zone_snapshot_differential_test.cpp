// Seeded differential test: the memoized Registry::zone_snapshot (and
// the zone_occupancy count built on it) against a linear pass over
// Registry::grants(), through random grant / revoke / heartbeat / lapse
// sequences with heterogeneous reaches that cross zone boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "registry/spatial.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "spectrum/registry.h"

namespace dlte::spectrum {
namespace {

constexpr double kZone = Registry::kZoneSizeM;
constexpr int kZonesPerSide = 4;

GrantRequest request_at(std::uint32_t ap, Position pos, double freq_mhz,
                        double eirp_dbm) {
  GrantRequest r;
  r.ap = ApId{ap};
  r.location = pos;
  r.center_frequency = Hertz::mhz(freq_mhz);
  r.bandwidth = Hertz::mhz(10.0);
  r.max_eirp = PowerDbm{eirp_dbm};
  r.operator_contact = "op" + std::to_string(ap) + "@example.net";
  return r;
}

// The reference: every live grant whose reach touches the zone square,
// by brute force over the flat grant vector.
class LinearOracle {
 public:
  std::vector<std::uint64_t> ids_touching(const Registry& reg,
                                          std::int32_t zx, std::int32_t zy) {
    const double x0 = zx * kZone;
    const double y0 = zy * kZone;
    std::vector<std::uint64_t> ids;
    for (const SpectrumGrant& g : reg.grants()) {
      const double dx =
          std::max({x0 - g.location.x_m, 0.0, g.location.x_m - (x0 + kZone)});
      const double dy =
          std::max({y0 - g.location.y_m, 0.0, g.location.y_m - (y0 + kZone)});
      if (std::sqrt(dx * dx + dy * dy) <= range(g)) {
        ids.push_back(g.id.value());
      }
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }

 private:
  double range(const SpectrumGrant& g) {
    const std::pair<double, double> key{g.center_frequency.hz(),
                                        g.max_eirp.value()};
    const auto it = ranges_.find(key);
    if (it != ranges_.end()) return it->second;
    return ranges_[key] = interference_range_m(g);
  }
  std::map<std::pair<double, double>, double> ranges_;
};

// One seeded run: `ops` random operations, each followed by a full
// comparison of every zone's snapshot and occupancy with the oracle.
void run_differential(std::uint64_t seed, int ops) {
  SCOPED_TRACE("reproduce with seed=" + std::to_string(seed));
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kCentralizedSas};
  reg.set_grant_lifetime(Duration::seconds(10.0));
  reg.set_heartbeat_grace(Duration::seconds(5.0));
  sim::RngStream rng = sim::RngStream::derive(seed, "zone-snapshot-diff");
  LinearOracle oracle;
  // Bands and powers chosen so reaches run from a few km to well past
  // one zone width.
  const double bands_mhz[] = {850.0, 1900.0, 3550.0};
  const double eirps_dbm[] = {20.0, 36.0, 52.0};
  const double extent = kZonesPerSide * kZone;
  std::vector<GrantId> live;
  std::uint32_t next_ap = 1;

  for (int op = 0; op < ops; ++op) {
    const auto kind = rng.uniform_int(0, 9);
    if (kind <= 3 || live.empty()) {
      const Position at{rng.uniform(0.0, extent), rng.uniform(0.0, extent)};
      const double band_mhz = bands_mhz[rng.uniform_int(0, 2)];
      const double eirp_dbm = eirps_dbm[rng.uniform_int(0, 2)];
      const auto g =
          reg.grant_now(request_at(next_ap++, at, band_mhz, eirp_dbm));
      ASSERT_TRUE(g.ok());
      live.push_back(g->id);
    } else if (kind <= 5) {
      const auto i = rng.uniform_int(0, live.size() - 1);
      reg.revoke(live[i]);
      live[i] = live.back();
      live.pop_back();
    } else if (kind <= 7) {
      // Heartbeats renew leases without touching the index.
      for (int k = 0; k < 4 && !live.empty(); ++k) {
        (void)reg.heartbeat_outcome(live[rng.uniform_int(0, live.size() - 1)]);
      }
    } else {
      // Advance the clock: unrenewed leases go degraded, then lapse.
      sim.run_until(sim.now() + Duration::seconds(rng.uniform(0.0, 4.0)));
    }
    // Interleaved reads: repeat queries between changes hit the memo.
    for (int q = 0; q < 3; ++q) {
      const Position p{rng.uniform(0.0, extent), rng.uniform(0.0, extent)};
      (void)reg.zone_occupancy(static_cast<std::uint64_t>(q), p);
      (void)reg.zone_snapshot(registry::zone_key(p, kZone));
    }
    // Full comparison, one zone ring beyond the populated square.
    for (std::int32_t zx = -1; zx <= kZonesPerSide; ++zx) {
      for (std::int32_t zy = -1; zy <= kZonesPerSide; ++zy) {
        const registry::ZoneSnapshot snap =
            reg.zone_snapshot(registry::zone_key_of(zx, zy));
        const std::vector<std::uint64_t> expect =
            oracle.ids_touching(reg, zx, zy);
        ASSERT_EQ(*snap, expect) << "op " << op << " zone (" << zx << ", "
                                 << zy << ")";
        const Position centre{(zx + 0.5) * kZone, (zy + 0.5) * kZone};
        ASSERT_EQ(reg.zone_occupancy(0, centre).grants, expect.size())
            << "op " << op << " zone (" << zx << ", " << zy << ")";
      }
    }
  }
}

TEST(ZoneSnapshotDifferential, MatchesLinearPassUnderRandomChurn) {
  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8}) {
    run_differential(seed, 300);
    if (HasFatalFailure()) return;
  }
}

TEST(ZoneSnapshotDifferential, RepeatQueryWithoutIndexChangeBuildsNothing) {
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kCentralizedSas};
  reg.set_grant_lifetime(Duration::seconds(10.0));
  const auto g = reg.grant_now(
      request_at(1, Position{1'000.0, 1'000.0}, 3550.0, 36.0));
  ASSERT_TRUE(g.ok());
  const std::int64_t zone = registry::zone_key_of(0, 0);
  const registry::ZoneSnapshot first = reg.zone_snapshot(zone);
  const std::uint64_t builds = reg.snapshot_builds();
  EXPECT_EQ(builds, 1u);
  // Same zone, no index change: served from the memo, same object.
  const registry::ZoneSnapshot second = reg.zone_snapshot(zone);
  EXPECT_EQ(reg.snapshot_builds(), builds);
  EXPECT_EQ(first.get(), second.get());
  // A heartbeat renews the lease but leaves the index alone; occupancy
  // reads the memoized snapshot too.
  EXPECT_EQ(reg.heartbeat_outcome(g->id), HeartbeatOutcome::kRenewed);
  EXPECT_EQ(reg.zone_occupancy(0, Position{1'000.0, 1'000.0}).grants, 1u);
  EXPECT_EQ(reg.snapshot_builds(), builds);
}

TEST(ZoneSnapshotDifferential, NeighbourGrantReachingInRebuildsTheZone) {
  // The case a per-zone version key would miss: a grant in zone A whose
  // reach crosses into zone B changes B's snapshot without touching B's
  // own membership version.
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kCentralizedSas};
  const std::int64_t zone_b = registry::zone_key_of(1, 0);
  const Position in_b{kZone + 25'000.0, 25'000.0};
  EXPECT_TRUE(reg.zone_snapshot(zone_b)->empty());
  const std::uint64_t version_b = reg.zone_version(in_b);

  // Zone A = (0, 0), 1 km from B's edge, with a reach of tens of km.
  const auto g =
      reg.grant_now(request_at(1, Position{kZone - 1'000.0, 25'000.0},
                               850.0, 52.0));
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(reg.zone_version(in_b), version_b);
  EXPECT_EQ(*reg.zone_snapshot(zone_b),
            (std::vector<std::uint64_t>{g->id.value()}));
  reg.revoke(g->id);
  EXPECT_TRUE(reg.zone_snapshot(zone_b)->empty());
}

}  // namespace
}  // namespace dlte::spectrum
