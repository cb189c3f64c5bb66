#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "crypto/milenage.h"
#include "lte/nas.h"
#include "lte/s1ap.h"
#include "lte/x2ap.h"
#include "net/network.h"
#include "registry/cache.h"
#include "registry/spatial.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "spectrum/registry.h"

namespace perfbench {
namespace {
using namespace dlte;

// Keeps replayed results observable so the calls cannot be folded away.
volatile std::uint64_t g_sink = 0;

double wall_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ---- Registry --------------------------------------------------------

// Same placement and query phase as par::RegistryPlaneScenario::build:
// block i lives in zone i % zones, at a fixed in-zone offset, on one of
// 15 channels, and sends its occupancy query 25 * (i % 40) + 7 ms into
// each query interval.
struct BlockSite {
  Position location;
  Hertz center;
  Duration query_phase;
};

BlockSite block_site(const par::RegistryPlaneConfig& c, int i) {
  const double zs = spectrum::Registry::kZoneSizeM;
  const int zones = c.zones_x * c.zones_y;
  const int zone = i % zones;
  const int zx = zone % c.zones_x;
  const int zy = zone / c.zones_x;
  const int j = i / zones;
  return BlockSite{Position{zx * zs + 0.1 * zs + (j % 8) * 0.1 * zs,
                            zy * zs + 0.1 * zs + ((j / 8) % 8) * 0.1 * zs},
                   Hertz::mhz(3550.0 + 10.0 * (j % 15)),
                   Duration::millis(25 * (i % 40) + 7)};
}

spectrum::GrantRequest grant_request(const BlockSite& site, int block) {
  spectrum::GrantRequest req;
  req.ap = ApId{static_cast<std::uint32_t>(block)};
  req.location = site.location;
  req.center_frequency = site.center;
  req.bandwidth = Hertz::mhz(10.0);
  req.operator_contact = "block-" + std::to_string(block) + "@dlte";
  return req;
}

// The reference predicates, evaluated over the flat grant vector.
double point_to_square_m(Position p, double x0, double y0, double s) {
  const double dx = std::max({x0 - p.x_m, 0.0, p.x_m - (x0 + s)});
  const double dy = std::max({y0 - p.y_m, 0.0, p.y_m - (y0 + s)});
  return std::sqrt(dx * dx + dy * dy);
}

class LinearReference {
 public:
  explicit LinearReference(const spectrum::Registry& reg) : reg_(reg) {}

  std::size_t count_reaching(Position p) {
    std::size_t n = 0;
    for (const auto& g : reg_.grants()) {
      if (distance_m(g.location, p) <= range(g)) ++n;
    }
    return n;
  }
  std::vector<std::uint64_t> ids_touching(Position p) {
    const double zs = spectrum::Registry::kZoneSizeM;
    const double x0 = std::floor(p.x_m / zs) * zs;
    const double y0 = std::floor(p.y_m / zs) * zs;
    std::vector<std::uint64_t> ids;
    for (const auto& g : reg_.grants()) {
      if (point_to_square_m(g.location, x0, y0, zs) <= range(g)) {
        ids.push_back(g.id.value());
      }
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }

 private:
  double range(const spectrum::SpectrumGrant& g) {
    const auto key = static_cast<std::int64_t>(g.center_frequency.hz());
    const auto it = ranges_.find(key);
    if (it != ranges_.end()) return it->second;
    return ranges_[key] = spectrum::interference_range_m(g);
  }
  const spectrum::Registry& reg_;
  std::map<std::int64_t, double> ranges_;
};

}  // namespace

void replay_registry(const par::RegistryPlaneConfig& c, double budget_s,
                     SpanLog& log, ReplayOutput& out) {
  const auto start = std::chrono::steady_clock::now();
  const double zs = spectrum::Registry::kZoneSizeM;
  sim::Simulator sim;
  registry::LeaseCache cache{c.cache};
  spectrum::Registry reg{sim, spectrum::RegistryKind::kFederated};
  reg.set_grant_lifetime(c.lease_lifetime);
  reg.set_heartbeat_grace(c.heartbeat_grace);
  reg.attach_cache(&cache);

  std::vector<BlockSite> sites;
  std::vector<std::vector<std::uint64_t>> leases(c.blocks);
  for (int b = 0; b < c.blocks; ++b) sites.push_back(block_site(c, b));
  // Blocks in the order their queries reach the registry in a round.
  std::vector<int> query_order(c.blocks);
  for (int b = 0; b < c.blocks; ++b) query_order[b] = b;
  std::stable_sort(query_order.begin(), query_order.end(),
                   [&sites](int x, int y) {
                     return sites[x].query_phase < sites[y].query_phase;
                   });

  // Grant wave: every block applies for its whole population.
  for (int b = 0; b < c.blocks; ++b) {
    const spectrum::GrantRequest req = grant_request(sites[b], b);
    SpanLog::Scope span{log, "registry.grant",
                        static_cast<std::uint64_t>(c.leases_per_block)};
    for (int l = 0; l < c.leases_per_block; ++l) {
      auto g = reg.grant_now(req);
      if (g.ok()) leases[b].push_back(g.value().id.value());
    }
  }
  std::uint64_t granted = 0;
  for (const auto& l : leases) granted += l.size();
  ++out.checks;
  if (granted != static_cast<std::uint64_t>(c.blocks) * c.leases_per_block) {
    out.failures.push_back("registry replay: grant wave short");
  }

  sim::RngStream rng = sim::RngStream::derive(c.seed, "perfbench.registry");
  LinearReference linear{reg};
  const double extent_x = c.zones_x * zs;
  const double extent_y = c.zones_y * zs;
  std::uint64_t requester_base = 1'000'000;
  double snapshot_sum = 0.0;
  std::uint64_t snapshot_n = 0;
  std::uint64_t rebuilds = 0;  // Misses and sheds of the storm's queries.
  // One round is one query interval of the storm: every block queries
  // once, one block in heartbeat_interval / query_interval heartbeats
  // all its leases, and one zone's worth of leases (the outage zone's
  // lapse and regrant wave) is revoked and granted again over the run.
  const int rounds =
      static_cast<int>(c.horizon.ns() / c.query_interval.ns());
  const int heartbeat_phases = std::max<int>(
      1, static_cast<int>(c.heartbeat_interval.ns() / c.query_interval.ns()));
  const int churn_per_round =
      c.blocks * c.leases_per_block / (c.zones_x * c.zones_y) /
      std::max(rounds, 1);
  constexpr int kSnapshotSamples = 4;
  constexpr int kNearPerRound = 16;
  constexpr int kDifferentialPerRound = 3;

  int round = 0;
  for (; round < rounds; ++round) {
    if (round > 0 && wall_since(start) > budget_s) break;
    const TimePoint round_start = sim.now();
    // Heartbeats: each lease renews once per heartbeat interval.
    for (int b = round % heartbeat_phases; b < c.blocks;
         b += heartbeat_phases) {
      SpanLog::Scope span{log, "registry.heartbeat", leases[b].size()};
      std::uint64_t ok = 0;
      for (const std::uint64_t id : leases[b]) {
        ok += reg.heartbeat_outcome(GrantId{id}) ==
              spectrum::HeartbeatOutcome::kRenewed;
      }
      g_sink = g_sink + ok;
    }
    // Occupancy queries at the storm's arrival times. Misses and root
    // sheds rebuild the zone snapshot inside the call, as in the storm.
    const std::uint64_t rebuilt_before = cache.misses() + cache.root_sheds();
    for (const int b : query_order) {
      sim.run_until(round_start + sites[b].query_phase + c.registry_delay);
      SpanLog::Scope span{log, "registry.zone_occupancy"};
      g_sink = g_sink + reg.zone_occupancy(static_cast<std::uint64_t>(b),
                                           sites[b].location)
                            .grants;
    }
    rebuilds += cache.misses() + cache.root_sheds() - rebuilt_before;
    // Write churn: revoke and re-grant a few leases.
    for (int k = 0; k < churn_per_round; ++k) {
      const auto b = static_cast<int>(rng.uniform_int(0, c.blocks - 1));
      if (leases[b].empty()) continue;
      const std::uint64_t id = leases[b].back();
      leases[b].pop_back();
      {
        SpanLog::Scope span{log, "registry.revoke"};
        reg.revoke(GrantId{id});
      }
      SpanLog::Scope span{log, "registry.grant"};
      auto g = reg.grant_now(grant_request(sites[b], b));
      if (g.ok()) leases[b].push_back(g.value().id.value());
    }
    {
      SpanLog::Scope span{log, "registry.prune_expired"};
      reg.prune_expired();
    }
    // Per-call timing of a snapshot rebuild, on a few queried zones.
    for (int k = 0; k < kSnapshotSamples; ++k) {
      const Position p =
          sites[rng.uniform_int(0, c.blocks - 1)].location;
      SpanLog::Scope span{log, "registry.zone_snapshot"};
      const auto snap = reg.zone_snapshot(registry::zone_key(p, zs));
      snapshot_sum += static_cast<double>(snap->size());
      ++snapshot_n;
    }
    // Point reach queries (the grants_near path) at random points.
    for (int k = 0; k < kNearPerRound; ++k) {
      const Position p{rng.uniform(0.0, extent_x), rng.uniform(0.0, extent_y)};
      SpanLog::Scope span{log, "registry.count_grants_near"};
      g_sink = g_sink + reg.count_grants_near(p);
    }
    // Differential: indexed answers against the linear pass, on block
    // sites (dense) and random points (zone edges included).
    for (int k = 0; k < kDifferentialPerRound; ++k) {
      const Position p =
          k == 0 ? sites[rng.uniform_int(0, c.blocks - 1)].location
                 : Position{rng.uniform(0.0, extent_x),
                            rng.uniform(0.0, extent_y)};
      const std::size_t near = reg.count_grants_near(p);
      ++out.checks;
      if (near != linear.count_reaching(p)) {
        out.failures.push_back("registry: count_grants_near != linear scan");
      }
      const auto snap = reg.zone_snapshot(registry::zone_key(p, zs));
      const std::vector<std::uint64_t> expect = linear.ids_touching(p);
      ++out.checks;
      if (*snap != expect) {
        out.failures.push_back("registry: zone_snapshot != linear scan");
      }
      // A fresh requester misses its local tier; a non-stale serve from
      // any tier must report the live membership.
      const auto occ = reg.zone_occupancy(requester_base++, p);
      if (!occ.stale) {
        ++out.checks;
        if (occ.grants != expect.size()) {
          out.failures.push_back("registry: zone_occupancy != linear scan");
        }
      }
    }
    sim.run_until(round_start + c.query_interval);
  }
  out.counters["registry.snapshot_size"] =
      snapshot_n == 0 ? 0.0 : snapshot_sum / static_cast<double>(snapshot_n);
  // Snapshot rebuilds per simulated second, to compare with the storm's
  // own rate.
  out.counters["registry.replay_rebuilds_per_s"] =
      static_cast<double>(rebuilds) /
      (std::max(round, 1) * c.query_interval.to_seconds());
}

// ---- Protocol stack --------------------------------------------------

namespace {

template <typename Fn>
void batched(SpanLog& log, const char* name, int batches, int per_batch,
             Fn&& fn) {
  for (int b = 0; b < batches; ++b) {
    SpanLog::Scope span{log, name, static_cast<std::uint64_t>(per_batch)};
    for (int i = 0; i < per_batch; ++i) fn(i);
  }
}

crypto::Block128 block_from(sim::RngStream& rng) {
  crypto::Block128 b{};
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return b;
}

}  // namespace

void replay_stack(std::uint64_t seed, SpanLog& log, ReplayOutput& out) {
  sim::RngStream rng = sim::RngStream::derive(seed, "perfbench.stack");
  constexpr int kBatches = 64;

  // The attach dialogue's NAS messages, as the town's UEs and MMEs send
  // them.
  lte::AuthenticationRequest auth_req;
  auth_req.rand = block_from(rng);
  lte::AuthenticationResponse auth_resp;
  auth_resp.res = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<lte::NasMessage> nas{
      lte::AttachRequest{Imsi{9001 + rng.uniform_int(0, 1000)}, Tmsi{0}},
      auth_req,
      auth_resp,
      lte::SecurityModeCommand{},
      lte::SecurityModeComplete{},
      lte::AttachAccept{Tmsi{77}, 0x0a000001u, BearerId{5}},
      lte::AttachComplete{}};
  std::uint64_t decoded = 0;
  std::uint64_t attempted = 0;
  batched(log, "lte.nas_codec", kBatches, 7 * 32, [&](int i) {
    const auto bytes = lte::encode_nas(nas[i % nas.size()]);
    decoded += lte::decode_nas(bytes).ok();
    ++attempted;
  });

  const std::vector<std::uint8_t> pdu = lte::encode_nas(nas[0]);
  const std::vector<lte::S1apMessage> s1{
      lte::InitialUeMessage{EnbUeId{1}, CellId{3}, pdu},
      lte::DownlinkNasTransport{EnbUeId{1}, MmeUeId{2}, pdu},
      lte::UplinkNasTransport{EnbUeId{1}, MmeUeId{2}, pdu},
      lte::InitialContextSetupRequest{EnbUeId{1}, MmeUeId{2}, Teid{9},
                                      std::vector<std::uint8_t>(32, 0x5a)},
      lte::InitialContextSetupResponse{EnbUeId{1}, MmeUeId{2}, Teid{10}}};
  batched(log, "lte.s1ap_codec", kBatches, 5 * 32, [&](int i) {
    const auto bytes = lte::encode_s1ap(s1[i % s1.size()]);
    decoded += lte::decode_s1ap(bytes).ok();
    ++attempted;
  });

  const lte::X2Message x2 = lte::X2LoadInformation{CellId{4}, 0.25, 16};
  batched(log, "lte.x2ap_codec", kBatches, 128, [&](int) {
    const auto bytes = lte::encode_x2(x2);
    decoded += lte::decode_x2(bytes).ok();
    ++attempted;
  });
  ++out.checks;
  if (decoded != attempted) {
    out.failures.push_back("stack: a codec round trip failed to decode");
  }

  // One authentication vector per call, as the HSS computes it.
  const crypto::Key128 k = block_from(rng);
  const crypto::Milenage milenage{k, crypto::derive_opc(k, block_from(rng))};
  const crypto::Rand128 rand = block_from(rng);
  batched(log, "crypto.milenage", kBatches, 16, [&](int i) {
    crypto::Rand128 r = rand;
    r[0] = static_cast<std::uint8_t>(i);
    const auto f1 = milenage.f1(r, crypto::Sqn48{}, crypto::Amf16{0x80, 0});
    const auto f25 = milenage.f2_f5(r);
    const auto ck = milenage.f3(r);
    const auto ik = milenage.f4(r);
    g_sink = g_sink + f1.mac_a[0] + f25.res[0] + ck[0] + ik[0];
  });

  // One hop over an island's local link, as the town's X2 reports take.
  sim::Simulator sim;
  net::Network network{sim};
  const NodeId ig = network.add_node("ig");
  const NodeId ap = network.add_node("ap");
  network.add_link(ig, ap,
                   net::LinkConfig{DataRate::mbps(1000.0),
                                   Duration::micros(200)});
  std::uint64_t delivered = 0;
  network.set_handler(ap, [&delivered](net::Packet&&) { ++delivered; });
  const std::vector<std::uint8_t> payload = lte::encode_x2(x2);
  constexpr int kPackets = 256;
  batched(log, "net.send", kBatches, kPackets, [&](int i) {
    net::Packet p;
    p.src = ig;
    p.dst = ap;
    p.size_bytes = static_cast<int>(payload.size());
    p.payload = payload;
    network.send(std::move(p));
    if (i == kPackets - 1) sim.run_all();
  });
  ++out.checks;
  if (delivered != static_cast<std::uint64_t>(kBatches) * kPackets) {
    out.failures.push_back("stack: net.send lost packets");
  }
}

// ---- Engine queue ----------------------------------------------------

void replay_hold(std::size_t pending, std::uint64_t seed, SpanLog& log) {
  sim::CalendarQueue queue;
  sim::RngStream rng = sim::RngStream::derive(seed, "perfbench.hold");
  std::uint64_t seq = 0;
  std::int64_t now = 0;
  const auto gap = [&rng] {
    return static_cast<std::int64_t>(rng.uniform_int(0, 999'999));
  };
  pending = std::max<std::size_t>(pending, 1);
  for (std::size_t i = 0; i < pending; ++i) {
    queue.push(sim::QueuedEvent{TimePoint::from_ns(now + gap()), seq++, {}});
  }
  constexpr int kPerBatch = 4096;
  batched(log, "sim.hold", 64, kPerBatch, [&](int) {
    sim::QueuedEvent event = queue.pop();
    now = event.when.ns();
    event.when = TimePoint::from_ns(now + gap());
    event.seq = seq++;
    queue.push(std::move(event));
  });
  g_sink = g_sink + static_cast<std::uint64_t>(now);
}

}  // namespace perfbench
