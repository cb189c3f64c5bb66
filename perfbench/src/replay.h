// Layer replays for the traced run.
//
// Each replay calls one hot layer of the simulator directly from the
// benchmark, inside spans, at the inputs the workloads put through it:
// the registry at the churn storm's population, zone grid and op mix;
// the LTE codecs, Milenage and Network::send at the town's message set;
// the calendar queue at a workload's pending-event depth. Nothing inside
// src/ is instrumented — the spans wrap calls the benchmark makes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "par/registry_plane.h"
#include "spans.h"

namespace perfbench {

// Counters a replay reports beside its spans, plus the outcome of the
// differential checks it ran.
struct ReplayOutput {
  std::map<std::string, double> counters;
  std::uint64_t checks{0};
  std::vector<std::string> failures;
};

// Federated spectrum::Registry + LeaseCache at the storm's population,
// zone grid, lease terms and cache configuration (all read from `storm`,
// the config the registry_storm workload runs), one round per
// query_interval over the storm's horizon; stops early past budget_s.
// Queries arrive at the storm's per-block phases, so zone snapshots are
// rebuilt only where the storm's own cache misses and sheds rebuild them.
// Spans: registry.grant, registry.heartbeat, registry.revoke,
// registry.zone_occupancy, registry.count_grants_near,
// registry.prune_expired, and registry.zone_snapshot on a few sampled
// zones (a per-call timing probe, not part of the storm's op mix).
// Sampled queries are checked against a linear pass over
// Registry::grants().
void replay_registry(const dlte::par::RegistryPlaneConfig& storm,
                     double budget_s, SpanLog& log, ReplayOutput& out);

// NAS / S1AP / X2AP encode+decode, Milenage authentication vectors and
// Network::send hops. Spans: lte.nas_codec, lte.s1ap_codec,
// lte.x2ap_codec, crypto.milenage, net.send.
void replay_stack(std::uint64_t seed, SpanLog& log, ReplayOutput& out);

// Calendar-queue hold (pop + push) at `pending` queued events. Span:
// sim.hold.
void replay_hold(std::size_t pending, std::uint64_t seed, SpanLog& log);

}  // namespace perfbench
