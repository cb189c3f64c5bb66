// Microbenchmarks (google-benchmark): throughput of the primitives the
// simulation rests on. Not a paper experiment — a performance-regression
// harness for the library itself (a local core stub is supposed to run
// on an "off the shelf computer", §5, so the protocol work must be
// cheap).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "crypto/milenage.h"
#include "crypto/sha256.h"
#include "lte/nas.h"
#include "lte/x2ap.h"
#include "mac/lte_scheduler.h"
#include "mac/wifi_dcf.h"
#include "phy/propagation.h"
#include "registry/spatial.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "spectrum/registry.h"

namespace {
using namespace dlte;

void BM_Aes128Encrypt(benchmark::State& state) {
  crypto::Key128 key{};
  key[0] = 0x2b;
  crypto::Aes128 aes{key};
  crypto::Block128 block{};
  for (auto _ : state) {
    block = aes.encrypt(block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_Aes128Encrypt);

void BM_MilenageAuthVector(benchmark::State& state) {
  crypto::Key128 k{};
  k[0] = 0x46;
  crypto::Block128 opc{};
  opc[0] = 0xcd;
  crypto::Milenage m{k, opc};
  crypto::Rand128 rand{};
  crypto::Sqn48 sqn{};
  crypto::Amf16 amf{0x80, 0x00};
  for (auto _ : state) {
    auto f1 = m.f1(rand, sqn, amf);
    auto f25 = m.f2_f5(rand);
    auto ck = m.f3(rand);
    auto ik = m.f4(rand);
    benchmark::DoNotOptimize(f1);
    benchmark::DoNotOptimize(f25);
    benchmark::DoNotOptimize(ck);
    benchmark::DoNotOptimize(ik);
    rand[0] = static_cast<std::uint8_t>(rand[0] + 1);
  }
}
BENCHMARK(BM_MilenageAuthVector);

void BM_Sha256_1KiB(benchmark::State& state) {
  std::vector<std::uint8_t> data(1024, 0xab);
  for (auto _ : state) {
    auto d = crypto::sha256(data);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_NasRoundTrip(benchmark::State& state) {
  const lte::NasMessage msg{lte::AttachAccept{Tmsi{7}, 0x0a2d0001,
                                              BearerId{5}}};
  for (auto _ : state) {
    auto bytes = lte::encode_nas(msg);
    auto back = lte::decode_nas(bytes);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_NasRoundTrip);

void BM_X2ShareProposalRoundTrip(benchmark::State& state) {
  lte::DlteShareProposal p;
  p.round = 1;
  for (std::uint32_t i = 0; i < 16; ++i) {
    p.ap_ids.push_back(i);
    p.shares.push_back(1.0 / 16);
  }
  const lte::X2Message msg{p};
  for (auto _ : state) {
    auto bytes = lte::encode_x2(msg);
    auto back = lte::decode_x2(bytes);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_X2ShareProposalRoundTrip);

void BM_HataPathLoss(benchmark::State& state) {
  phy::OkumuraHataModel model{phy::Environment::kOpenRural};
  double d = 1000.0;
  for (auto _ : state) {
    auto loss = model.path_loss(Hertz::mhz(850.0),
                                phy::LinkGeometry{d, 30.0, 1.5});
    benchmark::DoNotOptimize(loss);
    d = d < 20'000.0 ? d + 1.0 : 1000.0;
  }
}
BENCHMARK(BM_HataPathLoss);

void BM_PfScheduler32Ues(benchmark::State& state) {
  mac::ProportionalFairScheduler sched;
  std::vector<mac::SchedUe> ues;
  for (std::uint32_t i = 0; i < 32; ++i) {
    ues.push_back(mac::SchedUe{UeId{i}, static_cast<int>(1 + i % 15), 1e6,
                               1e5 + i});
  }
  for (auto _ : state) {
    auto grants = sched.schedule(ues, 100);
    benchmark::DoNotOptimize(grants);
  }
}
BENCHMARK(BM_PfScheduler32Ues);

// Hold model (Brown): steady queue population, each step pops the
// minimum and pushes a successor a random increment later — the steady
// state of a large simulation. The pending-set size matches what a
// metro-scale run (bench_c10_metro: ~10k APs) keeps in flight; the
// heap's O(log n) hurts most right there. Run over both queue
// implementations; the recorded "event_queue_speedup" timing is
// calendar-vs-heap on exactly this loop (the DESIGN.md §13 claim).
template <typename Queue>
void queue_hold(benchmark::State& state) {
  constexpr std::size_t kPending = 1 << 17;
  Queue queue;
  std::uint64_t seq = 0;
  std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
  const auto next_gap = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::int64_t>((lcg >> 40) % 1'000'000);  // <1 ms
  };
  std::int64_t now = 0;
  for (std::size_t i = 0; i < kPending; ++i) {
    queue.push(
        sim::QueuedEvent{TimePoint::from_ns(now + next_gap()), seq++, {}});
  }
  for (auto _ : state) {
    sim::QueuedEvent event = queue.pop();
    now = event.when.ns();
    event.when = TimePoint::from_ns(now + next_gap());
    event.seq = seq++;
    queue.push(std::move(event));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_EventQueueHeapHold(benchmark::State& state) {
  queue_hold<sim::BinaryHeapQueue>(state);
}
BENCHMARK(BM_EventQueueHeapHold);

void BM_EventQueueCalendarHold(benchmark::State& state) {
  queue_hold<sim::CalendarQueue>(state);
}
BENCHMARK(BM_EventQueueCalendarHold);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int count = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(Duration::micros(i), [&count] { ++count; });
    }
    sim.run_all();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_DcfSimulatedSecond(benchmark::State& state) {
  for (auto _ : state) {
    mac::DcfSimulator dcf{1};
    dcf.add_station(mac::DcfStationConfig{});
    dcf.add_station(mac::DcfStationConfig{});
    dcf.run(Duration::millis(100));
    benchmark::DoNotOptimize(dcf.stats(0).delivered_frames);
  }
}
BENCHMARK(BM_DcfSimulatedSecond);

// Registry zone reads at 1M leases (DESIGN.md §16): 1,048,576 grants
// on 15 CBRS-style channels, evenly over a 16x16 grid of 50 km zones.
// Every query reads one of kQueryZones zones in turn, and every
// kChurnPeriod queries one lease is revoked and granted again — sparse
// churn, which moves the index generation and so makes each queried
// zone rebuild its memoized snapshot once per period. The linear bench
// answers the same queries with a pass over Registry::grants(), the
// oracle the differential tests also use; main() records the in-run
// ratios against it.
class ZoneReadFixture {
 public:
  static constexpr int kGrants = 1 << 20;
  static constexpr int kZonesPerSide = 16;
  static constexpr std::uint64_t kQueryZones = 16;
  static constexpr std::uint64_t kChurnPeriod = 256;

  static ZoneReadFixture& get() {
    static ZoneReadFixture fixture;
    return fixture;
  }

  spectrum::Registry& registry() { return reg_; }

  // Query zones sit on a 4x4 lattice inside the grid, so every one has a
  // full ring of populated neighbours reaching in.
  static Position centre(std::uint64_t q) {
    const auto i = static_cast<int>(q % kQueryZones);
    const double zs = spectrum::Registry::kZoneSizeM;
    return Position{(1.5 + 4 * (i % 4)) * zs, (2.5 + 4 * (i / 4)) * zs};
  }
  static std::int64_t zone(std::uint64_t q) {
    return registry::zone_key(centre(q), spectrum::Registry::kZoneSizeM);
  }

  // One query of the shared schedule: churn on period boundaries, then
  // the read. Keeps the schedule identical across the three benches.
  template <typename Read>
  void step(Read&& read) {
    if (query_ % kChurnPeriod == 0) churn();
    read(query_);
    ++query_;
  }

  // The oracle: ids of all grants whose reach touches the zone of query
  // `q`, by a pass over the flat grant vector, ascending.
  std::vector<std::uint64_t> linear_ids(std::uint64_t q) const {
    const double zs = spectrum::Registry::kZoneSizeM;
    const Position c = centre(q);
    const double x0 = std::floor(c.x_m / zs) * zs;
    const double y0 = std::floor(c.y_m / zs) * zs;
    std::vector<std::uint64_t> ids;
    for (const auto& g : reg_.grants()) {
      const double dx =
          std::max({x0 - g.location.x_m, 0.0, g.location.x_m - (x0 + zs)});
      const double dy =
          std::max({y0 - g.location.y_m, 0.0, g.location.y_m - (y0 + zs)});
      if (std::sqrt(dx * dx + dy * dy) <= range_by_channel_[channel(g)]) {
        ids.push_back(g.id.value());
      }
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }

 private:
  ZoneReadFixture() : reg_{sim_, spectrum::RegistryKind::kCentralizedSas} {
    ids_.reserve(kGrants);
    for (int i = 0; i < kGrants; ++i) {
      auto g = reg_.grant_now(request(i));
      if (!g.ok()) std::abort();
      ids_.push_back(g->id);
    }
    // Grants 0..14 cover the 15 channels in order.
    for (int c = 0; c < 15; ++c) {
      range_by_channel_[c] = spectrum::interference_range_m(reg_.grants()[c]);
    }
  }

  static spectrum::GrantRequest request(int i) {
    constexpr int kGrid = 1 << 10;  // sqrt(kGrants) sites per side.
    const double pitch = kZonesPerSide * spectrum::Registry::kZoneSizeM / kGrid;
    spectrum::GrantRequest req;
    req.ap = ApId{static_cast<std::uint32_t>(i + 1)};
    req.location = Position{(i % kGrid + 0.5) * pitch,
                            (i / kGrid + 0.5) * pitch};
    req.center_frequency = Hertz::mhz(3550.0 + 10.0 * (i % 15));
    req.bandwidth = Hertz::mhz(10.0);
    req.operator_contact = "micro@bench";
    return req;
  }
  static int channel(const spectrum::SpectrumGrant& g) {
    return static_cast<int>(
        std::lround((g.center_frequency.hz() / 1e6 - 3550.0) / 10.0));
  }

  // Revoke the oldest lease and grant its site again: the population
  // and placement stay fixed while the index changes.
  void churn() {
    const int i = next_churn_;
    next_churn_ = (next_churn_ + 1) % kGrants;
    reg_.revoke(ids_[i]);
    auto g = reg_.grant_now(request(i));
    if (!g.ok()) std::abort();
    ids_[i] = g->id;
  }

  sim::Simulator sim_;
  spectrum::Registry reg_;
  std::vector<GrantId> ids_;
  double range_by_channel_[15]{};
  int next_churn_{0};
  std::uint64_t query_{0};
};

// Runs a memoized read over the shared schedule. Before timing, exactly
// four churn periods are replayed to count snapshot builds per query — a
// machine-independent figure (kQueryZones / kChurnPeriod when the memo
// works) that the reporter below records under "metrics".
template <typename Read>
void memoized_zone_reads(benchmark::State& state, Read&& read) {
  ZoneReadFixture& f = ZoneReadFixture::get();
  constexpr std::uint64_t kCounted = 4 * ZoneReadFixture::kChurnPeriod;
  const std::uint64_t builds = f.registry().snapshot_builds();
  for (std::uint64_t i = 0; i < kCounted; ++i) f.step(read);
  state.counters["builds_per_query"] =
      static_cast<double>(f.registry().snapshot_builds() - builds) / kCounted;
  for (auto _ : state) f.step(read);
  state.SetItemsProcessed(state.iterations());
}

void BM_RegistryZoneSnapshot1M(benchmark::State& state) {
  auto& reg = ZoneReadFixture::get().registry();
  memoized_zone_reads(state, [&reg](std::uint64_t q) {
    auto snap = reg.zone_snapshot(ZoneReadFixture::zone(q));
    benchmark::DoNotOptimize(snap);
  });
}
BENCHMARK(BM_RegistryZoneSnapshot1M);

void BM_RegistryZoneOccupancy1M(benchmark::State& state) {
  auto& reg = ZoneReadFixture::get().registry();
  memoized_zone_reads(state, [&reg](std::uint64_t q) {
    auto occ = reg.zone_occupancy(q, ZoneReadFixture::centre(q));
    benchmark::DoNotOptimize(occ);
  });
}
BENCHMARK(BM_RegistryZoneOccupancy1M);

void BM_RegistryZoneLinear1M(benchmark::State& state) {
  ZoneReadFixture& f = ZoneReadFixture::get();
  for (auto _ : state) {
    f.step([&f](std::uint64_t q) {
      auto ids = f.linear_ids(q);
      benchmark::DoNotOptimize(ids);
    });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryZoneLinear1M);

// Console output as usual, plus each benchmark's per-iteration real
// time captured into the harness. Times land under "timings" (wall
// clock, non-deterministic); only the run count and the deterministic
// builds-per-query figures go into "metrics".
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  CapturingReporter(dlte::bench::Harness& harness,
                    std::map<std::string, double>& per_iter_s)
      : harness_(harness), per_iter_s_(per_iter_s) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      const double per_iter =
          run.iterations > 0
              ? run.real_accumulated_time /
                    static_cast<double>(run.iterations)
              : 0.0;
      harness_.timing(run.benchmark_name(), per_iter);
      per_iter_s_[run.benchmark_name()] = per_iter;
      const auto builds = run.counters.find("builds_per_query");
      if (builds != run.counters.end()) {
        harness_.metrics()
            .gauge("micro." + run.benchmark_name() + ".builds_per_query")
            .set(builds->second.value);
      }
      harness_.metrics().counter("micro.benchmarks_run").inc();
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

 private:
  dlte::bench::Harness& harness_;
  std::map<std::string, double>& per_iter_s_;
};

}  // namespace

int main(int argc, char** argv) {
  dlte::bench::Harness harness{"microbench"};
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  std::map<std::string, double> per_iter_s;
  CapturingReporter reporter{harness, per_iter_s};
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  // Calendar-vs-heap win on the hold loop (>1 = calendar faster).
  const double heap = per_iter_s["BM_EventQueueHeapHold"];
  const double calendar = per_iter_s["BM_EventQueueCalendarHold"];
  if (heap > 0.0 && calendar > 0.0) {
    harness.timing("event_queue_speedup", heap / calendar);
  }
  // Memoized zone reads vs the linear pass over the same schedule (>1 =
  // memo faster). Like C12's region-query gate, the 10x floor is loose:
  // a memo hit is O(1) against an O(population) pass.
  bool ok = true;
  const double linear = per_iter_s["BM_RegistryZoneLinear1M"];
  if (linear > 0.0) {
    ZoneReadFixture& f = ZoneReadFixture::get();
    for (std::uint64_t q = 0; q < ZoneReadFixture::kQueryZones; ++q) {
      if (*f.registry().zone_snapshot(ZoneReadFixture::zone(q)) !=
          f.linear_ids(q)) {
        std::cerr << "microbench: zone_snapshot != linear pass\n";
        ok = false;
      }
    }
  }
  for (const char* read : {"BM_RegistryZoneSnapshot1M",
                           "BM_RegistryZoneOccupancy1M"}) {
    const double memo = per_iter_s[read];
    if (linear <= 0.0 || memo <= 0.0) continue;
    harness.timing(std::string{read} + "_speedup", linear / memo);
    if (linear / memo < 10.0) {
      std::cerr << "microbench: " << read << " < 10x the linear pass\n";
      ok = false;
    }
  }
  return harness.finish(ok ? 0 : 1);
}
