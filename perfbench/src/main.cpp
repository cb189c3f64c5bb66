// dlte_perfbench: the timed core of the repo benchmark.
//
//   dlte_perfbench --workload metro|town|registry_storm --seed N
//                  --seconds S --trace 0|1
//
// Untraced (--trace 0): runs the workload's scenario at 1 shard and at 4
// shards on one thread, pair after pair, until S seconds are used,
// with set-up samples (a zero-horizon 1-shard instance, built and run)
// before each pair and a calibration point (calibrate.h) between
// samples. Every pair is a correctness check: the 4-shard
// merged artifacts must be byte-identical to the 1-shard ones and to the
// first 1-shard run, and the workload's invariants must hold.
//
// Before the timed loop, one 1-shard and one 4-shard run each execute in
// a forked child, whose peak resident memory (wait4) is the run's
// memory figure.
//
// Traced (--trace 1): traced 1-shard runs alternating with untraced ones
// (for the tracing overhead), one traced 4-shard run on 2 worker threads
// (for the parallel runtime's par.* metrics), with spans around
// every call the benchmark makes (construct, run, merge, export), then
// the workload's layer replays (replay.h).
//
// The last stdout line is one JSON object of raw samples, counters and
// spans; perfbench/run.py turns it into the benchmark's metrics.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "obs/audit_export.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/prof_export.h"
#include "par/metro.h"
#include "par/registry_plane.h"
#include "par/town.h"

#include "calibrate.h"
#include "replay.h"
#include "spans.h"

namespace perfbench {
namespace {
using namespace dlte;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kWideShards = 4;
// Worker threads of the timed 4-shard runs: none beside the calling
// thread, which runs the four shards in turn each window. With worker
// threads, every window wakes them on other vCPUs, and on the 4-vCPU VM
// the benchmark was tuned on (its cores shared with other tenants) that
// wake-up cost from microseconds to ~0.6 ms, for minutes at a time:
// 4-shard medians of ten runs spread by half their median with 4 workers,
// and 3 of 20 runs read 40-75% slow with 2.
constexpr std::size_t kTimedWideThreads = 1;
// Worker threads of the traced 4-shard run, whose par.* metrics (barrier
// wait, lane imbalance, speedup) describe parallel execution.
constexpr std::size_t kTracedWideThreads = 2;
constexpr int kCalibrationRuns = 3;  // Kernel runs per calibration point.
constexpr std::size_t kSetupBatch = 50;
constexpr double kSetupBatchSeconds = 0.05;
constexpr int kOverheadPairs = 5;  // Traced/untraced 1-shard pairs.
constexpr double kStormHorizonS = 75.0;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
};

bool parse(int argc, char** argv, Options& opt) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      opt.trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload && (argc % 2) == 1;
}

// ---- Workload configurations ------------------------------------------
// Sizes are the benchmark's definition; the seed is the only input that
// varies between runs.

par::MetroConfig metro_config(std::uint64_t seed, std::size_t shards,
                              Duration horizon) {
  par::MetroConfig cfg;
  cfg.aps = 10'000;
  cfg.ues_per_ap = 100;
  cfg.shards = shards;
  cfg.threads = 1;
  cfg.seed = seed;
  cfg.horizon = horizon;
  cfg.profile = true;
  cfg.audit = true;
  cfg.engine_sample_interval = Duration::millis(500);
  return cfg;
}

par::TownConfig town_config(std::uint64_t seed, std::size_t shards,
                            Duration horizon) {
  par::TownConfig cfg;
  cfg.aps = 256;
  cfg.ues_per_ap = 64;
  cfg.shards = shards;
  cfg.threads = 1;
  cfg.seed = seed;
  cfg.horizon = horizon;
  cfg.report_interval = Duration::millis(50);
  cfg.backbone_delay = Duration::millis(5);
  cfg.sample_interval = Duration::millis(500);
  cfg.profile = true;
  cfg.audit = true;
  return cfg;
}

par::RegistryPlaneConfig storm_config(std::uint64_t seed, std::size_t shards,
                                      Duration horizon) {
  par::RegistryPlaneConfig cfg;
  cfg.blocks = 512;
  cfg.leases_per_block = 256;
  cfg.zones_x = 8;
  cfg.zones_y = 8;
  cfg.shards = shards;
  cfg.threads = 1;
  cfg.seed = seed;
  cfg.horizon = horizon;
  // The scenario's placement is fixed, so the seed moves the outage
  // start within 18..22 s. Lifetime + grace (25 s) stays shorter than the
  // 30 s outage, so the mass lapse and regrant wave happen at every seed.
  cfg.outage_at = Duration::seconds(18.0 + static_cast<double>(seed % 5));
  cfg.audit = true;
  cfg.profile = true;
  return cfg;
}

// ---- One scenario run --------------------------------------------------

struct RunRecord {
  double wall_s{0.0};  // Construct → run() → merged artifacts exported.
  double run_call_s{0.0};  // run() alone.
  // Compared artifacts, in a fixed order.
  std::vector<std::string> artifacts;
  obs::ShardProfile profile;
  obs::EventProfiler attribution;
  std::uint64_t events{0};
  std::uint64_t windows{0};
  std::uint64_t queue_resizes{0};
  std::map<std::string, double> counters;
  std::vector<std::string> invariant_failures;
};

std::uint64_t sum_counters(const obs::MetricsRegistry& reg,
                           const std::string& suffix) {
  std::uint64_t total = 0;
  for (const auto& [name, counter] : reg.counters()) {
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += counter.value();
    }
  }
  return total;
}

void check(RunRecord& rec, bool ok, const std::string& what) {
  if (!ok) rec.invariant_failures.push_back(what);
}

void inspect(const par::MetroConfig& cfg, const par::MetroResult& r,
             RunRecord& rec) {
  const std::uint64_t ues =
      static_cast<std::uint64_t>(cfg.aps) * cfg.ues_per_ap;
  check(rec, r.ues_attached == ues, "metro: ues_attached != APs x UEs");
  check(rec, r.bytes_delivered == r.ues_attached * cfg.flow_bytes_per_ue &&
                 cfg.flow_bytes_per_ue == 204'800,
        "metro: bytes_per_ue != 204800");
}

void inspect(const par::TownConfig& cfg, const par::TownResult& r,
             RunRecord& rec) {
  check(rec, r.attaches_failed == 0, "town: failed attaches");
  check(rec,
        r.attaches_completed ==
            static_cast<std::uint64_t>(cfg.aps) * cfg.ues_per_ap,
        "town: completed attaches != APs x UEs");
}

void inspect(const par::RegistryPlaneConfig&, const par::RegistryPlaneResult& r,
             RunRecord& rec) {
  check(rec, r.outage_alert_fired, "registry_storm: outage alert never fired");
  check(rec, r.outage_alert_resolved,
        "registry_storm: outage alert never resolved");
  rec.counters["registry.storm_rebuilds_per_s"] =
      static_cast<double>(r.cache_misses + r.cache_root_sheds) /
      r.sim_seconds;
  const double lookups =
      static_cast<double>(r.cache_hits + r.cache_misses + r.cache_root_sheds);
  rec.counters["registry.cache_hit_ratio"] =
      lookups == 0.0 ? 0.0 : static_cast<double>(r.cache_hits) / lookups;
  rec.counters["registry.cache_stale_serves"] =
      static_cast<double>(r.cache_stale_serves);
  rec.counters["registry.cache_root_sheds"] =
      static_cast<double>(r.cache_root_sheds);
}

template <typename Scenario>
void export_artifacts(Scenario& s, RunRecord& rec,
                      const obs::AuditDoc& audit) {
  rec.artifacts.push_back(s.metrics_json());
  rec.artifacts.push_back(s.series_json("perfbench"));
  rec.artifacts.push_back(
      obs::ProfExporter::event_attribution_json(rec.attribution));
  rec.artifacts.push_back(obs::AuditExporter::merged_json(audit));
  if constexpr (requires { s.openmetrics_text(); }) {
    rec.artifacts.push_back(s.openmetrics_text());
  }
}

template <typename Scenario, typename Config>
RunRecord run_scenario(const Config& cfg, SpanLog& log, bool layer_counters) {
  RunRecord rec;
  log.begin_run();
  const Clock::time_point start = Clock::now();
  std::unique_ptr<Scenario> scenario;
  {
    SpanLog::Scope span{log, "scenario.construct"};
    scenario = std::make_unique<Scenario>(cfg);
  }
  const Clock::time_point run_start = Clock::now();
  auto result = [&] {
    SpanLog::Scope span{log, "scenario.run"};
    return scenario->run();
  }();
  rec.run_call_s = seconds_since(run_start);
  obs::AuditDoc audit;
  {
    SpanLog::Scope span{log, "obs.merge"};
    scenario->runtime().merged_profiler_into(rec.attribution);
    rec.profile = scenario->runtime().profile();
    audit = scenario->runtime().audit_doc();
  }
  {
    SpanLog::Scope span{log, "obs.export"};
    export_artifacts(*scenario, rec, audit);
  }
  rec.wall_s = seconds_since(start);

  inspect(cfg, result, rec);
  par::ShardedSimulator& rt = scenario->runtime();
  rec.events = rt.events_executed();
  rec.windows = rt.windows_run();
  rec.queue_resizes = rt.queue_resizes();
  if (layer_counters) {
    obs::MetricsRegistry merged;
    rt.merged_metrics_into(merged);
    rec.counters["net.packets"] =
        static_cast<double>(sum_counters(merged, ".net.packets_sent"));
    rec.counters["epc.messages"] =
        static_cast<double>(sum_counters(merged, ".epc.messages_processed"));
  }
  return rec;
}

// Construction plus the lazy build(), on a zero-horizon 1-shard instance.
template <typename Scenario, typename Config>
double measure_setup(const Config& cfg, SpanLog& log) {
  log.begin_run();
  const Clock::time_point start = Clock::now();
  std::unique_ptr<Scenario> scenario;
  {
    SpanLog::Scope span{log, "setup.construct"};
    scenario = std::make_unique<Scenario>(cfg);
  }
  {
    SpanLog::Scope span{log, "setup.build"};
    (void)scenario->run();
  }
  return seconds_since(start);
}

// ---- Workload dispatch -------------------------------------------------

struct Workload {
  const char* name;
  RunRecord (*run)(std::uint64_t seed, std::size_t shards,
                   std::size_t threads, SpanLog& log, bool layer_counters);
  double (*setup)(std::uint64_t seed, SpanLog& log);
  // The layers this workload enters beyond par and sim, replayed in the
  // traced run; null when it enters none.
  void (*replay)(std::uint64_t seed, double budget_s, SpanLog& log,
                 ReplayOutput& out);
};

// A scenario type, its config function and its horizon, as plain functions
// for the dispatch table.
template <typename Scenario, auto MakeConfig, double HorizonS>
struct Bind {
  static RunRecord run(std::uint64_t seed, std::size_t shards,
                       std::size_t threads, SpanLog& log,
                       bool layer_counters) {
    auto cfg = MakeConfig(seed, shards, Duration::seconds(HorizonS));
    cfg.threads = threads;
    return run_scenario<Scenario>(cfg, log, layer_counters);
  }
  static double setup(std::uint64_t seed, SpanLog& log) {
    return measure_setup<Scenario>(MakeConfig(seed, 1, Duration{}), log);
  }
};

using Metro = Bind<par::MetroScenario, metro_config, 8.0>;
using Town = Bind<par::ShardedTown, town_config, 8.0>;
using Storm = Bind<par::RegistryPlaneScenario, storm_config, kStormHorizonS>;

void replay_town(std::uint64_t seed, double, SpanLog& log, ReplayOutput& out) {
  replay_stack(seed, log, out);
}

void replay_storm(std::uint64_t seed, double budget_s, SpanLog& log,
                  ReplayOutput& out) {
  replay_registry(storm_config(seed, 1, Duration::seconds(kStormHorizonS)),
                  budget_s, log, out);
}

const Workload kWorkloads[] = {
    {"metro", Metro::run, Metro::setup, nullptr},
    {"town", Town::run, Town::setup, replay_town},
    {"registry_storm", Storm::run, Storm::setup, replay_storm},
};

// ---- Output ------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += json_number(values[i]);
  }
  return out + "]";
}

std::string artifact_digest(const RunRecord& rec) {
  std::string all;
  for (const std::string& a : rec.artifacts) {
    all += a;
    all += '\0';
  }
  const auto d = crypto::sha256(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(all.data()), all.size()));
  static const char* kHex = "0123456789abcdef";
  std::string hex;
  for (const std::uint8_t b : d) {
    hex += kHex[b >> 4];
    hex += kHex[b & 15];
  }
  return hex;
}

// Peak resident memory in MiB of one scenario run at `shards`, run in a
// forked child so that the figure holds that run alone. Forked before the
// benchmark allocates anything, the child starts from the bare process.
// Returns a negative value when the child fails. The timed runs keep the
// allocator's defaults.
double child_peak_rss_mb(const Workload& w, const Options& opt,
                         std::size_t shards) {
  const pid_t pid = fork();
  if (pid < 0) return -1.0;
  if (pid == 0) {
    // One allocator arena for every thread: per-thread arenas grow by
    // different amounts from run to run, which made the 4-shard peak
    // bimodal (76 or 81 MiB on registry_storm).
    mallopt(M_ARENA_MAX, 1);
    SpanLog off{false};
    (void)w.run(opt.seed, shards, kTimedWideThreads, off, false);
    std::_Exit(0);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return -1.0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB → MiB.
}

// ---- Checks ------------------------------------------------------------

struct Verdict {
  std::uint64_t attempted{0};
  std::vector<std::string> failures;
  std::uint64_t failed{0};

  // One pair = one check: 4-shard artifacts equal the 1-shard ones (and
  // the reference 1-shard run), and both runs hold the invariants.
  void pair(const RunRecord& reference, const RunRecord& s1,
            const RunRecord& s4) {
    ++attempted;
    std::vector<std::string> why = s1.invariant_failures;
    why.insert(why.end(), s4.invariant_failures.begin(),
               s4.invariant_failures.end());
    if (s4.artifacts != s1.artifacts || s4.events != s1.events) {
      why.push_back("4-shard artifacts differ from the 1-shard run");
    }
    if (s1.artifacts != reference.artifacts) {
      why.push_back("1-shard artifacts differ between repeated runs");
    }
    if (!why.empty()) ++failed;
    failures.insert(failures.end(), why.begin(), why.end());
  }
  void probe(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
  void replay(const ReplayOutput& r) {
    attempted += r.checks;
    failed += r.failures.size();
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
  }
};

// ---- Traced-run layer counters ---------------------------------------

void par_counters(const RunRecord& s1, const RunRecord& s4,
                  std::map<std::string, double>& c) {
  const obs::ShardProfile& p = s4.profile;
  double wait_share = 0.0;
  double busy_sum = 0.0;
  double busy_max = 0.0;
  double lane_sum = 0.0;
  for (const obs::ShardLane& lane : p.lanes) {
    const double total = lane.run_s + lane.barrier_wait_s;
    wait_share += total > 0.0 ? lane.barrier_wait_s / total : 0.0;
    busy_sum += lane.run_s;
    busy_max = std::max(busy_max, lane.run_s);
    lane_sum += total;
  }
  const double lanes = static_cast<double>(std::max<std::size_t>(
      p.lanes.size(), 1));
  std::uint64_t local = 0;
  std::uint64_t cross = 0;
  for (const obs::ShardMatrixCell& cell : p.matrix) {
    (cell.src == cell.dst ? local : cross) += cell.messages;
  }
  c["par.windows"] = static_cast<double>(s4.windows);
  c["par.events_per_window"] =
      s4.windows == 0 ? 0.0
                      : static_cast<double>(s4.events) /
                            static_cast<double>(s4.windows);
  c["par.barrier_wait_share"] = wait_share / lanes;
  c["par.serial_s"] = s4.run_call_s - lane_sum / lanes;
  c["par.local_messages"] = static_cast<double>(local);
  c["par.cross_shard_messages"] = static_cast<double>(cross);
  c["par.lane_imbalance"] =
      busy_sum == 0.0 ? 0.0 : busy_max / (busy_sum / lanes);
  c["par.speedup_s4"] = s1.wall_s / s4.wall_s;
}

void sim_counters(const RunRecord& s1, std::map<std::string, double>& c) {
  c["sim.events"] = static_cast<double>(s1.events);
  for (const std::uint32_t id : s1.attribution.sorted_ids()) {
    c["sim.events." + s1.attribution.label_name(id)] =
        static_cast<double>(s1.attribution.stats(id).executed);
  }
  const double lane_run =
      s1.profile.lanes.empty() ? 0.0 : s1.profile.lanes[0].run_s;
  c["sim.host_ns_per_event"] =
      s1.events == 0 ? 0.0 : lane_run * 1e9 / static_cast<double>(s1.events);
  c["sim.queue_resizes"] = static_cast<double>(s1.queue_resizes);
}

std::size_t max_queue_depth(const RunRecord& s1) {
  std::uint64_t depth = 0;
  for (const obs::ShardWindowSample& s : s1.profile.samples) {
    depth = std::max(depth, s.queue_depth);
  }
  return static_cast<std::size_t>(depth);
}

// ---- Main loops --------------------------------------------------------

int run_untraced(const Workload& w, const Options& opt) {
  Verdict verdict;
  // The larger of the two runs' peaks.
  double rss_mb = 0.0;
  for (const std::size_t shards : {std::size_t{1}, kWideShards}) {
    const double mb = child_peak_rss_mb(w, opt, shards);
    verdict.probe(mb > 0.0, "memory probe run failed at " +
                                std::to_string(shards) + " shard(s)");
    rss_mb = std::max(rss_mb, mb);
  }
  SpanLog off{false};
  Calibrator calibrator;
  // One calibration point: the median of kCalibrationRuns kernel runs.
  const auto calibrate = [&calibrator] {
    double runs[kCalibrationRuns];
    for (double& r : runs) r = calibrator.measure();
    std::sort(std::begin(runs), std::end(runs));
    return runs[kCalibrationRuns / 2];
  };
  const Clock::time_point start = Clock::now();
  // Raw wall seconds, and the mean of the calibration points just before
  // and just after each sample.
  std::vector<double> setup, s1_times, s4_times;
  std::vector<double> setup_cal, s1_cal, s4_cal;
  RunRecord reference, s1_run, s4_run;
  std::string digest;
  double point = calibrate();
  for (int pair = 0;; ++pair) {
    const Clock::time_point pair_start = Clock::now();
    // Set-up samples ride before every pair, so they see the same host
    // conditions over the run as the pairs do: at least one sample, and
    // up to kSetupBatch of them within kSetupBatchSeconds.
    const std::size_t first_setup = setup.size();
    for (std::size_t i = 0;
         i < kSetupBatch &&
         (i == 0 || seconds_since(pair_start) < kSetupBatchSeconds);
         ++i) {
      setup.push_back(w.setup(opt.seed, off));
    }
    double next = calibrate();
    setup_cal.insert(setup_cal.end(), setup.size() - first_setup,
                     (point + next) / 2.0);
    point = next;
    // Alternate the order so drift over the run hits both shard counts.
    const bool s1_first = pair % 2 == 0;
    const std::size_t order[] = {s1_first ? 1 : kWideShards,
                                 s1_first ? kWideShards : 1};
    for (const std::size_t shards : order) {
      RunRecord rec = w.run(opt.seed, shards, kTimedWideThreads, off, false);
      next = calibrate();
      (shards == 1 ? s1_times : s4_times).push_back(rec.wall_s);
      (shards == 1 ? s1_cal : s4_cal).push_back((point + next) / 2.0);
      point = next;
      (shards == 1 ? s1_run : s4_run) = std::move(rec);
    }
    if (pair == 0) {
      reference = s1_run;
      digest = artifact_digest(s1_run);
    }
    verdict.pair(reference, s1_run, s4_run);
    if (seconds_since(start) + seconds_since(pair_start) > opt.seconds) break;
  }
  std::cout << "{\"workload\":" << json_string(w.name)
            << ",\"seed\":" << opt.seed << ",\"trace\":0"
            << ",\"samples\":{\"setup_s\":" << json_list(setup)
            << ",\"run_s.s1\":" << json_list(s1_times)
            << ",\"run_s.s4\":" << json_list(s4_times) << "}"
            << ",\"calibration_s\":{\"setup_s\":" << json_list(setup_cal)
            << ",\"run_s.s1\":" << json_list(s1_cal)
            << ",\"run_s.s4\":" << json_list(s4_cal) << "}"
            << ",\"reference_calibration_s\":"
            << json_number(Calibrator::kReferenceSeconds)
            << ",\"peak_rss_mb\":" << json_number(rss_mb)
            << ",\"attempted\":" << verdict.attempted
            << ",\"failed\":" << verdict.failed << ",\"failures\":[";
  for (std::size_t i = 0; i < verdict.failures.size(); ++i) {
    std::cout << (i > 0 ? "," : "") << json_string(verdict.failures[i]);
  }
  std::cout << "],\"digest\":" << json_string(digest) << "}" << std::endl;
  return 0;
}

int run_traced(const Workload& w, const Options& opt) {
  SpanLog log{true};
  SpanLog off{false};
  const Clock::time_point start = Clock::now();
  (void)w.setup(opt.seed, log);
  // Tracing overhead: the median over pairs of (traced − untraced) ÷
  // untraced 1-shard wall time, alternating which run of a pair goes
  // first so drift hits both.
  RunRecord s1;
  std::vector<double> overhead;
  for (int i = 0; i < kOverheadPairs; ++i) {
    double untraced_s = 0.0;
    for (const bool traced : {i % 2 == 0, i % 2 != 0}) {
      if (traced) {
        s1 = w.run(opt.seed, 1, 1, log, true);
      } else {
        untraced_s = w.run(opt.seed, 1, 1, off, false).wall_s;
      }
    }
    overhead.push_back((s1.wall_s - untraced_s) / untraced_s);
  }
  std::sort(overhead.begin(), overhead.end());
  const RunRecord s4 =
      w.run(opt.seed, kWideShards, kTracedWideThreads, log, true);
  Verdict verdict;
  verdict.pair(s1, s1, s4);

  std::map<std::string, double> counters = s1.counters;
  par_counters(s1, s4, counters);
  sim_counters(s1, counters);
  counters["trace.overhead_share"] = overhead[overhead.size() / 2];

  log.begin_run();
  replay_hold(max_queue_depth(s1), opt.seed, log);
  if (w.replay != nullptr) {
    ReplayOutput replayed;
    log.begin_run();
    // Whatever time the scenario runs left, within the run's budget.
    w.replay(opt.seed, std::max(2.0, opt.seconds - seconds_since(start) - 2.0),
             log, replayed);
    verdict.replay(replayed);
    counters.insert(replayed.counters.begin(), replayed.counters.end());
  }

  std::cout << "{\"workload\":" << json_string(w.name)
            << ",\"seed\":" << opt.seed << ",\"trace\":1"
            << ",\"attempted\":" << verdict.attempted
            << ",\"failed\":" << verdict.failed << ",\"failures\":[";
  for (std::size_t i = 0; i < verdict.failures.size(); ++i) {
    std::cout << (i > 0 ? "," : "") << json_string(verdict.failures[i]);
  }
  std::cout << "],\"digest\":" << json_string(artifact_digest(s1))
            << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    std::cout << (first ? "" : ",") << json_string(name) << ":"
              << json_number(value);
    first = false;
  }
  std::cout << "},\"spans\":" << log.to_json() << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::parse(argc, argv, opt)) {
    std::cerr << "usage: dlte_perfbench --workload metro|town|registry_storm"
                 " --seed N --seconds S --trace 0|1\n";
    return 2;
  }
  for (const auto& w : perfbench::kWorkloads) {
    if (opt.workload == w.name) {
      return opt.trace ? perfbench::run_traced(w, opt)
                       : perfbench::run_untraced(w, opt);
    }
  }
  std::cerr << "dlte_perfbench: unknown workload " << opt.workload << "\n";
  return 2;
}
