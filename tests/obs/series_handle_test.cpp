// The handle sampler against its simple reference (DESIGN.md §10).
//
// TimeSeriesSampler samples through per-instrument taps built from the
// registry's creation-order index. The reference below is the name-keyed
// walk it replaced: every sample visits the registry's sorted maps and
// looks each series up by name. A seeded random registry — growing
// between samples, cleared mid-run, with names that collide across kinds
// and with derived series names — must render byte-identical series
// JSON through both.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/series.h"
#include "obs/series_export.h"

namespace dlte::obs {
namespace {

TimePoint at(double t_s) { return TimePoint{} + Duration::seconds(t_s); }

class ReferenceSampler {
 public:
  ReferenceSampler(const MetricsRegistry& registry, SamplerConfig config)
      : registry_(registry), config_(config) {}

  void sample(TimePoint now) {
    const double t_s = (now - TimePoint{}).to_seconds();
    for (const auto& [name, c] : registry_.counters()) {
      const std::uint64_t value = c.value();
      get(name, SeriesKind::kCounter).push(t_s, static_cast<double>(value));
      double rate = 0.0;
      const auto last = last_counters_.find(name);
      const double dt = t_s - last_t_s_;
      if (last != last_counters_.end() && dt > 0.0) {
        rate = static_cast<double>(value - last->second) / dt;
      }
      get(name + ".rate", SeriesKind::kCounterRate).push(t_s, rate);
      last_counters_[name] = value;
    }
    for (const auto& [name, g] : registry_.gauges()) {
      get(name, SeriesKind::kGauge).push(t_s, g.value());
    }
    for (const auto& [name, h] : registry_.histograms()) {
      get(name + ".count", SeriesKind::kHistogramCount)
          .push(t_s, static_cast<double>(h.count()));
      get(name + ".p50", SeriesKind::kHistogramQuantile).push(t_s, h.p50());
      get(name + ".p95", SeriesKind::kHistogramQuantile).push(t_s, h.p95());
      get(name + ".p99", SeriesKind::kHistogramQuantile).push(t_s, h.p99());
    }
    last_t_s_ = t_s;
    ++samples_;
  }

  // The layout SeriesExporter::to_json writes with no SLO monitor.
  [[nodiscard]] std::string to_json(const std::string& source) const {
    JsonWriter w;
    w.begin_object();
    w.key("schema").value("dlte-series-v1");
    w.key("source").value(source);
    w.key("interval_s").value(config_.interval.to_seconds());
    w.key("samples").value(samples_);
    w.key("series").begin_object();
    for (const auto& [name, series] : series_) {
      w.key(name).begin_object();
      w.key("kind").value(series_kind_name(series.kind()));
      w.key("dropped").value(series.dropped());
      w.key("points").begin_array();
      for (const auto& point : series.points()) {
        w.begin_array();
        w.value(point.t_s);
        w.value(point.value);
        w.end_array();
      }
      w.end_array();
      w.end_object();
    }
    w.end_object();
    w.key("rules").begin_array().end_array();
    w.key("alerts").begin_array().end_array();
    w.key("health").begin_object().end_object();
    w.end_object();
    return w.str();
  }

 private:
  TimeSeries& get(const std::string& name, SeriesKind kind) {
    return series_.try_emplace(name, kind, config_.capacity).first->second;
  }

  const MetricsRegistry& registry_;
  SamplerConfig config_;
  std::map<std::string, TimeSeries> series_;
  std::map<std::string, std::uint64_t> last_counters_;
  double last_t_s_{0.0};
  std::uint64_t samples_{0};
};

// Names drawn from a small pool so that instruments of different kinds
// share names ("a" as counter and gauge) and collide with derived series
// (counter "a.rate" pushes into the rate series of counter "a").
std::string random_name(std::mt19937_64& rng) {
  static const char* const kBases[] = {"a", "ap.1", "ap.10", "ap.2", "b",
                                       "x.y"};
  static const char* const kSuffixes[] = {"", "", "", ".rate", ".count",
                                          ".p50"};
  return std::string{kBases[rng() % 6]} + kSuffixes[rng() % 6];
}

void run_both(std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  MetricsRegistry reg;
  SamplerConfig config;
  config.capacity = 6;  // Small: rings overflow and count drops.
  TimeSeriesSampler handle{reg, config};
  ReferenceSampler reference{reg, config};

  double t_s = 0.0;
  for (int step = 0; step < 40; ++step) {
    const std::uint64_t creates = rng() % 4;
    for (std::uint64_t i = 0; i < creates; ++i) {
      const std::string name = random_name(rng);
      switch (rng() % 3) {
        case 0:
          reg.counter(name).inc(rng() % 50);
          break;
        case 1:
          reg.gauge(name).set(static_cast<double>(rng() % 1000) / 8.0);
          break;
        default:
          reg.histogram(name).record(static_cast<double>(rng() % 500) - 20.0);
          break;
      }
    }
    // Touch existing instruments by name (get-or-create is a no-op).
    for (const InstrumentRef& ref : std::vector<InstrumentRef>{
             reg.index().begin(), reg.index().end()}) {
      if (rng() % 2 == 0) continue;
      switch (ref.kind) {
        case InstrumentKind::kCounter:
          reg.counter(*ref.name).inc(rng() % 100);
          break;
        case InstrumentKind::kGauge:
          reg.gauge(*ref.name).add(static_cast<double>(rng() % 7) - 3.0);
          break;
        case InstrumentKind::kHistogram:
          reg.histogram(*ref.name).record(static_cast<double>(rng() % 900));
          break;
      }
    }
    // A clear() mid-run: re-created counters continue their rates (and a
    // smaller re-created value wraps, as the name-keyed walk did).
    if (rng() % 9 == 0) reg.clear();
    // Repeated timestamps exercise the dt = 0 rate path.
    if (rng() % 5 != 0) t_s += 0.25 * static_cast<double>(1 + rng() % 3);
    if (rng() % 6 == 0) continue;  // Several mutations between samples.
    handle.sample(at(t_s));
    reference.sample(at(t_s));
  }
  EXPECT_EQ(SeriesExporter::to_json(handle, nullptr, "diff"),
            reference.to_json("diff"))
      << "seed " << seed;
}

TEST(HandleSampler, MatchesNameKeyedReferenceByteForByte) {
  for (std::uint64_t seed = 1; seed <= 64 && !HasFailure(); ++seed) {
    run_both(seed);
  }
}

TEST(HandleSampler, SteadyStateSampleResolvesNoNames) {
  MetricsRegistry reg;
  Counter& c = reg.counter("pkts");
  reg.gauge("load").set(1.0);
  reg.histogram("lat").record(3.0);
  TimeSeriesSampler sampler{reg};

  sampler.sample(at(1.0));
  EXPECT_EQ(sampler.names_resolved(), 3u);
  for (int i = 2; i <= 10; ++i) {
    c.inc(5);
    reg.counter("pkts").inc();  // Name lookups by the producer are free.
    sampler.sample(at(static_cast<double>(i)));
  }
  EXPECT_EQ(sampler.names_resolved(), 3u);

  // Only the new instrument is resolved; a clear() re-resolves the live
  // set once.
  reg.gauge("late").set(2.0);
  sampler.sample(at(11.0));
  EXPECT_EQ(sampler.names_resolved(), 4u);
  reg.clear();
  reg.counter("pkts").inc(100);
  reg.counter("fresh").inc();
  sampler.sample(at(12.0));
  sampler.sample(at(13.0));
  EXPECT_EQ(sampler.names_resolved(), 6u);
  // The re-created counter's rate continues from the pre-clear value:
  // 9 x 6 = 54 before, 100 after, over 1 s.
  const auto& rates = sampler.find("pkts.rate")->points();
  EXPECT_DOUBLE_EQ(rates[rates.size() - 2].value, 46.0);
  EXPECT_DOUBLE_EQ(rates.back().value, 0.0);
}

}  // namespace
}  // namespace dlte::obs
