// Time-series telemetry: the missing time dimension of the §8 metrics
// plane (DESIGN.md §10).
//
// A MetricsSnapshot answers "where did the run end up"; a TimeSeries
// answers "when did it change". The TimeSeriesSampler walks a
// MetricsRegistry at a fixed simulated-time cadence and appends each
// instrument's state to a bounded ring-buffered series:
//
//   counter    <name>        cumulative value
//              <name>.rate   per-second delta since the previous sample
//   gauge      <name>        point-in-time value
//   histogram  <name>.count / .p50 / .p95 / .p99
//
// Like everything in obs, the sampler never touches a wall clock: it is
// driven from outside (sim::TelemetryDriver registers the recurring
// simulator event) and stamps points with the simulated time it is
// handed, so two same-seed runs produce byte-identical series JSON —
// the property the CI health gate diffs directly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/time.h"
#include "obs/metrics.h"

namespace dlte::obs {

struct SeriesPoint {
  double t_s{0.0};  // Simulated seconds since the start of the run.
  double value{0.0};
};

// What a series was derived from — kept so downstream tooling can tell
// a raw counter from a derived rate without parsing the name.
enum class SeriesKind {
  kCounter,
  kCounterRate,
  kGauge,
  kHistogramCount,
  kHistogramQuantile,
};

[[nodiscard]] const char* series_kind_name(SeriesKind kind);

// Bounded ring of points: oldest points drop first, and drops are
// counted — a long run degrades to a sliding window, never to OOM. The
// points sit in one contiguous buffer that grows up to `capacity` and
// then wraps, so a series costs one block, not a deque's chunk and map.
class TimeSeries {
 public:
  // Oldest-first view of the ring; iterators and indices are valid until
  // the next push.
  class Points {
   public:
    class Iterator {
     public:
      using value_type = SeriesPoint;
      using difference_type = std::ptrdiff_t;
      using reference = const SeriesPoint&;

      Iterator() = default;
      Iterator(const Points* points, std::size_t i) : points_(points), i_(i) {}
      reference operator*() const { return (*points_)[i_]; }
      Iterator& operator++() {
        ++i_;
        return *this;
      }
      bool operator==(const Iterator& other) const { return i_ == other.i_; }

     private:
      const Points* points_{nullptr};
      std::size_t i_{0};
    };

    explicit Points(const TimeSeries& series) : series_(series) {}
    [[nodiscard]] std::size_t size() const { return series_.ring_.size(); }
    [[nodiscard]] bool empty() const { return series_.ring_.empty(); }
    [[nodiscard]] const SeriesPoint& operator[](std::size_t i) const {
      std::size_t at = series_.head_ + i;
      if (at >= series_.ring_.size()) at -= series_.ring_.size();
      return series_.ring_[at];
    }
    [[nodiscard]] const SeriesPoint& front() const { return (*this)[0]; }
    [[nodiscard]] const SeriesPoint& back() const {
      return (*this)[size() - 1];
    }
    [[nodiscard]] Iterator begin() const { return Iterator(this, 0); }
    [[nodiscard]] Iterator end() const { return Iterator(this, size()); }

   private:
    const TimeSeries& series_;
  };

  explicit TimeSeries(SeriesKind kind, std::size_t capacity)
      : kind_(kind), capacity_(capacity) {}

  void push(double t_s, double value) {
    if (ring_.size() < capacity_) {
      // First block: a run's worth of samples at the usual cadences.
      if (ring_.empty()) ring_.reserve(std::min<std::size_t>(capacity_, 16));
      ring_.push_back(SeriesPoint{t_s, value});
      return;
    }
    ++dropped_;
    if (capacity_ == 0) return;
    // Full: the new point overwrites the oldest, which becomes the newest.
    ring_[head_] = SeriesPoint{t_s, value};
    if (++head_ == capacity_) head_ = 0;
  }

  [[nodiscard]] SeriesKind kind() const { return kind_; }
  [[nodiscard]] Points points() const { return Points(*this); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] double latest() const {
    return ring_.empty() ? 0.0 : points().back().value;
  }

 private:
  SeriesKind kind_;
  std::size_t capacity_;
  // Oldest point at head_ (0 until the ring first wraps).
  std::vector<SeriesPoint> ring_;
  std::size_t head_{0};
  std::uint64_t dropped_{0};
};

struct SamplerConfig {
  // Simulated-time sampling period (the cadence sim::TelemetryDriver
  // registers its recurring event at).
  Duration interval{Duration::millis(500)};
  // Ring bound per series.
  std::size_t capacity{4096};
};

// Samples by handle: one tap per registry instrument holds the resolved
// target series (and a counter's previous value), built from the
// registry's creation-order index (DESIGN.md §10). A name is resolved
// once, at the first sample after its instrument appears; a steady-state
// sample does no lookups and builds no strings. A registry clear()
// re-resolves every tap, carrying counter values by name so rates run on
// across it.
class TimeSeriesSampler {
 public:
  explicit TimeSeriesSampler(const MetricsRegistry& registry,
                             SamplerConfig config = {});
  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  // Append one point per instrument at simulated time `now`. Metrics
  // that appear mid-run start their series at the first sample after
  // creation; rates are 0 at each counter's first sample.
  void sample(TimePoint now);

  [[nodiscard]] Duration interval() const { return config_.interval; }
  [[nodiscard]] std::uint64_t samples() const { return samples_; }
  [[nodiscard]] const std::map<std::string, TimeSeries>& series() const {
    return series_;
  }
  [[nodiscard]] const TimeSeries* find(const std::string& name) const;
  // Instruments whose series were looked up by name so far: one per
  // instrument per registry epoch, never one per sample.
  [[nodiscard]] std::uint64_t names_resolved() const {
    return names_resolved_;
  }

 private:
  using SeriesEntry = std::map<std::string, TimeSeries>::value_type;

  // `name` orders the taps. A counter's points at its value series' key
  // (the same string, owned here), so it survives a registry clear() for
  // the carry; the others point at the registry's key.
  struct CounterTap {
    const std::string* name{nullptr};
    const Counter* counter{nullptr};
    TimeSeries* value{nullptr};
    TimeSeries* rate{nullptr};
    std::uint64_t last{0};
    bool has_last{false};
  };
  struct GaugeTap {
    const std::string* name{nullptr};
    const Gauge* gauge{nullptr};
    TimeSeries* value{nullptr};
  };
  struct HistogramTap {
    const std::string* name{nullptr};
    const Histogram* histogram{nullptr};
    TimeSeries* count{nullptr};
    TimeSeries* p50{nullptr};
    TimeSeries* p95{nullptr};
    TimeSeries* p99{nullptr};
  };

  SeriesEntry& get(const std::string& name, SeriesKind kind);
  // Tap the instruments created since the last sample (all of them after
  // a clear()).
  void sync_taps();

  const MetricsRegistry& registry_;
  SamplerConfig config_;
  std::map<std::string, TimeSeries> series_;
  // Each kind's taps sorted by name: the order the name-keyed walk
  // visited them in, so two instruments feeding one series name push in
  // the same order as ever.
  std::vector<CounterTap> counter_taps_;
  std::vector<GaugeTap> gauge_taps_;
  std::vector<HistogramTap> histogram_taps_;
  std::size_t tapped_{0};  // Registry index entries already tapped.
  std::uint64_t epoch_{0};
  // Counter values at the last sample before a registry clear(), by name.
  std::map<std::string, std::uint64_t> carried_;
  double last_t_s_{0.0};
  std::uint64_t samples_{0};
  std::uint64_t names_resolved_{0};
};

}  // namespace dlte::obs
