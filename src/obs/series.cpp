#include "obs/series.h"

#include <algorithm>

namespace dlte::obs {

const char* series_kind_name(SeriesKind kind) {
  switch (kind) {
    case SeriesKind::kCounter:
      return "counter";
    case SeriesKind::kCounterRate:
      return "rate";
    case SeriesKind::kGauge:
      return "gauge";
    case SeriesKind::kHistogramCount:
      return "hist_count";
    case SeriesKind::kHistogramQuantile:
      return "hist_quantile";
  }
  return "?";
}

namespace {

struct ByName {
  template <typename Tap>
  bool operator()(const Tap& a, const Tap& b) const {
    return *a.name < *b.name;
  }
};

// Merge name-sorted `fresh` into name-sorted `taps`.
template <typename Tap>
void merge_taps(std::vector<Tap>& taps, const std::vector<Tap>& fresh) {
  const auto old_size = static_cast<std::ptrdiff_t>(taps.size());
  taps.insert(taps.end(), fresh.begin(), fresh.end());
  std::inplace_merge(taps.begin(), taps.begin() + old_size, taps.end(),
                     ByName{});
}

}  // namespace

TimeSeriesSampler::TimeSeriesSampler(const MetricsRegistry& registry,
                                     SamplerConfig config)
    : registry_(registry), config_(config), epoch_(registry.epoch()) {}

TimeSeriesSampler::SeriesEntry& TimeSeriesSampler::get(const std::string& name,
                                                       SeriesKind kind) {
  return *series_.try_emplace(name, kind, config_.capacity).first;
}

void TimeSeriesSampler::sync_taps() {
  if (epoch_ != registry_.epoch()) {
    for (const CounterTap& tap : counter_taps_) carried_[*tap.name] = tap.last;
    counter_taps_.clear();
    gauge_taps_.clear();
    histogram_taps_.clear();
    tapped_ = 0;
    epoch_ = registry_.epoch();
  }
  const std::vector<InstrumentRef>& index = registry_.index();
  if (tapped_ == index.size()) return;

  std::vector<CounterTap> counters;
  std::vector<GaugeTap> gauges;
  std::vector<HistogramTap> histograms;
  for (std::size_t i = tapped_; i < index.size(); ++i) {
    const InstrumentRef& ref = index[i];
    switch (ref.kind) {
      case InstrumentKind::kCounter:
        counters.push_back(CounterTap{ref.name, &ref.counter()});
        break;
      case InstrumentKind::kGauge:
        gauges.push_back(GaugeTap{ref.name, &ref.gauge()});
        break;
      case InstrumentKind::kHistogram:
        histograms.push_back(HistogramTap{ref.name, &ref.histogram()});
        break;
    }
  }
  names_resolved_ += index.size() - tapped_;
  tapped_ = index.size();

  // Resolve in the walk order (counters, gauges, histograms, each by
  // name): when two instruments share a series, the first creates it
  // and fixes its kind.
  std::sort(counters.begin(), counters.end(), ByName{});
  std::sort(gauges.begin(), gauges.end(), ByName{});
  std::sort(histograms.begin(), histograms.end(), ByName{});
  for (CounterTap& tap : counters) {
    SeriesEntry& value = get(*tap.name, SeriesKind::kCounter);
    tap.name = &value.first;
    tap.value = &value.second;
    tap.rate = &get(*tap.name + ".rate", SeriesKind::kCounterRate).second;
    if (const auto it = carried_.find(*tap.name); it != carried_.end()) {
      tap.last = it->second;
      tap.has_last = true;
    }
  }
  for (GaugeTap& tap : gauges) {
    tap.value = &get(*tap.name, SeriesKind::kGauge).second;
  }
  for (HistogramTap& tap : histograms) {
    const std::string& name = *tap.name;
    tap.count = &get(name + ".count", SeriesKind::kHistogramCount).second;
    tap.p50 = &get(name + ".p50", SeriesKind::kHistogramQuantile).second;
    tap.p95 = &get(name + ".p95", SeriesKind::kHistogramQuantile).second;
    tap.p99 = &get(name + ".p99", SeriesKind::kHistogramQuantile).second;
  }
  merge_taps(counter_taps_, counters);
  merge_taps(gauge_taps_, gauges);
  merge_taps(histogram_taps_, histograms);
}

void TimeSeriesSampler::sample(TimePoint now) {
  sync_taps();
  const double t_s = (now - TimePoint{}).to_seconds();
  const double dt = t_s - last_t_s_;
  for (CounterTap& tap : counter_taps_) {
    const std::uint64_t value = tap.counter->value();
    tap.value->push(t_s, static_cast<double>(value));
    double rate = 0.0;
    if (tap.has_last && dt > 0.0) {
      rate = static_cast<double>(value - tap.last) / dt;
    }
    tap.rate->push(t_s, rate);
    tap.last = value;
    tap.has_last = true;
  }
  for (const GaugeTap& tap : gauge_taps_) {
    tap.value->push(t_s, tap.gauge->value());
  }
  static constexpr double kQuantiles[3] = {0.50, 0.95, 0.99};
  for (const HistogramTap& tap : histogram_taps_) {
    const Histogram& h = *tap.histogram;
    double q[3] = {};
    h.quantiles(kQuantiles, q);
    tap.count->push(t_s, static_cast<double>(h.count()));
    tap.p50->push(t_s, q[0]);
    tap.p95->push(t_s, q[1]);
    tap.p99->push(t_s, q[2]);
  }
  last_t_s_ = t_s;
  ++samples_;
}

const TimeSeries* TimeSeriesSampler::find(const std::string& name) const {
  const auto it = series_.find(name);
  return it != series_.end() ? &it->second : nullptr;
}

}  // namespace dlte::obs
