#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace dlte::obs {

std::int32_t Histogram::bucket_index(double v) {
  // frexp: v = f * 2^e with f in [0.5, 1). Map f linearly onto
  // kSubBuckets sub-buckets so consecutive buckets differ by at most a
  // factor of (1 + 1/kSubBuckets).
  //
  // For a normal v the same index comes straight from the bits: e is the
  // biased exponent - 1022, and (f - 0.5) * 2 * kSubBuckets — exact in
  // binary floating point — is the mantissa's top log2(kSubBuckets) bits.
  static_assert(kSubBuckets == 32, "the bit path reads 5 mantissa bits");
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const auto biased = static_cast<std::int32_t>((bits >> 52) & 0x7ff);
  if (biased != 0) {
    return (biased - 1022) * kSubBuckets +
           static_cast<std::int32_t>((bits >> 47) & 31);
  }
  int e = 0;
  const double f = std::frexp(v, &e);
  const auto sub = static_cast<std::int32_t>((f - 0.5) * 2.0 * kSubBuckets);
  return static_cast<std::int32_t>(e) * kSubBuckets +
         std::min<std::int32_t>(sub, kSubBuckets - 1);
}

double Histogram::bucket_midpoint(std::int32_t index) {
  const std::int32_t e =
      index >= 0 ? index / kSubBuckets
                 : (index - (kSubBuckets - 1)) / kSubBuckets;
  const std::int32_t sub = index - e * kSubBuckets;
  const double lo =
      std::ldexp(0.5 + 0.5 * static_cast<double>(sub) / kSubBuckets, e);
  const double hi =
      std::ldexp(0.5 + 0.5 * static_cast<double>(sub + 1) / kSubBuckets, e);
  return 0.5 * (lo + hi);
}

void Histogram::cover(std::int32_t lo, std::int32_t hi) {
  if (counts_.empty()) {
    base_ = lo;
    counts_.assign(static_cast<std::size_t>(hi - lo) + 1, 0);
    return;
  }
  const std::int32_t new_lo = std::min(lo, base_);
  const std::int32_t new_hi = std::max(hi, top());
  if (new_lo == base_ && new_hi == top()) return;
  const auto width = static_cast<std::size_t>(new_hi - new_lo) + 1;
  std::vector<std::uint64_t> grown(width);
  std::copy(counts_.begin(), counts_.end(), grown.begin() + (base_ - new_lo));
  counts_.swap(grown);
  base_ = new_lo;
}

void Histogram::record(double v) {
  if (!std::isfinite(v)) return;
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  ++count_;
  sum_ += v;
  if (v <= 0.0) {
    ++underflow_;
    return;
  }
  const std::int32_t index = bucket_index(v);
  if (counts_.empty() || index < base_ || index > top()) cover(index, index);
  ++counts_[static_cast<std::size_t>(index - base_)];
}

void Histogram::merge_from(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
  underflow_ += other.underflow_;
  if (other.counts_.empty()) return;
  cover(other.base_, other.top());
  const auto offset = static_cast<std::size_t>(other.base_ - base_);
  for (std::size_t i = 0; i < other.counts_.size(); ++i) {
    counts_[offset + i] += other.counts_[i];
  }
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target sample (1-based, ceil) within the sorted stream.
  const auto rank = static_cast<std::uint64_t>(
      std::max<double>(1.0, std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = underflow_;
  // Underflow bucket: report the observed minimum when negative samples
  // were seen, otherwise the bucket's nominal value of zero.
  if (rank <= seen) return min_ < 0.0 ? min_ : 0.0;
  double estimate = max_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      estimate = bucket_midpoint(base_ + static_cast<std::int32_t>(i));
      break;
    }
  }
  if (estimate < min_) estimate = min_;
  if (estimate > max_) estimate = max_;
  return estimate;
}

void Histogram::quantiles(std::span<const double> qs,
                          std::span<double> out) const {
  // The arithmetic of quantile(), with the walk shared: ascending qs give
  // non-decreasing ranks, so each bucket resolves the next run of them.
  auto rank_of = [this](double q) {
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    return static_cast<std::uint64_t>(
        std::max<double>(1.0, std::ceil(q * static_cast<double>(count_))));
  };
  auto clamped = [this](double estimate) {
    if (estimate < min_) estimate = min_;
    if (estimate > max_) estimate = max_;
    return estimate;
  };
  std::size_t i = 0;
  if (count_ == 0) {
    for (; i < qs.size(); ++i) out[i] = 0.0;
    return;
  }
  std::uint64_t seen = underflow_;
  for (; i < qs.size() && rank_of(qs[i]) <= seen; ++i) {
    out[i] = min_ < 0.0 ? min_ : 0.0;
  }
  for (std::size_t b = 0; b < counts_.size() && i < qs.size(); ++b) {
    seen += counts_[b];
    for (; i < qs.size() && rank_of(qs[i]) <= seen; ++i) {
      out[i] = clamped(bucket_midpoint(base_ + static_cast<std::int32_t>(b)));
    }
  }
  for (; i < qs.size(); ++i) out[i] = clamped(max_);
}

double Histogram::quantile_since(const Histogram& baseline, double q) const {
  const std::uint64_t n = count_ - baseline.count_;
  if (n == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const auto rank = static_cast<std::uint64_t>(
      std::max<double>(1.0, std::ceil(q * static_cast<double>(n))));
  std::uint64_t seen = underflow_ - baseline.underflow_;
  if (rank <= seen) return min_ < 0.0 ? min_ : 0.0;
  double estimate = max_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::int32_t index = base_ + static_cast<std::int32_t>(i);
    seen += counts_[i] - baseline.at(index);
    if (seen >= rank) {
      estimate = bucket_midpoint(index);
      break;
    }
  }
  if (estimate < min_) estimate = min_;
  if (estimate > max_) estimate = max_;
  return estimate;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? &it->second : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? &it->second : nullptr;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? &it->second : nullptr;
}

}  // namespace dlte::obs
