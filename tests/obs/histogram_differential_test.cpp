// The dense-array Histogram against a std::map reference kept here: the
// bucket layout, record/merge and the quantile arithmetic spelled out
// over a sorted map of occupied buckets, the simplest form the array
// must agree with. Every reported
// statistic must agree bit for bit on seeded random streams, including
// non-finite, zero, negative and subnormal samples and ranges that span
// the whole double exponent range. Each test prints its seed.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <vector>

namespace dlte::obs {
namespace {

constexpr std::uint64_t kSeed = 20180815;

std::mt19937_64 seeded_rng(const char* test) {
  std::printf("[   SEED   ] %s seed=%llu\n", test,
              static_cast<unsigned long long>(kSeed));
  return std::mt19937_64{kSeed};
}

class MapHistogram {
 public:
  static constexpr int kSub = Histogram::kSubBuckets;

  void record(double v) {
    if (!std::isfinite(v)) return;
    if (count_ == 0) {
      min_ = v;
      max_ = v;
    } else {
      min_ = std::min(min_, v);
      max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
    if (v <= 0.0) {
      ++underflow_;
    } else {
      ++buckets_[index(v)];
    }
  }

  void merge_from(const MapHistogram& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
    underflow_ += other.underflow_;
    for (const auto& [i, n] : other.buckets_) buckets_[i] += n;
  }

  [[nodiscard]] double quantile(double q) const {
    return quantile_over(q, count_, underflow_, nullptr);
  }
  [[nodiscard]] double quantile_since(const MapHistogram& baseline,
                                      double q) const {
    return quantile_over(q, count_ - baseline.count_,
                         underflow_ - baseline.underflow_, &baseline);
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ > 0 ? max_ : 0.0; }

 private:
  static std::int32_t index(double v) {
    int e = 0;
    const double f = std::frexp(v, &e);
    const auto sub = static_cast<std::int32_t>((f - 0.5) * 2.0 * kSub);
    return e * kSub + std::min<std::int32_t>(sub, kSub - 1);
  }
  static double midpoint(std::int32_t index) {
    const std::int32_t e =
        index >= 0 ? index / kSub : (index - (kSub - 1)) / kSub;
    const std::int32_t sub = index - e * kSub;
    const double lo = std::ldexp(0.5 + 0.5 * sub / kSub, e);
    const double hi = std::ldexp(0.5 + 0.5 * (sub + 1) / kSub, e);
    return 0.5 * (lo + hi);
  }

  double quantile_over(double q, std::uint64_t n, std::uint64_t under,
                       const MapHistogram* baseline) const {
    if (n == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = static_cast<std::uint64_t>(
        std::max<double>(1.0, std::ceil(q * static_cast<double>(n))));
    std::uint64_t seen = under;
    if (rank <= seen) return min_ < 0.0 ? min_ : 0.0;
    double estimate = max_;
    for (const auto& [i, c] : buckets_) {
      std::uint64_t delta = c;
      if (baseline != nullptr) {
        const auto it = baseline->buckets_.find(i);
        if (it != baseline->buckets_.end()) delta -= it->second;
      }
      seen += delta;
      if (seen >= rank) {
        estimate = midpoint(i);
        break;
      }
    }
    return std::clamp(estimate, min_, max_);
  }

  std::map<std::int32_t, std::uint64_t> buckets_;
  std::uint64_t underflow_{0};
  std::uint64_t count_{0};
  double sum_{0.0};
  double min_{0.0};
  double max_{0.0};
};

// Both recorders fed the same stream.
struct Pair {
  Histogram fast;
  MapHistogram ref;
  void record(double v) {
    fast.record(v);
    ref.record(v);
  }
  void merge_from(const Pair& other) {
    fast.merge_from(other.fast);
    ref.merge_from(other.ref);
  }
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

const std::vector<double>& probe_qs() {
  static const std::vector<double> qs = [] {
    std::vector<double> v = {-1.0, 0.0, 1e-9, 0.01, 0.1, 0.25, 0.5, 0.75};
    v.insert(v.end(), {0.9, 0.95, 0.99, 0.999, 1.0, 2.0});
    for (int i = 1; i < 64; ++i) v.push_back(i / 64.0);
    std::sort(v.begin(), v.end());
    return v;
  }();
  return qs;
}

void expect_agree(const Pair& p, const char* what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(p.fast.count(), p.ref.count());
  ASSERT_TRUE(same_bits(p.fast.sum(), p.ref.sum()));
  ASSERT_TRUE(same_bits(p.fast.min(), p.ref.min()));
  ASSERT_TRUE(same_bits(p.fast.max(), p.ref.max()));
  const std::vector<double>& qs = probe_qs();
  std::vector<double> all(qs.size());
  p.fast.quantiles(qs, all);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const double want = p.ref.quantile(qs[i]);
    ASSERT_TRUE(same_bits(p.fast.quantile(qs[i]), want))
        << "q=" << qs[i] << " got " << p.fast.quantile(qs[i]) << " want "
        << want;
    ASSERT_TRUE(same_bits(all[i], want)) << "quantiles() q=" << qs[i];
  }
}

void expect_window_agrees(const Pair& now, const Pair& then) {
  ASSERT_EQ(now.fast.count_since(then.fast),
            now.ref.count() - then.ref.count());
  for (const double q : probe_qs()) {
    const double want = now.ref.quantile_since(then.ref, q);
    ASSERT_TRUE(same_bits(now.fast.quantile_since(then.fast, q), want))
        << "quantile_since q=" << q;
  }
}

// A sample from one of several shapes: a narrow band, many binades,
// negatives, or a special value. `wide` adds draws from anywhere in the
// positive doubles, subnormals included — each such histogram spans up
// to ~2,100 binades, so only some trials use them.
double draw(std::mt19937_64& rng, bool wide) {
  std::uniform_real_distribution<double> unit{0.0, 1.0};
  const std::uint64_t shape = rng() % (wide ? 8 : 6);
  switch (shape) {
    case 0:
      return 40.0 + 25.0 * unit(rng);  // An attach-latency band.
    case 1:
      return std::exp(unit(rng) * 60.0 - 30.0);  // ~87 binades.
    case 2:
      return -std::exp(unit(rng) * 10.0);
    case 3: {
      constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
      constexpr double kInf = std::numeric_limits<double>::infinity();
      static constexpr double kOdd[] = {0.0, -0.0, kNan, kInf, -kInf, 1.0, 0.5};
      return kOdd[rng() % std::size(kOdd)];
    }
    case 6: {
      // Any finite non-negative double: random bits below +inf.
      const std::uint64_t bits = rng() % 0x7ff0000000000000ULL;
      double v = 0.0;
      std::memcpy(&v, &bits, sizeof v);
      return v;
    }
    case 7:
      return std::ldexp(1.0 + unit(rng), -1074 + static_cast<int>(rng() % 60));
    default:
      return 1.0 + 1000.0 * unit(rng);
  }
}

TEST(HistogramDifferential, RecordMatchesMapReference) {
  std::mt19937_64 rng = seeded_rng("RecordMatchesMapReference");
  for (int trial = 0; trial < 300; ++trial) {
    Pair p;
    const int n = static_cast<int>(rng() % 500);
    const bool wide = trial % 10 == 0;
    for (int i = 0; i < n; ++i) p.record(draw(rng, wide));
    expect_agree(p, "random stream");
    if (HasFatalFailure()) return;
  }
}

TEST(HistogramDifferential, SpecialValuesAlone) {
  std::printf("[   SEED   ] SpecialValuesAlone seed=none (fixed cases)\n");
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double least = std::numeric_limits<double>::min();
  const double huge = std::numeric_limits<double>::max();
  std::vector<std::vector<double>> cases;
  cases.push_back({});
  cases.push_back({0.0});
  cases.push_back({0.0, 0.0, -0.0});
  cases.push_back({-3.0, -1.0});
  cases.push_back({nan, inf, -inf});
  cases.push_back({nan, 5.0, inf});
  cases.push_back({tiny});
  cases.push_back({tiny, huge});
  cases.push_back({-2.0, 0.0, 1e-300, 1e300});
  cases.push_back({least, 1.0});
  for (const auto& values : cases) {
    Pair p;
    for (const double v : values) p.record(v);
    expect_agree(p, "fixed case");
    if (HasFatalFailure()) return;
  }
}

TEST(HistogramDifferential, MergeMatchesMapReference) {
  std::mt19937_64 rng = seeded_rng("MergeMatchesMapReference");
  std::uniform_real_distribution<double> unit{0.0, 1.0};
  for (int trial = 0; trial < 300; ++trial) {
    Pair a;
    Pair b;
    const int kind = trial % 4;
    const bool wide = trial % 10 == 1;
    const int na = kind == 3 ? 0 : static_cast<int>(rng() % 300);
    const int nb = kind == 2 ? 0 : static_cast<int>(rng() % 300);
    for (int i = 0; i < na; ++i) {
      // Disjoint (kind 0): a below 1, b above 1e6; otherwise overlapping.
      a.record(kind == 0 ? unit(rng) * 0.9 + 0.01 : draw(rng, wide));
    }
    for (int i = 0; i < nb; ++i) {
      b.record(kind == 0 ? 1e6 * (1.0 + unit(rng)) : draw(rng, wide));
    }
    Pair merged = a;
    merged.merge_from(b);
    expect_agree(merged, "a <- b");
    Pair reversed = b;
    reversed.merge_from(a);
    expect_agree(reversed, "b <- a");
    // Merging into an empty histogram copies the other exactly.
    Pair empty;
    empty.merge_from(merged);
    expect_agree(empty, "empty <- merged");
    if (HasFatalFailure()) return;
  }
}

TEST(HistogramDifferential, QuantileSinceMatchesMapReference) {
  std::mt19937_64 rng = seeded_rng("QuantileSinceMatchesMapReference");
  for (int trial = 0; trial < 200; ++trial) {
    Pair p;
    const bool wide = trial % 10 == 2;
    const int steps = 1 + static_cast<int>(rng() % 6);
    std::vector<Pair> copies;
    for (int s = 0; s < steps; ++s) {
      copies.push_back(p);
      const int n = static_cast<int>(rng() % 200);
      for (int i = 0; i < n; ++i) p.record(draw(rng, wide));
      if (rng() % 4 == 0) {
        // Windows also see merged-in traffic (the sharded fold).
        Pair other;
        for (int i = 0; i < 50; ++i) other.record(draw(rng, wide));
        p.merge_from(other);
      }
    }
    for (const Pair& then : copies) {
      expect_window_agrees(p, then);
      if (HasFatalFailure()) return;
    }
    expect_window_agrees(p, p);  // Empty window.
  }
}

// The array spans the lowest to the highest bucket seen; the memory
// bound is kSubBuckets counters per binade spanned.
TEST(HistogramDifferential, FullExponentRangeStaysExact) {
  std::printf("[   SEED   ] FullExponentRangeStaysExact seed=none\n");
  Pair p;
  for (int e = -1074; e <= 1023; e += 7) p.record(std::ldexp(1.0, e));
  p.record(std::numeric_limits<double>::max());
  expect_agree(p, "2^-1074 .. DBL_MAX");
}

}  // namespace
}  // namespace dlte::obs
