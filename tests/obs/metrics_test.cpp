#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <vector>

namespace dlte::obs {
namespace {

TEST(Counter, IncrementsMonotonically) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAddAndSetMax) {
  Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.set_max(4.0);  // Lower value: ignored.
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.set_max(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST(Gauge, SetMaxFirstValueAlwaysSticks) {
  // Regression: set_max used to compare the first observation against
  // the 0.0 default, silently discarding negative firsts (e.g. a dB
  // margin or a clock skew gauge).
  Gauge g;
  g.set_max(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), -2.5);
  g.set_max(-7.0);  // Lower than the max seen: ignored.
  EXPECT_DOUBLE_EQ(g.value(), -2.5);
  g.set_max(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Gauge, SetMaxAfterSetKeepsMaxSemantics) {
  Gauge g;
  g.set(10.0);
  g.set_max(4.0);
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
}

TEST(Histogram, BasicStatsExact) {
  Histogram h;
  h.record(1.0);
  h.record(2.0);
  h.record(3.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 6.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);
}

TEST(Histogram, EmptyReportsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
}

// The log-linear layout guarantees every bucket's relative width is at
// most 1/kSubBuckets, so a midpoint quantile estimate sits within
// ~1/(2*kSubBuckets) of the true sample quantile.
TEST(Histogram, QuantileAccuracyWithinBucketBound) {
  Histogram h;
  for (int i = 1; i <= 10'000; ++i) {
    h.record(static_cast<double>(i));
  }
  const double tol = 1.0 / Histogram::kSubBuckets;  // 2x midpoint error.
  EXPECT_NEAR(h.p50(), 5000.0, 5000.0 * tol);
  EXPECT_NEAR(h.p90(), 9000.0, 9000.0 * tol);
  EXPECT_NEAR(h.p95(), 9500.0, 9500.0 * tol);
  EXPECT_NEAR(h.p99(), 9900.0, 9900.0 * tol);
}

TEST(Histogram, QuantileAccuracyAcrossMagnitudes) {
  Histogram h;
  // Values spanning nine decades: 1e-3 .. 1e6.
  for (int e = -3; e <= 6; ++e) {
    h.record(std::pow(10.0, e));
  }
  // Ten samples: rank(0.05) = 1 -> smallest sample's bucket.
  EXPECT_NEAR(h.quantile(0.05), 1e-3, 1e-3 / Histogram::kSubBuckets);
  EXPECT_NEAR(h.quantile(1.0), 1e6, 1e6 / Histogram::kSubBuckets);
}

TEST(Histogram, QuantileClampedToObservedRange) {
  Histogram h;
  h.record(100.0);
  // Single sample: every quantile is that sample, not a bucket midpoint
  // outside [min, max].
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 100.0);
  EXPECT_DOUBLE_EQ(h.p50(), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST(Histogram, ZeroAndNegativeShareUnderflowBucket) {
  Histogram h;
  h.record(0.0);
  h.record(-5.0);
  h.record(10.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  // Low quantiles land in the underflow bucket, reported as the observed
  // minimum (negative here).
  EXPECT_DOUBLE_EQ(h.quantile(0.1), -5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
}

TEST(Histogram, NonFiniteSamplesIgnored) {
  Histogram h;
  h.record(std::numeric_limits<double>::quiet_NaN());
  h.record(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 0u);
  h.record(1.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0);
}

TEST(Histogram, QuantileSinceSeesOnlyTrafficAfterBaseline) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(10.0);
  const Histogram baseline = h;  // Snapshot: the SLO window boundary.
  for (int i = 0; i < 100; ++i) h.record(500.0);

  EXPECT_EQ(h.count_since(baseline), 100u);
  // Lifetime p50 straddles both bursts, the windowed p50 is pure 500s.
  EXPECT_NEAR(h.quantile_since(baseline, 0.5), 500.0,
              500.0 / Histogram::kSubBuckets);
  EXPECT_NEAR(h.quantile_since(baseline, 0.99), 500.0,
              500.0 / Histogram::kSubBuckets);
}

TEST(Histogram, QuantileSinceEmptyWindowReportsZero) {
  Histogram h;
  h.record(42.0);
  const Histogram baseline = h;
  EXPECT_EQ(h.count_since(baseline), 0u);
  EXPECT_DOUBLE_EQ(h.quantile_since(baseline, 0.95), 0.0);
}

// quantiles() resolves several ranks in one bucket walk; it must equal
// one quantile() call per q, bit for bit, on seeded random histograms:
// empty, single-sample, with zero and negative (underflow) samples, and
// merged from two.
TEST(Histogram, QuantilesEqualsOneQuantileCallPerQ) {
  constexpr std::uint64_t kSeed = 1814;
  std::printf("[   SEED   ] QuantilesEqualsOneQuantileCallPerQ seed=%llu\n",
              static_cast<unsigned long long>(kSeed));
  std::mt19937_64 rng{kSeed};
  std::uniform_real_distribution<double> unit{0.0, 1.0};
  auto random_histogram = [&](int shape) {
    Histogram h;
    const int n = shape == 1 ? 1 : static_cast<int>(rng() % 400);
    for (int i = 0; i < n; ++i) {
      const double v = std::exp(unit(rng) * 20.0 - 8.0);
      switch (shape) {
        case 2:  // Some zeros.
          h.record(rng() % 4 == 0 ? 0.0 : v);
          break;
        case 3:  // Some negatives.
          h.record(rng() % 3 == 0 ? -v : v);
          break;
        default:
          h.record(v);
      }
    }
    return h;
  };
  for (int trial = 0; trial < 500; ++trial) {
    const int shape = static_cast<int>(rng() % 5);
    Histogram h = random_histogram(shape == 4 ? 3 : shape);
    if (shape == 4) h.merge_from(random_histogram(2));
    if (trial == 0) h = Histogram{};

    std::vector<double> qs = {0.50, 0.95, 0.99};
    if (trial % 2 == 1) {
      qs = {-0.5, 0.0, 1.0, 1.5};
      for (int i = 0; i < 6; ++i) qs.push_back(unit(rng));
      std::sort(qs.begin(), qs.end());
    }
    std::vector<double> got(qs.size());
    h.quantiles(qs, got);
    for (std::size_t i = 0; i < qs.size(); ++i) {
      ASSERT_EQ(got[i], h.quantile(qs[i]))
          << "trial " << trial << " shape " << shape << " q=" << qs[i];
    }
  }
}

TEST(MetricsRegistry, GetOrCreateReturnsStableReferences) {
  MetricsRegistry reg;
  Counter& c = reg.counter("a");
  c.inc();
  // Creating other metrics must not invalidate the first reference
  // (node-based storage) — instrumented components cache these pointers.
  for (int i = 0; i < 100; ++i) {
    reg.counter("n" + std::to_string(i)).inc(0);
  }
  c.inc();
  EXPECT_EQ(reg.counter("a").value(), 2u);
  EXPECT_EQ(reg.size(), 101u);
}

TEST(MetricsRegistry, FindDoesNotCreate) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
  EXPECT_EQ(reg.find_gauge("missing"), nullptr);
  EXPECT_EQ(reg.find_histogram("missing"), nullptr);
  EXPECT_EQ(reg.size(), 0u);
  reg.counter("present").inc(3);
  ASSERT_NE(reg.find_counter("present"), nullptr);
  EXPECT_EQ(reg.find_counter("present")->value(), 3u);
}

TEST(NullSafeHelpers, NoopOnNullptr) {
  inc(nullptr);
  observe(nullptr, 1.0);  // Must not crash.
  set(nullptr, 3.0);
  MetricsRegistry reg;
  Counter* c = &reg.counter("c");
  Gauge* g = &reg.gauge("g");
  Histogram* h = &reg.histogram("h");
  inc(c, 2);
  set(g, 3.0);
  observe(h, 5.0);
  EXPECT_EQ(c->value(), 2u);
  EXPECT_DOUBLE_EQ(g->value(), 3.0);
  EXPECT_EQ(h->count(), 1u);
}

}  // namespace
}  // namespace dlte::obs
