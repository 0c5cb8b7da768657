// Unit tests for the metrics layer: histogram bucket math round-trips,
// percentile pinning (the p=0 / p=100 / single-sample edges that bit the
// loadgen), multi-writer concurrency against a snapshotting reader (the
// TSan leg runs this), golden Prometheus exposition, and its unbounded
// rendering of many full-width samples.

#include "common/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

namespace grasp::metrics {
namespace {

// ------------------------------------------------------- bucket layout --

TEST(HistogramBuckets, EveryBucketRoundTripsItsOwnBounds) {
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    const std::uint64_t lower = Histogram::BucketLowerBound(i);
    const std::uint64_t upper = Histogram::BucketUpperBound(i);
    EXPECT_EQ(Histogram::BucketFor(lower), i) << "lower of bucket " << i;
    EXPECT_EQ(Histogram::BucketFor(upper), i) << "upper of bucket " << i;
    EXPECT_GE(upper, lower);
  }
}

TEST(HistogramBuckets, BucketsAreContiguousAndExhaustive) {
  // No gaps, no overlaps: each bucket starts one past the previous end
  // (the overflow bucket reports upper == lower, so stop before it).
  for (int i = 0; i + 2 < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketLowerBound(i + 1),
              Histogram::BucketUpperBound(i) + 1)
        << "gap after bucket " << i;
  }
  // Values past the last regular bucket all land in the overflow bucket.
  const std::uint64_t overflow_lower =
      Histogram::BucketLowerBound(Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketFor(overflow_lower), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketFor(~std::uint64_t{0}),
            Histogram::kNumBuckets - 1);
}

TEST(HistogramBuckets, RelativeWidthIsAtMost25Percent) {
  // Buckets 0..7 are exact; every regular log bucket spans at most a
  // quarter of its lower bound, which bounds percentile error.
  for (int i = 8; i + 1 < Histogram::kNumBuckets; ++i) {
    const std::uint64_t lower = Histogram::BucketLowerBound(i);
    const std::uint64_t width = Histogram::BucketUpperBound(i) - lower + 1;
    EXPECT_LE(width * 4, lower) << "bucket " << i;
  }
}

TEST(HistogramBuckets, SmallValuesAreExact) {
  for (std::uint64_t v = 0; v < 8; ++v) {
    const int i = Histogram::BucketFor(v);
    EXPECT_EQ(Histogram::BucketLowerBound(i), v);
    EXPECT_EQ(Histogram::BucketUpperBound(i), v);
  }
}

// --------------------------------------------------------- percentiles --

TEST(HistogramPercentile, EmptySnapshotReportsZero) {
  Histogram h;
  const Histogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.Percentile(0.0), 0.0);
  EXPECT_EQ(snap.Percentile(50.0), 0.0);
  EXPECT_EQ(snap.Percentile(100.0), 0.0);
}

TEST(HistogramPercentile, SingleSampleReportsItsBucketEdgeForEveryP) {
  Histogram h;
  h.Record(100);  // bucket [96, 111]
  const Histogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, 100u);
  for (const double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(snap.Percentile(p), 96.0) << "p=" << p;
  }
}

TEST(HistogramPercentile, ExactBucketsReportExactQuantiles) {
  Histogram h;
  for (std::uint64_t v = 0; v < 8; ++v) h.Record(v);
  const Histogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.Percentile(0.0), 0.0);    // p=0: minimum, never wrapped
  EXPECT_EQ(snap.Percentile(100.0), 7.0);  // p=100: maximum
  EXPECT_EQ(snap.Percentile(50.0), 3.0);   // nearest rank: ceil(4)-th = 3
}

TEST(HistogramPercentile, QuantilesLandWithinOneBucketOfTruth) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  const Histogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 1000u);
  const double p50 = snap.Percentile(50.0);
  const double p99 = snap.Percentile(99.0);
  EXPECT_GE(p50, 500.0 * 0.75);
  EXPECT_LE(p50, 500.0 * 1.25);
  EXPECT_GE(p99, 990.0 * 0.75);
  EXPECT_LE(p99, 990.0 * 1.25);
  // Out-of-range p clamps instead of indexing out of the sample.
  EXPECT_EQ(snap.Percentile(-10.0), snap.Percentile(0.0));
  EXPECT_EQ(snap.Percentile(250.0), snap.Percentile(100.0));
}

TEST(HistogramPercentile, MergeAddsCountsAndSums) {
  Histogram a, b;
  a.Record(10);
  a.Record(20);
  b.Record(1000);
  Histogram::Snapshot merged = a.TakeSnapshot();
  merged.Merge(b.TakeSnapshot());
  EXPECT_EQ(merged.count, 3u);
  EXPECT_EQ(merged.sum, 1030u);
  // 1000 lands in bucket [896, 1023]; a single-sample bucket reports its
  // low edge.
  EXPECT_EQ(merged.Percentile(100.0), 896.0);
}

TEST(PercentileOfSorted, PinsTheEdgeCases) {
  EXPECT_EQ(PercentileOfSorted({}, 50.0), 0.0);

  const std::vector<double> one = {5.0};
  EXPECT_EQ(PercentileOfSorted(one, 0.0), 5.0);
  EXPECT_EQ(PercentileOfSorted(one, 50.0), 5.0);
  EXPECT_EQ(PercentileOfSorted(one, 100.0), 5.0);

  const std::vector<double> four = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(PercentileOfSorted(four, 0.0), 1.0);  // rank clamps to 1, not 0
  EXPECT_EQ(PercentileOfSorted(four, 25.0), 1.0);
  EXPECT_EQ(PercentileOfSorted(four, 50.0), 2.0);
  EXPECT_EQ(PercentileOfSorted(four, 75.0), 3.0);
  EXPECT_EQ(PercentileOfSorted(four, 100.0), 4.0);
  // Out-of-range p clamps instead of wrapping the index.
  EXPECT_EQ(PercentileOfSorted(four, -5.0), 1.0);
  EXPECT_EQ(PercentileOfSorted(four, 500.0), 4.0);
}

// --------------------------------------------------------- concurrency --

TEST(HistogramConcurrency, TotalsAreConservedUnderConcurrentWriters) {
  // Writers hammer one histogram while a reader snapshots continuously.
  // Every snapshot must be internally consistent (count == sum of buckets
  // holds by construction; it must also be monotone), and the final
  // snapshot must conserve every recording. TSan runs this test.
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 50'000;

  Histogram h;
  Counter recorded;
  std::atomic<bool> done{false};

  std::thread reader([&h, &done] {
    std::uint64_t last_count = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const Histogram::Snapshot snap = h.TakeSnapshot();
      std::uint64_t bucket_total = 0;
      for (const std::uint64_t b : snap.buckets) bucket_total += b;
      ASSERT_EQ(snap.count, bucket_total);
      ASSERT_GE(snap.count, last_count) << "count went backwards";
      last_count = snap.count;
      snap.Percentile(99.0);  // must be safe on a moving histogram
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&h, &recorded, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        h.Record((i * 7 + static_cast<std::uint64_t>(w)) % 5'000);
        recorded.Increment();
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  const Histogram::Snapshot final_snap = h.TakeSnapshot();
  EXPECT_EQ(final_snap.count, kWriters * kPerWriter);
  EXPECT_EQ(recorded.value(), kWriters * kPerWriter);
  std::uint64_t expected_sum = 0;
  for (int w = 0; w < kWriters; ++w) {
    for (std::uint64_t i = 0; i < kPerWriter; ++i) {
      expected_sum += (i * 7 + static_cast<std::uint64_t>(w)) % 5'000;
    }
  }
  EXPECT_EQ(final_snap.sum, expected_sum);
}

// ------------------------------------------------------------ registry --

TEST(Registry, GetIsIdempotentAndLabelsSplitInstances) {
  Registry registry;
  Counter* a = registry.GetCounter("grasp_test_total", "help");
  Counter* b = registry.GetCounter("grasp_test_total", "help");
  EXPECT_EQ(a, b);
  Counter* fast =
      registry.GetCounter("grasp_lane_total", "help", {{"lane", "fast"}});
  Counter* deep =
      registry.GetCounter("grasp_lane_total", "help", {{"lane", "deep"}});
  EXPECT_NE(fast, deep);
  EXPECT_EQ(fast,
            registry.GetCounter("grasp_lane_total", "help", {{"lane", "fast"}}));
}

/// Extracts the numeric value of the sample line starting with `prefix`.
double SampleValue(const std::string& exposition, const std::string& prefix) {
  std::size_t pos = 0;
  while ((pos = exposition.find(prefix, pos)) != std::string::npos) {
    if (pos == 0 || exposition[pos - 1] == '\n') {
      const std::size_t sp = exposition.find(' ', pos + prefix.size() - 1);
      if (sp == std::string::npos) break;
      return std::atof(exposition.c_str() + sp + 1);
    }
    pos += prefix.size();
  }
  ADD_FAILURE() << "no sample line starts with: " << prefix;
  return -1.0;
}

TEST(Registry, PrometheusExpositionIsWellFormed) {
  Registry registry;
  registry.GetCounter("grasp_requests_total", "Requests seen")->Increment(3);
  registry.GetGauge("grasp_active", "Active things", {{"kind", "conn"}})
      ->Set(2.5);
  Histogram* h = registry.GetHistogram(
      "grasp_latency_seconds", "Latency", {{"class", "2xx"}}, 1e-6);
  h->Record(100);
  h->Record(100);
  h->Record(5'000'000);  // 5 s in µs

  const std::string text = registry.RenderPrometheus();

  EXPECT_NE(text.find("# HELP grasp_requests_total Requests seen\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE grasp_requests_total counter\n"),
            std::string::npos);
  EXPECT_EQ(SampleValue(text, "grasp_requests_total "), 3.0);

  EXPECT_NE(text.find("# TYPE grasp_active gauge\n"), std::string::npos);
  EXPECT_EQ(SampleValue(text, "grasp_active{kind=\"conn\"} "), 2.5);

  EXPECT_NE(text.find("# TYPE grasp_latency_seconds histogram\n"),
            std::string::npos);
  // _count must equal the +Inf cumulative bucket, always emitted.
  const double count =
      SampleValue(text, "grasp_latency_seconds_count{class=\"2xx\"} ");
  const double inf = SampleValue(
      text, "grasp_latency_seconds_bucket{class=\"2xx\",le=\"+Inf\"} ");
  EXPECT_EQ(count, 3.0);
  EXPECT_EQ(inf, count);
  // _sum is exposed in seconds (scale 1e-6 applied).
  const double sum =
      SampleValue(text, "grasp_latency_seconds_sum{class=\"2xx\"} ");
  EXPECT_NEAR(sum, 5.0002, 1e-9);

  // Cumulative buckets are nondecreasing in exposition order.
  double prev = 0.0;
  std::size_t pos = 0;
  int bucket_lines = 0;
  const std::string bucket_prefix = "grasp_latency_seconds_bucket{";
  while ((pos = text.find(bucket_prefix, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      const std::size_t sp = text.find(' ', pos);
      ASSERT_NE(sp, std::string::npos);
      const double v = std::atof(text.c_str() + sp + 1);
      EXPECT_GE(v, prev) << "cumulative bucket counts decreased";
      prev = v;
      ++bucket_lines;
    }
    pos += bucket_prefix.size();
  }
  EXPECT_GE(bucket_lines, 3);  // two occupied buckets + +Inf at minimum
}

TEST(Registry, LabelValuesAreEscaped) {
  Registry registry;
  registry
      .GetCounter("grasp_esc_total", "h", {{"path", "a\"b\\c\nd"}})
      ->Increment();
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("grasp_esc_total{path=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos)
      << text;
}

TEST(Registry, CountersStayMonotoneAcrossScrapes) {
  Registry registry;
  Counter* c = registry.GetCounter("grasp_mono_total", "h");
  Histogram* h = registry.GetHistogram("grasp_mono_seconds", "h", {}, 1e-6);
  c->Increment(5);
  h->Record(10);
  const std::string first = registry.RenderPrometheus();
  c->Increment(2);
  h->Record(10);
  const std::string second = registry.RenderPrometheus();
  EXPECT_EQ(SampleValue(first, "grasp_mono_total "), 5.0);
  EXPECT_EQ(SampleValue(second, "grasp_mono_total "), 7.0);
  EXPECT_LT(SampleValue(first, "grasp_mono_seconds_count "),
            SampleValue(second, "grasp_mono_seconds_count "));
}

TEST(Registry, ExpositionIsUnboundedAndSurvivesSaturatedCounters) {
  // Regression for an old truncation bug: a renderer with a fixed
  // 1024-byte snprintf buffer silently chopped the output mid-token once
  // enough large counters existed. The registry renderer must emit every
  // sample at full width no matter how many instruments exist.
  Registry registry;
  constexpr std::uint64_t kHuge = ~std::uint64_t{0} / 2;  // 19 digits
  for (int i = 0; i < 40; ++i) {
    registry
        .GetCounter("grasp_very_long_counter_name_for_truncation_" +
                        std::to_string(i),
                    "h")
        ->Increment(kHuge + static_cast<std::uint64_t>(i));
  }
  registry.GetHistogram("grasp_json_seconds", "h", {}, 1e-6)->Record(123);

  const std::string out = registry.RenderPrometheus();
  EXPECT_GT(out.size(), 1024u) << "not past the old truncation point";
  for (int i = 0; i < 40; ++i) {
    const std::string sample = "grasp_very_long_counter_name_for_truncation_" +
                               std::to_string(i) + " " +
                               std::to_string(kHuge + i) + "\n";
    EXPECT_NE(out.find(sample), std::string::npos) << sample;
  }
  EXPECT_NE(out.find("grasp_json_seconds_count 1\n"), std::string::npos)
      << out.substr(out.size() - 200);
}

}  // namespace
}  // namespace grasp::metrics
