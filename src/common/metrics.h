#ifndef GRASP_COMMON_METRICS_H_
#define GRASP_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace grasp::metrics {

/// Dependency-free metrics primitives for the serving stack. Design goals,
/// in order:
///
///  1. The hot path is wait-free: Record()/Increment()/Set() are a handful
///     of relaxed atomic RMWs, safe from any thread, never taking a lock —
///     a query must never stall on observability.
///  2. Reads are safe any time: snapshots are taken with relaxed loads and
///     are internally consistent where it matters (a histogram's count is
///     *derived* from its bucket sums, so cumulative bucket counts, the
///     +Inf bucket, and _count can never disagree within one scrape).
///  3. Exposition is first-class: the Registry renders the Prometheus text
///     format (HELP/TYPE, labels, cumulative le buckets) on std::string —
///     no fixed buffers, no silent truncation no matter how large the
///     counters grow.
///
/// Everything registered lives for the Registry's lifetime; Get* returns
/// stable pointers that callers cache once and hammer lock-free forever.

/// Monotonic counter. Increment-only by contract (Prometheus "counter");
/// nothing enforces it beyond the API surface.
class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time value (Prometheus "gauge"). Double-valued so derived
/// figures (EWMA rates) fit alongside integral ones (connection counts).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double d) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket log-scale histogram over non-negative integer samples
/// (latencies are recorded in microseconds; the Registry applies a unit
/// scale at exposition time).
///
/// Bucket layout (HDR-style log2 with 4 linear sub-buckets per octave):
/// values below 8 get exact unit buckets; a value v >= 8 with highest set
/// bit o lands in one of four equal sub-buckets of [2^o, 2^(o+1)). The
/// relative bucket width is therefore at most 25%, and percentile
/// extraction interpolates inside the bucket, so a reported quantile is
/// deterministic and within one sub-bucket of the true sample quantile.
/// The last bucket absorbs overflow (values past ~469 seconds in µs).
///
/// Record() is wait-free: one fetch_add on the bucket and one on the value
/// sum. Snapshots are mergeable across histograms with the same layout
/// (there is only one layout), so labeled series of one family can be
/// summed into a single distribution.
class Histogram {
 public:
  static constexpr int kSubBucketBits = 2;           // 4 sub-buckets/octave
  static constexpr std::uint64_t kSubBuckets = 1u << kSubBucketBits;
  static constexpr int kNumBuckets = 112;            // incl. overflow bucket

  /// Bucket index for `value`; the top bucket absorbs overflow.
  static int BucketFor(std::uint64_t value);
  /// Inclusive [lower, upper] sample range of bucket `i`. The overflow
  /// bucket reports upper == lower (its true upper bound is unknown).
  static std::uint64_t BucketLowerBound(int i);
  static std::uint64_t BucketUpperBound(int i);

  /// Point-in-time copy of a histogram. `count` is derived from the bucket
  /// array, so it always equals the +Inf cumulative count; `sum` is read
  /// separately and may lag in-flight recordings by a few samples.
  struct Snapshot {
    std::array<std::uint64_t, kNumBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    void Merge(const Snapshot& other);

    /// Quantile extraction, p in [0, 100] (clamped). Nearest-rank walk of
    /// the cumulative buckets, linearly interpolated across the samples
    /// inside the bucket. p=0 is the low edge of the first occupied
    /// bucket, p=100 the high edge of the last (its low edge when that
    /// bucket holds a single sample); empty snapshots report 0.
    double Percentile(double p) const;
  };

  void Record(std::uint64_t value) {
    buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }
  /// Convenience for duration samples: clamps negatives to 0 and rounds.
  void RecordMicros(double micros) {
    Record(micros <= 0.0 ? 0 : static_cast<std::uint64_t>(micros + 0.5));
  }

  Snapshot TakeSnapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

/// Nearest-rank percentile of an ascending-sorted sample, p in [0, 100]
/// (clamped — p=0 is the minimum, p=100 the maximum, never a wrapped
/// index). The sole percentile definition for client-side tooling, so the
/// loadgen and the tests cannot drift apart.
double PercentileOfSorted(std::span<const double> sorted, double p);

/// Label set attached to one metric instance, e.g. {{"lane", "fast"}}.
/// Order is preserved in the exposition.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Named metric families with labeled instances. Registration (Get*) takes
/// a mutex and is meant for setup paths; the returned pointers are stable
/// for the Registry's lifetime and are the lock-free hot-path handles.
/// Re-Get-ing the same (name, labels) returns the same instance, so
/// idempotent wiring is safe.
///
/// Histogram families carry a `scale` factor applied to bucket bounds,
/// sums, and percentiles at exposition time (recorded-unit -> exposed
/// unit; latency histograms record µs and expose seconds via scale=1e-6).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(std::string_view name, std::string_view help,
                      const Labels& labels = {});
  Gauge* GetGauge(std::string_view name, std::string_view help,
                  const Labels& labels = {});
  Histogram* GetHistogram(std::string_view name, std::string_view help,
                          const Labels& labels = {}, double scale = 1.0);

  /// Prometheus text exposition (version 0.0.4): HELP/TYPE per family,
  /// one sample line per instance, histograms as cumulative le buckets
  /// (empty buckets elided; +Inf, _sum, _count always present).
  std::string RenderPrometheus() const;

 private:
  template <typename T>
  struct Family {
    std::string help;
    double scale = 1.0;  // used by histogram families only
    /// Keyed by the rendered label block ('{a="b",c="d"}' or ""), which is
    /// also exactly what the exposition emits.
    std::map<std::string, std::unique_ptr<T>> instances;
  };

  template <typename T>
  T* GetIn(std::map<std::string, Family<T>>* families, std::string_view name,
           std::string_view help, const Labels& labels, double scale);

  mutable std::mutex mutex_;
  std::map<std::string, Family<Counter>> counters_;
  std::map<std::string, Family<Gauge>> gauges_;
  std::map<std::string, Family<Histogram>> histograms_;
};

}  // namespace grasp::metrics

#endif  // GRASP_COMMON_METRICS_H_
