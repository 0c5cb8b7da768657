#include "common/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace grasp::metrics {
namespace {

/// Shortest round-trippable rendering of a double that is also valid in
/// both exposition formats (no inf/nan leaks into JSON).
std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Trim to the shortest form that still round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char probe[64];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
    if (std::strtod(probe, nullptr) == v) {
      return probe;
    }
  }
  return buf;
}

void AppendEscapedLabelValue(std::string* out, std::string_view v) {
  for (char c : v) {
    switch (c) {
      case '\\':
        *out += "\\\\";
        break;
      case '"':
        *out += "\\\"";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        *out += c;
    }
  }
}

/// '{a="b",c="d"}' for the exposition, "" when unlabeled. Doubles as the
/// instance key inside a family.
std::string RenderLabelBlock(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    AppendEscapedLabelValue(&out, v);
    out += '"';
  }
  out += '}';
  return out;
}

/// Splices extra labels (the `le` of a bucket line) into a rendered block.
std::string WithExtraLabel(const std::string& label_block,
                           const std::string& extra) {
  if (label_block.empty()) return "{" + extra + "}";
  std::string out = label_block;
  out.insert(out.size() - 1, "," + extra);
  return out;
}

}  // namespace

int Histogram::BucketFor(std::uint64_t value) {
  if (value < 2 * kSubBuckets) return static_cast<int>(value);
  const int octave = std::bit_width(value) - 1;  // >= kSubBucketBits + 1
  const int shift = octave - kSubBucketBits;
  const auto sub = static_cast<int>((value >> shift) & (kSubBuckets - 1));
  const int bucket =
      static_cast<int>(kSubBuckets) * (shift - 1) + sub + 2 * kSubBuckets;
  return std::min(bucket, kNumBuckets - 1);
}

std::uint64_t Histogram::BucketLowerBound(int i) {
  if (i < static_cast<int>(2 * kSubBuckets)) return static_cast<std::uint64_t>(i);
  const int shift = (i - 2 * static_cast<int>(kSubBuckets)) / kSubBuckets + 1;
  const int sub = (i - 2 * static_cast<int>(kSubBuckets)) % kSubBuckets;
  return (kSubBuckets + static_cast<std::uint64_t>(sub)) << shift;
}

std::uint64_t Histogram::BucketUpperBound(int i) {
  if (i < static_cast<int>(2 * kSubBuckets)) return static_cast<std::uint64_t>(i);
  if (i >= kNumBuckets - 1) return BucketLowerBound(i);  // overflow bucket
  const int shift = (i - 2 * static_cast<int>(kSubBuckets)) / kSubBuckets + 1;
  return BucketLowerBound(i) + (std::uint64_t{1} << shift) - 1;
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot snap;
  for (int i = 0; i < kNumBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.count += snap.buckets[i];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::Snapshot::Merge(const Snapshot& other) {
  for (int i = 0; i < kNumBuckets; ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
}

double Histogram::Snapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const auto rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(p / 100.0 * count)), 1, count);
  std::uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets[i] == 0) continue;
    if (cumulative + buckets[i] >= rank) {
      const auto lower = static_cast<double>(BucketLowerBound(i));
      const auto upper = static_cast<double>(BucketUpperBound(i));
      const auto into = static_cast<double>(rank - cumulative - 1);
      const double span = static_cast<double>(buckets[i] - 1);
      return span > 0.0 ? lower + (upper - lower) * into / span : lower;
    }
    cumulative += buckets[i];
  }
  return static_cast<double>(BucketUpperBound(kNumBuckets - 1));
}

double PercentileOfSorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const auto n = sorted.size();
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n))),
      1, n);
  return sorted[rank - 1];
}

template <typename T>
T* Registry::GetIn(std::map<std::string, Family<T>>* families,
                   std::string_view name, std::string_view help,
                   const Labels& labels, double scale) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [fit, inserted] = families->try_emplace(std::string(name));
  if (inserted) {
    fit->second.help = std::string(help);
    fit->second.scale = scale;
  }
  auto& instances = fit->second.instances;
  const std::string key = RenderLabelBlock(labels);
  auto it = instances.find(key);
  if (it == instances.end()) {
    it = instances.emplace(key, std::make_unique<T>()).first;
  }
  return it->second.get();
}

Counter* Registry::GetCounter(std::string_view name, std::string_view help,
                              const Labels& labels) {
  return GetIn(&counters_, name, help, labels, 1.0);
}

Gauge* Registry::GetGauge(std::string_view name, std::string_view help,
                          const Labels& labels) {
  return GetIn(&gauges_, name, help, labels, 1.0);
}

Histogram* Registry::GetHistogram(std::string_view name, std::string_view help,
                                  const Labels& labels, double scale) {
  return GetIn(&histograms_, name, help, labels, scale);
}

std::string Registry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, family] : counters_) {
    out += "# HELP " + name + " " + family.help + "\n";
    out += "# TYPE " + name + " counter\n";
    for (const auto& [label_block, counter] : family.instances) {
      out += name + label_block + " " + std::to_string(counter->value()) + "\n";
    }
  }
  for (const auto& [name, family] : gauges_) {
    out += "# HELP " + name + " " + family.help + "\n";
    out += "# TYPE " + name + " gauge\n";
    for (const auto& [label_block, gauge] : family.instances) {
      out += name + label_block + " " + FormatDouble(gauge->value()) + "\n";
    }
  }
  for (const auto& [name, family] : histograms_) {
    out += "# HELP " + name + " " + family.help + "\n";
    out += "# TYPE " + name + " histogram\n";
    for (const auto& [label_block, histogram] : family.instances) {
      const auto snap = histogram->TakeSnapshot();
      std::uint64_t cumulative = 0;
      for (int i = 0; i < Histogram::kNumBuckets - 1; ++i) {
        if (snap.buckets[i] == 0) continue;
        cumulative += snap.buckets[i];
        const double le =
            static_cast<double>(Histogram::BucketUpperBound(i)) * family.scale;
        out += name + "_bucket" +
               WithExtraLabel(label_block, "le=\"" + FormatDouble(le) + "\"") +
               " " + std::to_string(cumulative) + "\n";
      }
      out += name + "_bucket" + WithExtraLabel(label_block, "le=\"+Inf\"") +
             " " + std::to_string(snap.count) + "\n";
      out += name + "_sum" + label_block + " " +
             FormatDouble(static_cast<double>(snap.sum) * family.scale) + "\n";
      out += name + "_count" + label_block + " " + std::to_string(snap.count) +
             "\n";
    }
  }
  return out;
}

}  // namespace grasp::metrics
