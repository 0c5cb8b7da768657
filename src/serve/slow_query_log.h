#ifndef GRASP_SERVE_SLOW_QUERY_LOG_H_
#define GRASP_SERVE_SLOW_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace grasp::serve {

/// Bounded keep-the-N-slowest query log backing `GET /debug/slowz`.
///
/// A latency histogram answers "how slow", but attributing a p99
/// regression needs the offending queries themselves: which keywords, how
/// many cursor pops, which stage ate the time, and why exploration
/// stopped. This keeps exactly the `capacity` slowest queries seen so far
/// by total latency.
///
/// Concurrency: eviction order lives under a mutex (a min-heap on
/// total_millis), but the common case — a query faster than the current
/// N-th slowest — is rejected by a single relaxed atomic load of the
/// heap-floor threshold, so the serving hot path takes the lock only for
/// genuinely slow queries (at most N times per latency regime shift).
class SlowQueryLog {
 public:
  struct Entry {
    std::uint64_t sequence = 0;       // admission order, for dedup/debugging
    std::string keywords;             // space-joined query terms
    std::string lane;                 // "fast" | "deep"
    std::uint64_t cursor_pops = 0;
    std::uint64_t cursors_pruned = 0;  // goal-directed prune (ExplorationStats)
    std::string stop_reason;          // "completed" | "budget" | "deadline" |
                                      // "cancelled"
    bool degraded = false;
    double queue_millis = 0.0;
    double keyword_millis = 0.0;
    double augmentation_millis = 0.0;
    double exploration_millis = 0.0;
    double mapping_millis = 0.0;
    double total_millis = 0.0;        // service time; the eviction key
  };

  explicit SlowQueryLog(std::size_t capacity = 32) : capacity_(capacity) {}

  /// Records `entry` if it ranks among the `capacity` slowest so far.
  void Record(Entry entry);

  /// The retained entries, slowest first.
  std::vector<Entry> Snapshot() const;

  /// Entries as a JSON array (the /debug/slowz body), slowest first.
  std::string RenderJson() const;

 private:
  const std::size_t capacity_;
  /// Lower bound on total_millis required to enter the log. Monotone
  /// non-decreasing once the log is full; 0 while it is not, so every
  /// query is considered until `capacity_` entries exist.
  std::atomic<double> floor_millis_{0.0};
  std::atomic<bool> heap_full_{false};
  mutable std::mutex mutex_;
  std::vector<Entry> heap_;  // min-heap on total_millis
};

}  // namespace grasp::serve

#endif  // GRASP_SERVE_SLOW_QUERY_LOG_H_
