#include "serve/slow_query_log.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace grasp::serve {
namespace {

bool Slower(const SlowQueryLog::Entry& a, const SlowQueryLog::Entry& b) {
  return a.total_millis > b.total_millis;
}

// Local JSON string escaper: the net layer sits above serve, so serve
// cannot reach for net's JSON helpers without inverting the stack.
void AppendEscaped(std::string* out, const std::string& text) {
  for (char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void AppendMillisField(std::string* out, const char* name, double millis) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), ",\"%s\":%.3f", name, millis);
  *out += buf;
}

}  // namespace

void SlowQueryLog::Record(Entry entry) {
  if (capacity_ == 0) return;
  // Wait-free rejection: strictly-not-slower than the current floor can
  // never displace a heap entry. The floor only grows, so a stale read
  // merely lets a borderline query take the lock and lose there.
  if (entry.total_millis <= floor_millis_.load(std::memory_order_relaxed) &&
      heap_full_.load(std::memory_order_relaxed)) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (heap_.size() < capacity_) {
    heap_.push_back(std::move(entry));
    std::push_heap(heap_.begin(), heap_.end(), Slower);
    if (heap_.size() == capacity_) {
      floor_millis_.store(heap_.front().total_millis,
                          std::memory_order_relaxed);
      heap_full_.store(true, std::memory_order_relaxed);
    }
    return;
  }
  if (entry.total_millis <= heap_.front().total_millis) return;
  std::pop_heap(heap_.begin(), heap_.end(), Slower);
  heap_.back() = std::move(entry);
  std::push_heap(heap_.begin(), heap_.end(), Slower);
  floor_millis_.store(heap_.front().total_millis, std::memory_order_relaxed);
}

std::vector<SlowQueryLog::Entry> SlowQueryLog::Snapshot() const {
  std::vector<Entry> entries;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entries = heap_;
  }
  std::sort(entries.begin(), entries.end(), Slower);
  return entries;
}

std::string SlowQueryLog::RenderJson() const {
  const auto entries = Snapshot();
  std::string out = "[";
  bool first = true;
  for (const auto& e : entries) {
    if (!first) out += ',';
    first = false;
    out += "{\"sequence\":" + std::to_string(e.sequence);
    out += ",\"keywords\":\"";
    AppendEscaped(&out, e.keywords);
    out += "\",\"lane\":\"";
    AppendEscaped(&out, e.lane);
    out += "\",\"cursor_pops\":" + std::to_string(e.cursor_pops);
    out += ",\"cursors_pruned\":" + std::to_string(e.cursors_pruned);
    out += ",\"stop_reason\":\"";
    AppendEscaped(&out, e.stop_reason);
    out += "\",\"degraded\":";
    out += e.degraded ? "true" : "false";
    AppendMillisField(&out, "queue_millis", e.queue_millis);
    AppendMillisField(&out, "keyword_millis", e.keyword_millis);
    AppendMillisField(&out, "augmentation_millis", e.augmentation_millis);
    AppendMillisField(&out, "exploration_millis", e.exploration_millis);
    AppendMillisField(&out, "mapping_millis", e.mapping_millis);
    AppendMillisField(&out, "total_millis", e.total_millis);
    out += '}';
  }
  out += ']';
  return out;
}

}  // namespace grasp::serve
