#pragma once

// The pre-timing-wheel scheduler, preserved verbatim (renamed) as the A/B
// baseline for bench_micro_eventqueue: a binary min-heap on (when, id) with
// a tombstone set for lazy cancellation. Kept out of src/ on purpose — the
// simulator no longer uses it; it exists so the bench can put a number on
// the wheel's speedup against the exact seed implementation, and so
// fuzz_wheel_vs_heap has a reference order. Its closure type follows the
// simulator's (sim::EventQueue::Callback).
//
// planck-lint: allow-file(unordered-container) — the seed heap is kept
// verbatim as the reference; its tombstone set is only probed, never
// iterated, so its hash order cannot reach a schedule.

#include <cassert>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace planck::bench {

/// A binary min-heap of timestamped events. Events at the same timestamp
/// pop in insertion order (FIFO). Cancellation is lazy: cancelled entries
/// are skipped when they reach the top of the heap.
class BaselineHeapQueue {
 public:
  using Callback = sim::EventQueue::Callback;
  using EventId = std::uint64_t;

  BaselineHeapQueue() = default;

  EventId push(sim::Time when, Callback cb) {
    const EventId id = next_id_++;
    heap_.push_back(Entry{when, id, std::move(cb)});
    sift_up(heap_.size() - 1);
    return id;
  }

  void cancel(EventId id) {
    if (id == 0 || id >= next_id_) return;
    cancelled_.insert(id);
  }

  bool empty() {
    drop_cancelled_top();
    return heap_.empty();
  }

  sim::Time next_time() {
    drop_cancelled_top();
    assert(!heap_.empty());
    return heap_.front().when;
  }

  Callback pop(sim::Time* when = nullptr) {
    drop_cancelled_top();
    assert(!heap_.empty());
    if (when != nullptr) *when = heap_.front().when;
    Callback cb = std::move(heap_.front().cb);
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return cb;
  }

 private:
  struct Entry {
    sim::Time when;
    EventId id;  // also serves as the FIFO tiebreak (monotonic)
    Callback cb;
  };

  static bool later(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.id > b.id;
  }

  void drop_cancelled_top() {
    while (!heap_.empty() && !cancelled_.empty()) {
      auto it = cancelled_.find(heap_.front().id);
      if (it == cancelled_.end()) return;
      cancelled_.erase(it);
      heap_.front() = std::move(heap_.back());
      heap_.pop_back();
      if (!heap_.empty()) sift_down(0);
    }
  }

  void sift_up(std::size_t i) {
    if (i == 0) return;
    Entry moving = std::move(heap_[i]);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!later(heap_[parent], moving)) break;
      heap_[i] = std::move(heap_[parent]);
      i = parent;
    }
    heap_[i] = std::move(moving);
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    Entry moving = std::move(heap_[i]);
    for (;;) {
      const std::size_t left = 2 * i + 1;
      if (left >= n) break;
      const std::size_t right = left + 1;
      std::size_t smallest = left;
      if (right < n && later(heap_[left], heap_[right])) smallest = right;
      if (!later(moving, heap_[smallest])) break;
      heap_[i] = std::move(heap_[smallest]);
      i = smallest;
    }
    heap_[i] = std::move(moving);
  }

  std::vector<Entry> heap_;
  std::unordered_set<EventId> cancelled_;
  EventId next_id_ = 1;
};

}  // namespace planck::bench
