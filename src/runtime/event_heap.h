#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

namespace cloudrepro::runtime {

/// Min-heap event queue keyed on (time, push sequence).
///
/// Equal timestamps pop in push order, so the pop sequence is a pure
/// function of the push sequence — the property the fault injector and the
/// TCP event loop rely on for deterministic replay.
///
/// Not thread-safe: one queue per simulation.
template <typename T>
class EventHeap {
 public:
  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// Timestamp of the earliest event; +infinity when empty.
  double next_time() const noexcept {
    return heap_.empty() ? std::numeric_limits<double>::infinity()
                         : heap_.top().time;
  }

  void push(double time, T value) {
    heap_.push(Entry{time, next_seq_++, std::move(value)});
  }

  /// Removes and returns the earliest event (FIFO among equal timestamps).
  /// Undefined when empty — guard with `empty()` / `next_time()`.
  T pop() {
    // top() is const; the entry is discarded by the pop() right after, so
    // moving its payload out first is safe.
    T out = std::move(const_cast<Entry&>(heap_.top()).value);
    heap_.pop();
    return out;
  }

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    T value;
    bool operator>(const Entry& other) const noexcept {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace cloudrepro::runtime
