// Contract tests for the event heap: events pop in time order, and equal
// timestamps pop in push order — the explicit tie-break the fault injector
// and the TCP event loop rely on for deterministic replay.

#include "runtime/event_heap.h"

#include <algorithm>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace {

using cloudrepro::runtime::EventHeap;

/// Reference model: a vector kept sorted by time with stable insertion
/// (after every equal timestamp), popped from the front.
class ReferenceQueue {
 public:
  void push(double time, int payload) {
    const auto at = std::upper_bound(
        events_.begin(), events_.end(), time,
        [](double t, const std::pair<double, int>& e) { return t < e.first; });
    events_.insert(at, {time, payload});
  }
  int pop() {
    const int payload = events_.front().second;
    events_.erase(events_.begin());
    return payload;
  }
  double next_time() const {
    return events_.empty() ? std::numeric_limits<double>::infinity()
                           : events_.front().first;
  }
  bool empty() const { return events_.empty(); }

 private:
  std::vector<std::pair<double, int>> events_;
};

TEST(EventHeapTest, EmptyQueueReportsInfiniteNextTime) {
  EventHeap<int> queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.next_time(), std::numeric_limits<double>::infinity());
}

TEST(EventHeapTest, PopsInTimeOrder) {
  EventHeap<int> queue;
  queue.push(3.0, 3);
  queue.push(1.0, 1);
  queue.push(2.0, 2);
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.next_time(), 1.0);
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_EQ(queue.pop(), 3);
  EXPECT_TRUE(queue.empty());
}

TEST(EventHeapTest, EqualTimestampsPopInPushOrder) {
  EventHeap<int> queue;
  for (int i = 0; i < 100; ++i) queue.push(42.0, i);
  queue.push(41.0, -1);
  EXPECT_EQ(queue.pop(), -1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(queue.pop(), i) << "tie-break broke FIFO at element " << i;
  }
}

TEST(EventHeapTest, InterleavedTiesKeepGlobalPushOrder) {
  // Ties interleaved with other times: elements at the tied timestamp must
  // still pop in push order even when pops and pushes alternate.
  EventHeap<int> queue;
  ReferenceQueue reference;
  std::mt19937_64 rng{7};
  std::uniform_int_distribution<int> coin{0, 3};
  int payload = 0;
  for (int step = 0; step < 2000; ++step) {
    const int action = coin(rng);
    if (action == 0 && !queue.empty()) {
      ASSERT_EQ(queue.next_time(), reference.next_time());
      ASSERT_EQ(queue.pop(), reference.pop());
    } else {
      // Coarse times make collisions common.
      const double time = static_cast<double>(rng() % 16);
      queue.push(time, payload);
      reference.push(time, payload);
      ++payload;
    }
  }
  while (!queue.empty()) ASSERT_EQ(queue.pop(), reference.pop());
  EXPECT_TRUE(reference.empty());
}

TEST(EventHeapTest, ReusableAfterDrain) {
  EventHeap<int> queue;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 10; ++i) queue.push(static_cast<double>(10 - i), i);
    for (int i = 9; i >= 0; --i) ASSERT_EQ(queue.pop(), i);
    ASSERT_TRUE(queue.empty());
  }
}

}  // namespace
