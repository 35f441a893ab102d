#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cloudrepro::runtime {

/// Deterministic parallel execution runtime.
///
/// The paper's prescription is *more repetitions* — CONFIRM shows that 70+
/// may be needed for 1% error bounds — and every figure bench sweeps a
/// (workload x budget x repetition) grid. Each repetition is a pure function
/// of its own derived seed, so these grids parallelize embarrassingly
/// *without* sacrificing bit-identical reproducibility: work is scheduled
/// dynamically, results land in pre-assigned slots, and reductions happen in
/// a fixed order on the coordinating thread.

/// Fixed-size worker pool over one mutex-guarded FIFO queue.
///
/// Tasks are campaign measurements (tens of microseconds at least), so one
/// lock per task is far below anything an end-to-end run can see. Several
/// concurrent campaigns can share one pool as a single thread budget
/// (`cloudrepro suite`): every idle worker takes the oldest queued task,
/// whichever campaign submitted it.
///
/// Task execution order across workers is unspecified; callers that need
/// determinism write results into pre-assigned slots.
///
/// Tasks must not let exceptions escape (an escaping exception terminates
/// the process, as with any detached thread); callers that need error
/// propagation capture an std::exception_ptr inside the task — see
/// `run_campaign` — or use `parallel_for_each`, which does this for them.
class ThreadPool {
 public:
  /// Spawns `resolve_thread_count(threads)` workers.
  explicit ThreadPool(int threads = 0);

  /// Drains nothing: joins after the queue empties naturally; pending tasks
  /// submitted before destruction still run.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const noexcept { return thread_count_; }

  /// Enqueues a task for execution by some worker. Callable from any
  /// thread, including this pool's own workers.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void wait_idle();

  /// Maps the user-facing `threads` knob: 0 = hardware concurrency
  /// (at least 1), otherwise the requested count.
  static int resolve_thread_count(int requested) noexcept;

 private:
  void worker_loop();

  const int thread_count_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;  ///< Guarded by mu_.
  std::size_t running_ = 0;                  ///< Tasks executing; guarded by mu_.
  bool stopping_ = false;                    ///< Guarded by mu_.
  std::vector<std::thread> workers_;
};

/// Runs `body(i)` for every i in [0, count) across up to
/// `resolve_thread_count(threads)` threads with dynamic (atomic-counter)
/// scheduling. With an effective thread count of 1 the loop runs inline on
/// the calling thread — the serial reference path.
///
/// Indices are claimed in an unspecified interleaving, so `body` must not
/// depend on cross-index execution order; writing index i's result into a
/// pre-sized slot keeps the overall computation deterministic. The first
/// exception thrown by any `body` invocation stops further index claims and
/// is rethrown on the calling thread after all workers join.
void parallel_for_each(int threads, std::size_t count,
                       const std::function<void(std::size_t)>& body);

}  // namespace cloudrepro::runtime
