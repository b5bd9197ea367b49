// A minimal fixed-size thread pool used by the measurement runner.
//
// Work items are type-erased std::function<void()>; submit() returns a
// std::future for the callable's result.  The pool joins in its destructor
// after draining the queue (tasks submitted before destruction all run).
//
// Two bulk dispatchers are provided:
//   parallel_for         — static chunking: the index range is cut into
//                          O(workers) contiguous chunks up front.  Cheap, but
//                          one slow chunk leaves the other workers idle.
//   parallel_for_dynamic — an atomic ticket: every worker pulls the next
//                          index the moment it finishes the previous one, so
//                          skewed workloads balance automatically.  Both can
//                          fill a ParallelStats with per-worker telemetry.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace mlaas {

/// Per-worker telemetry of one parallel_for / parallel_for_dynamic call.
struct ParallelStats {
  /// Wall seconds each worker spent inside the callable (index = worker).
  std::vector<double> busy_seconds;
  /// Items each worker executed.
  std::vector<std::size_t> items;
  /// Dynamic dispatch only: items executed by a different worker than the
  /// one a static contiguous partition would have assigned them to — how
  /// much work the ticket moved off overloaded workers.  Always 0 for
  /// parallel_for.
  std::size_t stolen = 0;
  /// Wall seconds of the whole dispatch (submission to last completion).
  double makespan_seconds = 0.0;
};

class ThreadPool {
 public:
  /// Defensive ceiling on the worker count: thread handles cost real memory
  /// and a request this large is always a bug (e.g. a negative count pushed
  /// through a size_t cast), never a machine.
  static constexpr std::size_t kMaxThreads = 1024;

  /// n_threads == 0 means hardware_concurrency (at least 1).  Throws
  /// std::invalid_argument for n_threads > kMaxThreads.
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mu_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after shutdown");
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run fn(i) for i in [0, n) across the pool and wait for completion.
  /// Static chunking; on an exception every other index still runs to
  /// completion before the first exception is rethrown.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    ParallelStats* stats = nullptr);

  /// Run fn(i) for i in [0, n) with dynamic dispatch: one runner per worker,
  /// each pulling the next index off a shared atomic ticket.  Indices are
  /// claimed in ascending order but may execute concurrently and finish in
  /// any order.  On an exception, workers stop claiming new indices
  /// (in-flight ones finish) and the first exception is rethrown.
  void parallel_for_dynamic(std::size_t n, const std::function<void(std::size_t)>& fn,
                            ParallelStats* stats = nullptr);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace mlaas
