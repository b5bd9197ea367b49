#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>

namespace mlaas {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Index of the executing worker within its pool; set once per worker thread.
// A thread belongs to exactly one pool, so a plain thread_local suffices.
thread_local std::size_t tls_worker_index = 0;

}  // namespace

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads > kMaxThreads) {
    throw std::invalid_argument("ThreadPool: " + std::to_string(n_threads) +
                                " workers requested (max " + std::to_string(kMaxThreads) +
                                "); was a negative count cast to size_t?");
  }
  if (n_threads == 0) {
    n_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this, i] {
      tls_worker_index = i;
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                              ParallelStats* stats) {
  if (stats != nullptr) {
    *stats = ParallelStats{};
    stats->busy_seconds.assign(workers_.size(), 0.0);
    stats->items.assign(workers_.size(), 0);
  }
  if (n == 0) return;
  const auto dispatch_t0 = std::chrono::steady_clock::now();
  // Chunk the index range so a large n costs O(workers) queue entries and
  // futures instead of O(n).  Indices stay in ascending order within a
  // chunk, so fn(i) still observes i monotonically per task.
  const std::size_t chunks = std::min(n, std::max<std::size_t>(1, workers_.size() * 4));
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futs;
  futs.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = c * chunk_size;
    const std::size_t hi = std::min(n, lo + chunk_size);
    if (lo >= hi) break;
    // Telemetry is attributed to the physical worker executing the chunk
    // (each slot is only ever written by its own worker thread).
    futs.push_back(submit([lo, hi, &fn, stats] {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = lo; i < hi; ++i) fn(i);
      if (stats != nullptr) {
        stats->busy_seconds[tls_worker_index] += seconds_since(t0);
        stats->items[tls_worker_index] += hi - lo;
      }
    }));
  }
  // Join every future before surfacing a failure: rethrowing mid-join would
  // destroy `futs` (and let `fn` dangle for chunks still running) while
  // workers are executing them.  First exception wins; later ones are
  // swallowed, matching what a sequential loop would have surfaced.
  std::exception_ptr first;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (stats != nullptr) stats->makespan_seconds = seconds_since(dispatch_t0);
  if (first) std::rethrow_exception(first);
}

void ThreadPool::parallel_for_dynamic(std::size_t n,
                                      const std::function<void(std::size_t)>& fn,
                                      ParallelStats* stats) {
  const std::size_t runners = std::min(n, std::max<std::size_t>(1, workers_.size()));
  if (stats != nullptr) {
    *stats = ParallelStats{};
    stats->busy_seconds.assign(workers_.size(), 0.0);
    stats->items.assign(workers_.size(), 0);
  }
  if (n == 0) return;
  const auto dispatch_t0 = std::chrono::steady_clock::now();

  auto ticket = std::make_shared<std::atomic<std::size_t>>(0);
  auto stop = std::make_shared<std::atomic<bool>>(false);
  std::mutex err_mu;
  std::exception_ptr first;
  std::atomic<std::size_t> stolen{0};

  std::vector<std::future<void>> futs;
  futs.reserve(runners);
  for (std::size_t r = 0; r < runners; ++r) {
    futs.push_back(submit([r, n, runners, ticket, stop, &fn, &err_mu, &first, &stolen,
                           stats] {
      std::size_t local_stolen = 0;
      for (;;) {
        if (stop->load(std::memory_order_relaxed)) break;
        const std::size_t i = ticket->fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        // The worker a static contiguous partition would have given index i.
        const std::size_t owner = i * runners / n;
        if (owner != r) ++local_stolen;
        const auto t0 = std::chrono::steady_clock::now();
        try {
          fn(i);
        } catch (...) {
          {
            std::lock_guard lock(err_mu);
            if (!first) first = std::current_exception();
          }
          stop->store(true, std::memory_order_relaxed);
          if (stats != nullptr) {
            stats->busy_seconds[r] += seconds_since(t0);
            ++stats->items[r];
          }
          break;
        }
        if (stats != nullptr) {
          stats->busy_seconds[r] += seconds_since(t0);
          ++stats->items[r];
        }
      }
      stolen.fetch_add(local_stolen, std::memory_order_relaxed);
    }));
  }
  // Runners catch everything themselves, so these futures cannot throw;
  // join all of them before touching the shared state they write.
  for (auto& f : futs) f.get();
  if (stats != nullptr) {
    stats->stolen = stolen.load();
    stats->makespan_seconds = seconds_since(dispatch_t0);
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace mlaas
