// A reusable fixed-size worker pool for data-parallel loops.
//
// The executor's operators fan per-document work out over a shared pool
// instead of spawning a fresh std::thread batch per query: threads are
// created once and parked on a condition variable between jobs, so the
// per-query cost is one notify instead of N thread creations.
//
// Work distribution is a work-stealing cursor: ParallelFor publishes the
// half-open index range [0, n) and every worker repeatedly claims the next
// unclaimed index with an atomic fetch-add, so fast workers automatically
// steal the tail of the range from slow ones. The first task returning a
// non-OK Status raises a shared abort flag; workers re-check it before
// claiming another index, so remaining work is dropped promptly and the
// first error becomes ParallelFor's return value.

#ifndef TOSS_COMMON_WORKER_POOL_H_
#define TOSS_COMMON_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace toss {

class WorkerPool {
 public:
  /// Starts `threads` workers (clamped to >= 1). Threads persist until
  /// destruction.
  explicit WorkerPool(size_t threads);

  /// Joins all workers. Must not be called while ParallelFor is running.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  size_t thread_count() const { return threads_.size(); }

  /// Runs fn(0) .. fn(n-1) across the pool and blocks until every claimed
  /// task finished. On the first non-OK return the remaining unclaimed
  /// indexes are abandoned and that first error is returned; with several
  /// concurrent failures the earliest *observed* one wins. A task that
  /// throws is treated as returning Internal -- the exception never
  /// escapes a worker thread and the pool stays usable for later batches.
  /// Not re-entrant: one job at a time per pool (callers serialize).
  Status ParallelFor(size_t n, const std::function<Status(size_t)>& fn);

 private:
  void WorkerMain();

  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;   ///< signals a new job or shutdown
  std::condition_variable done_cv_;   ///< signals all workers left a job
  uint64_t job_seq_ = 0;              ///< bumped per ParallelFor call
  size_t workers_in_job_ = 0;
  bool shutdown_ = false;

  // State of the in-flight job (valid while workers_in_job_ > 0).
  const std::function<Status(size_t)>* fn_ = nullptr;
  size_t n_ = 0;
  std::atomic<size_t> cursor_{0};
  std::atomic<bool> abort_{false};
  Status first_error_;
};

/// Process-wide pool for offline/build-path loops (SEA's pairwise distance
/// scan, bulk loading), lazily created at hardware concurrency and never
/// destroyed (its threads park between jobs). Query execution keeps its own
/// pool (QueryOptions::parallelism); this one is for everything that
/// runs before queries do. Submit work through SharedParallelFor, which
/// serializes concurrent callers -- ParallelFor itself is single-job.
WorkerPool& SharedWorkerPool();

/// ParallelFor on the shared pool, safe to call from multiple threads
/// (jobs queue on an internal mutex). Must not be called from inside a
/// task already running on the shared pool (it would deadlock).
Status SharedParallelFor(size_t n, const std::function<Status(size_t)>& fn);

}  // namespace toss

#endif  // TOSS_COMMON_WORKER_POOL_H_
