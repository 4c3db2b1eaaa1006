#ifndef PILOTE_COMMON_THREAD_POOL_H_
#define PILOTE_COMMON_THREAD_POOL_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace pilote {

// Fixed-size worker pool used by the tensor kernels. On single-core hosts
// (or num_threads == 1) work is executed inline, so the library has no
// mandatory threading overhead on edge-like machines.
class ThreadPool {
 public:
  // num_threads <= 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Runs fn(i) for i in [0, count), partitioned into contiguous chunks
  // across workers, and blocks until all iterations finish. fn must be
  // safe to call concurrently for distinct i.
  void ParallelFor(int64_t count, const std::function<void(int64_t)>& fn)
      PILOTE_EXCLUDES(mutex_);

  // Same, but hands each worker a [begin, end) range to reduce dispatch
  // overhead for fine-grained loops. The ranges are non-empty, disjoint
  // and cover [0, count) exactly.
  void ParallelForRanges(int64_t count,
                         const std::function<void(int64_t, int64_t)>& fn)
      PILOTE_EXCLUDES(mutex_);

  // Process-wide pool used by tensor ops when no pool is supplied.
  static ThreadPool& Global();

 private:
  void Submit(std::function<void()> task) PILOTE_EXCLUDES(mutex_);
  void WorkerLoop() PILOTE_EXCLUDES(mutex_);

  const int num_threads_;
  std::vector<std::thread> workers_;  // unguarded: set in ctor, joined in dtor
  Mutex mutex_;
  CondVar task_available_;  // unguarded: internally synchronized
  std::queue<std::function<void()>> tasks_ PILOTE_GUARDED_BY(mutex_);
  bool shutting_down_ PILOTE_GUARDED_BY(mutex_) = false;
};

}  // namespace pilote

#endif  // PILOTE_COMMON_THREAD_POOL_H_
