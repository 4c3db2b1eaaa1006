#include "common/thread_pool.h"

#include <algorithm>

#include "common/macros.h"

namespace pilote {
namespace {

int ResolveNumThreads(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 1;
  }
  return num_threads;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(ResolveNumThreads(num_threads)) {
  // With one logical thread everything runs inline; spawn no workers.
  if (num_threads_ == 1) return;
  workers_.reserve(static_cast<size_t>(num_threads_));
  for (int i = 0; i < num_threads_; ++i) {
    // lifetime-ok: workers are joined in ~ThreadPool before `this` dies
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.NotifyAll();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    tasks_.push(std::move(task));
  }
  task_available_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!shutting_down_ && tasks_.empty()) {
        task_available_.Wait(mutex_);
      }
      if (shutting_down_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelFor(int64_t count,
                             const std::function<void(int64_t)>& fn) {
  ParallelForRanges(count, [&fn](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) fn(i);
  });
}

// hotpath-ok: worker handoff synchronization is the cost of parallel
// dispatch; the queue lock and completion wait are the mechanism.
void ThreadPool::ParallelForRanges(
    int64_t count, const std::function<void(int64_t, int64_t)>& fn) {
  if (count <= 0) return;
  const int64_t max_chunks =
      std::min<int64_t>(count, static_cast<int64_t>(num_threads_));
  if (max_chunks <= 1 || workers_.empty()) {
    fn(0, count);
    return;
  }
  // Rounding chunk_size up can leave fewer non-empty chunks than threads
  // (128 rows on 20 threads is 19 chunks of 7); count only those, so every
  // task gets a non-empty [begin, end).
  const int64_t chunk_size = (count + max_chunks - 1) / max_chunks;
  const int64_t chunks = (count + chunk_size - 1) / chunk_size;

  // The completion latch lives in this frame. Every decrement and the
  // final notify happen under done_mutex, and the caller re-checks
  // `remaining` under the same lock, so it cannot observe 0 (and return,
  // destroying the latch) until the last worker has released the lock —
  // after which that worker touches nothing here. The lock also orders
  // every chunk's writes before ParallelForRanges returns.
  int64_t remaining = chunks;
  Mutex done_mutex;
  CondVar done_cv;

  for (int64_t c = 0; c < chunks; ++c) {
    const int64_t begin = c * chunk_size;
    const int64_t end = std::min(count, begin + chunk_size);
    // lifetime-ok: the caller waits under done_mutex until `remaining` is
    // 0, and each task's last access to this frame is the unlock after its
    // decrement (and notify), so the frame outlives every use
    Submit([&, begin, end] {
      fn(begin, end);
      MutexLock lock(done_mutex);
      if (--remaining == 0) done_cv.NotifyOne();
    });
  }
  MutexLock lock(done_mutex);
  while (remaining != 0) {
    done_cv.Wait(done_mutex);
  }
}

// hotpath-ok: process-lifetime singleton, allocates on first call only
ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

}  // namespace pilote
