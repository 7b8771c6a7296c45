// Fixed-size worker pool. Used by the serving runtime for the disaggregated
// pre/post-processing lanes and by the kernel layer's ParallelFor fan-out.
#ifndef FLASHPS_SRC_COMMON_THREAD_POOL_H_
#define FLASHPS_SRC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/concurrent_queue.h"

namespace flashps {

class ThreadPool {
 public:
  // Every worker is named `name` (a string literal; see SetThreadName).
  explicit ThreadPool(int num_threads, const char* name = "pool");
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task; returns false after Shutdown().
  bool Submit(std::function<void()> task);

  // Drains outstanding tasks and joins the workers. Idempotent.
  void Shutdown();

  // Tasks executed so far (for tests/metrics).
  uint64_t completed() const { return completed_.load(); }

 private:
  void WorkerLoop();

  ConcurrentQueue<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  std::atomic<uint64_t> completed_{0};
  std::atomic<bool> shutdown_{false};
};

}  // namespace flashps

#endif  // FLASHPS_SRC_COMMON_THREAD_POOL_H_
