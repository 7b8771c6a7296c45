#include "src/common/thread_pool.h"

#include <cassert>

#include "src/common/thread_name.h"

namespace flashps {

ThreadPool::ThreadPool(int num_threads, const char* name) {
  assert(num_threads > 0);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, name] {
      SetThreadName(name);
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(std::function<void()> task) {
  if (shutdown_.load()) {
    return false;
  }
  return tasks_.Push(std::move(task));
}

void ThreadPool::Shutdown() {
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true)) {
    return;
  }
  tasks_.Close();
  for (auto& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    auto task = tasks_.Pop();
    if (!task.has_value()) {
      return;  // Closed and drained.
    }
    (*task)();
    completed_.fetch_add(1);
  }
}

}  // namespace flashps
