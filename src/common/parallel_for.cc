#include "src/common/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>

#include "src/common/thread_pool.h"

namespace flashps {
namespace {

std::atomic<int> g_compute_threads{1};
thread_local int tls_override = 0;
thread_local bool tls_in_parallel_region = false;

int ClampThreads(int n) { return std::clamp(n, 1, kMaxComputeThreads); }

// One shared fan-out pool, created on first parallel dispatch. Workers block
// on the task queue when idle, so an unused pool costs nothing after
// creation; the Meyers-singleton destructor joins them at process exit.
ThreadPool& FanoutPool() {
  static ThreadPool pool(kMaxComputeThreads - 1, "parallel-for");
  return pool;
}

}  // namespace

void SetGlobalComputeThreads(int n) { g_compute_threads.store(ClampThreads(n)); }

int GlobalComputeThreads() { return g_compute_threads.load(); }

ComputeThreadsScope::ComputeThreadsScope(int n) : prev_(tls_override) {
  tls_override = ClampThreads(n);
}

ComputeThreadsScope::~ComputeThreadsScope() { tls_override = prev_; }

int EffectiveComputeThreads() {
  if (tls_in_parallel_region) {
    return 1;  // Nested parallelism runs serial.
  }
  return tls_override > 0 ? tls_override : g_compute_threads.load();
}

void ParallelFor(int64_t n, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& body) {
  if (n <= 0) {
    return;
  }
  grain = std::max<int64_t>(grain, 1);
  const int threads = EffectiveComputeThreads();
  if (threads <= 1 || n <= grain) {
    body(0, n);
    return;
  }

  // Grain-aligned chunking: step is the smallest multiple of `grain` that
  // yields at most `threads` chunks, so chunk boundaries do not move with
  // the thread count (see header contract).
  const int64_t grains = (n + grain - 1) / grain;
  const int64_t chunks64 = std::min<int64_t>(threads, grains);
  const int64_t step = ((grains + chunks64 - 1) / chunks64) * grain;
  const int chunks = static_cast<int>((n + step - 1) / step);
  if (chunks <= 1) {
    body(0, n);
    return;
  }

  std::mutex mu;
  std::condition_variable cv;
  int remaining = chunks - 1;
  ThreadPool& pool = FanoutPool();
  for (int c = 1; c < chunks; ++c) {
    const int64_t begin = static_cast<int64_t>(c) * step;
    const int64_t end = std::min<int64_t>(n, begin + step);
    auto run = [&mu, &cv, &remaining, &body, begin, end] {
      tls_in_parallel_region = true;
      body(begin, end);
      tls_in_parallel_region = false;
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) {
        cv.notify_all();
      }
    };
    if (!pool.Submit(run)) {
      run();  // Pool already shut down (process-exit path): degrade inline.
    }
  }
  tls_in_parallel_region = true;
  body(0, std::min<int64_t>(n, step));
  tls_in_parallel_region = false;
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&remaining] { return remaining == 0; });
}

}  // namespace flashps
