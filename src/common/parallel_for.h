// Intra-op parallelism for the CPU kernel layer: a blocking fan-out/join
// ParallelFor over a shared worker pool, with a thread-count configuration
// that composes with the serving runtime.
//
// Thread count resolution, per calling thread:
//   1. inside a ParallelFor body (worker or caller chunk): always 1 —
//      nested parallelism runs serial, so kernels can call kernels freely;
//   2. an active ComputeThreadsScope on this thread (the denoise thread
//      installs one from OnlineServer::Options::compute_threads);
//   3. the process-wide default from SetGlobalComputeThreads() (1 at start,
//      so nothing parallelizes unless explicitly asked to).
//
// Chunk boundaries are aligned to multiples of `grain` (the last chunk takes
// the remainder).
#ifndef FLASHPS_SRC_COMMON_PARALLEL_FOR_H_
#define FLASHPS_SRC_COMMON_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>

namespace flashps {

// Hard cap on the per-call fan-out width (and the shared pool size).
inline constexpr int kMaxComputeThreads = 16;

// Process-wide default compute-thread count; clamped to
// [1, kMaxComputeThreads]. Thread-safe.
void SetGlobalComputeThreads(int n);
int GlobalComputeThreads();

// RAII thread-local override of the compute-thread count, restoring the
// previous override on destruction. Scopes nest.
class ComputeThreadsScope {
 public:
  explicit ComputeThreadsScope(int n);
  ~ComputeThreadsScope();
  ComputeThreadsScope(const ComputeThreadsScope&) = delete;
  ComputeThreadsScope& operator=(const ComputeThreadsScope&) = delete;

 private:
  int prev_;
};

// The thread count ParallelFor would use if called right now on this thread.
int EffectiveComputeThreads();

// Runs body(begin, end) over a partition of [0, n). Serial fast path (one
// inline body(0, n) call, no pool dispatch) when the effective thread count
// is 1, when n <= grain, or when already inside a ParallelFor body. Blocks
// until every chunk finished; the calling thread executes the first chunk
// itself. `body` must not throw.
void ParallelFor(int64_t n, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& body);

}  // namespace flashps

#endif  // FLASHPS_SRC_COMMON_PARALLEL_FOR_H_
