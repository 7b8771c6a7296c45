// Residency of an activation record that a fetch fills in step order on
// another thread: the load half of the paper's Algorithm 1, where step s
// can run as soon as its cache has landed while later steps are still in
// flight.
//
// The writer fills every matrix of step s, then calls Publish(s + 1). A
// reader may touch steps [0, resident()) only: resident() is an acquire
// load paired with Publish()'s release store, so the matrices a reader
// sees are the ones the writer finished. A stream that can no longer
// complete (the transport died, or the node missed a key) is failed: its
// resident steps stay readable, and the rest never land.
#ifndef FLASHPS_SRC_MODEL_RECORD_STREAM_H_
#define FLASHPS_SRC_MODEL_RECORD_STREAM_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/doorbell.h"

namespace flashps::model {

class StepStream {
 public:
  explicit StepStream(int steps) : steps_(steps) {}

  StepStream(const StepStream&) = delete;
  StepStream& operator=(const StepStream&) = delete;

  int resident() const { return resident_.load(std::memory_order_acquire); }
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  // Writer: steps [0, resident) are filled. Never shrinks; rings every
  // watcher.
  void Publish(int resident);
  // Writer: no further step will land. Rings every watcher.
  void Fail();

  // Rings `bell` on every later Publish() or Fail(). A stream that is
  // whole or failed keeps no watchers: nothing more will land. The stream
  // holds the bell weakly, so a watcher may go away first.
  void Watch(const std::shared_ptr<Doorbell>& bell);

  // Blocks until `steps` leading steps are resident or the stream fails;
  // true when they are resident.
  bool AwaitResident(int steps) const;

 private:
  // Under mu_: rings every live watcher, and forgets them all once the
  // stream is settled (whole or failed).
  void RingWatchers();

  const int steps_;
  std::atomic<int> resident_{0};
  std::atomic<bool> failed_{false};
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::vector<std::weak_ptr<Doorbell>> watchers_;  // Guarded by mu_.
};

}  // namespace flashps::model

#endif  // FLASHPS_SRC_MODEL_RECORD_STREAM_H_
