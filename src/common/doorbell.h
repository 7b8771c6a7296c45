// A wake-up line between one waiting thread and any number of ringers.
//
// The waiter reads Epoch(), checks whatever it is waiting for, and only
// then calls Wait(epoch). A Ring() anywhere after that Epoch() read makes
// Wait() return at once, so no wake-up is lost between the check and the
// wait, and nothing ever waits on a timer.
#ifndef FLASHPS_SRC_COMMON_DOORBELL_H_
#define FLASHPS_SRC_COMMON_DOORBELL_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace flashps {

class Doorbell {
 public:
  uint64_t Epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return epoch_;
  }

  void Ring() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++epoch_;
    }
    cv_.notify_all();
  }

  // Blocks until Ring() has been called since Epoch() returned `seen`.
  void Wait(uint64_t seen) const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return epoch_ != seen; });
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  uint64_t epoch_ = 0;  // Guarded by mu_.
};

}  // namespace flashps

#endif  // FLASHPS_SRC_COMMON_DOORBELL_H_
