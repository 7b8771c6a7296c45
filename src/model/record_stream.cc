#include "src/model/record_stream.h"

#include <algorithm>

namespace flashps::model {

void StepStream::RingWatchers() {
  for (const std::weak_ptr<Doorbell>& watcher : watchers_) {
    if (std::shared_ptr<Doorbell> bell = watcher.lock()) {
      bell->Ring();
    }
  }
  if (resident_.load(std::memory_order_relaxed) >= steps_ ||
      failed_.load(std::memory_order_relaxed)) {
    watchers_.clear();
  }
}

void StepStream::Publish(int resident) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (resident <= resident_.load(std::memory_order_relaxed)) {
      return;
    }
    resident_.store(std::min(resident, steps_), std::memory_order_release);
    RingWatchers();
  }
  cv_.notify_all();
}

void StepStream::Fail() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    failed_.store(true, std::memory_order_release);
    RingWatchers();
  }
  cv_.notify_all();
}

void StepStream::Watch(const std::shared_ptr<Doorbell>& bell) {
  std::lock_guard<std::mutex> lock(mu_);
  if (resident_.load(std::memory_order_relaxed) >= steps_ ||
      failed_.load(std::memory_order_relaxed)) {
    return;
  }
  std::erase_if(watchers_, [&](const std::weak_ptr<Doorbell>& watcher) {
    return watcher.expired();
  });
  for (const std::weak_ptr<Doorbell>& watcher : watchers_) {
    if (watcher.lock() == bell) {
      return;
    }
  }
  watchers_.push_back(bell);
}

bool StepStream::AwaitResident(int steps) const {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return resident() >= steps || failed(); });
  return resident() >= steps;
}

}  // namespace flashps::model
