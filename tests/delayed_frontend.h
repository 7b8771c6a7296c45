// Test backends for the reply-by-event contract of WireFrontend: a
// submit's completion becomes ready later, on another thread, which then
// calls the request's notify_ready; every Ready() call is counted, so a
// test can tell a server that waits for the notify from one that polls.
//
//   DelayedFrontend   every accepted submit becomes ready `delay` after
//                     Submit() and notifies.
//   CountingFrontend  forwards Submit() (and with it notify_ready) to
//                     another frontend verbatim and counts Ready() on the
//                     completions it wraps — the shape of a tracing
//                     decorator.
#ifndef FLASHPS_TESTS_DELAYED_FRONTEND_H_
#define FLASHPS_TESTS_DELAYED_FRONTEND_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/net/frontend.h"

namespace flashps::net::stub {

using ReadyClock = std::chrono::steady_clock;

// When the last completion of a frontend became ready.
struct ReadyStamp {
  std::atomic<int64_t> ns{0};
  void Now() {
    ns.store(ReadyClock::now().time_since_epoch().count());
  }
  ReadyClock::time_point Get() const {
    return ReadyClock::time_point(ReadyClock::duration(ns.load()));
  }
};

class DelayedFrontend : public WireFrontend {
 public:
  DelayedFrontend(std::chrono::milliseconds delay, std::string metrics_json)
      : delay_(delay), metrics_json_(std::move(metrics_json)) {}
  ~DelayedFrontend() override {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::thread& t : threads_) {
      t.join();
    }
  }

  WireSubmission Submit(WireRequest request) override {
    auto ready = std::make_shared<std::atomic<bool>>(false);
    std::lock_guard<std::mutex> lock(mu_);
    threads_.emplace_back(
        [this, ready, notify = std::move(request.notify_ready)] {
          std::this_thread::sleep_for(delay_);
          ready_at_.Now();
          ready->store(true);
          if (notify) {
            notify();
          }
        });
    WireSubmission sub;
    sub.status = gateway::SubmitStatus::kAccepted;
    sub.worker_id = 0;
    sub.completion = std::make_unique<Completion>(ready, &ready_calls_);
    return sub;
  }
  std::string MetricsJson() override { return metrics_json_; }

  int ready_calls() const { return ready_calls_.load(); }
  ReadyClock::time_point ready_at() const { return ready_at_.Get(); }

 private:
  class Completion : public WireCompletion {
   public:
    Completion(std::shared_ptr<std::atomic<bool>> ready,
               std::atomic<int>* calls)
        : ready_(std::move(ready)), calls_(calls) {}
    bool Ready() override {
      calls_->fetch_add(1);
      return ready_->load();
    }
    WireResponse Take() override {
      WireResponse response;
      response.worker_id = 0;
      response.latent_checksum = 0xD1A7ull;
      return response;
    }

   private:
    std::shared_ptr<std::atomic<bool>> ready_;
    std::atomic<int>* calls_;
  };

  const std::chrono::milliseconds delay_;
  const std::string metrics_json_;
  std::atomic<int> ready_calls_{0};
  ReadyStamp ready_at_;
  std::mutex mu_;
  std::vector<std::thread> threads_;
};

class CountingFrontend : public WireFrontend {
 public:
  explicit CountingFrontend(WireFrontend& inner) : inner_(inner) {}

  WireSubmission Submit(WireRequest request) override {
    WireSubmission sub = inner_.Submit(std::move(request));
    if (sub.accepted()) {
      sub.completion = std::make_unique<Counted>(std::move(sub.completion),
                                                 &ready_calls_);
    }
    return sub;
  }
  std::string MetricsJson() override { return inner_.MetricsJson(); }

  int ready_calls() const { return ready_calls_.load(); }

 private:
  class Counted : public WireCompletion {
   public:
    Counted(std::unique_ptr<WireCompletion> inner, std::atomic<int>* calls)
        : inner_(std::move(inner)), calls_(calls) {}
    bool Ready() override {
      calls_->fetch_add(1);
      return inner_->Ready();
    }
    WireResponse Take() override { return inner_->Take(); }

   private:
    std::unique_ptr<WireCompletion> inner_;
    std::atomic<int>* calls_;
  };

  WireFrontend& inner_;
  std::atomic<int> ready_calls_{0};
};

}  // namespace flashps::net::stub

#endif  // FLASHPS_TESTS_DELAYED_FRONTEND_H_
