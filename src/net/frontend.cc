#include "src/net/frontend.h"

#include <atomic>
#include <memory>
#include <utility>

namespace flashps::net {

namespace {

// One accepted submit's reply, rendered by the worker's completion
// callback and read by the server's poll thread once `ready` is set.
struct GatewayReply {
  std::atomic<bool> ready{false};
  WireResponse response;  // Written before `ready`, read after it.
};

// Readiness is the callback's flag, not the worker's future: the callback
// runs (and notifies) just before the future is set.
class GatewayCompletion : public WireCompletion {
 public:
  GatewayCompletion(int worker_id, int64_t estimated_wall_us,
                    std::shared_ptr<const GatewayReply> reply)
      : worker_id_(worker_id),
        estimated_wall_us_(estimated_wall_us),
        reply_(std::move(reply)) {}

  bool Ready() override {
    return reply_->ready.load(std::memory_order_acquire);
  }

  WireResponse Take() override {
    WireResponse response = reply_->response;
    response.worker_id = worker_id_;
    response.estimated_wall_us = estimated_wall_us_;
    return response;
  }

 private:
  int worker_id_;
  int64_t estimated_wall_us_;
  std::shared_ptr<const GatewayReply> reply_;
};

}  // namespace

WireSubmission GatewayFrontend::Submit(WireRequest request) {
  auto reply = std::make_shared<GatewayReply>();
  // Runs on the thread that resolves the request (a worker's CPU lane),
  // with the response, or with null when the worker died under it.
  auto on_complete = [reply, notify = std::move(request.notify_ready)](
                         const runtime::OnlineResponse* done) {
    WireResponse& response = reply->response;
    if (done != nullptr) {
      response.status = static_cast<uint8_t>(gateway::SubmitStatus::kAccepted);
      response.queueing_us = static_cast<int64_t>(done->queueing_ms() * 1e3);
      response.denoise_us = static_cast<int64_t>(done->denoise_ms() * 1e3);
      response.post_us = static_cast<int64_t>(done->post_ms() * 1e3);
      response.e2e_us = static_cast<int64_t>(done->total_ms() * 1e3);
      response.latent_checksum = LatentChecksum(done->image);
    } else {
      // The worker died under the request (shutdown race).
      response.status =
          static_cast<uint8_t>(gateway::SubmitStatus::kRejectedShutdown);
    }
    reply->ready.store(true, std::memory_order_release);
    if (notify) {
      notify();
    }
  };
  gateway::SubmitResult result =
      gateway_->Submit(std::move(request.request), std::move(on_complete));
  WireSubmission sub;
  sub.status = result.status;
  sub.worker_id = result.worker_id;
  sub.estimated_wall_us = static_cast<int64_t>(result.estimated_wall_s * 1e6);
  if (result.accepted()) {
    sub.completion = std::make_unique<GatewayCompletion>(
        sub.worker_id, sub.estimated_wall_us, std::move(reply));
  }
  return sub;
}

std::string GatewayFrontend::MetricsJson() { return gateway_->MetricsJson(); }

}  // namespace flashps::net
