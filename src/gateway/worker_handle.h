// One gateway-owned worker: a real-concurrency runtime::OnlineServer plus
// the glue that publishes its live load as a sched::WorkerStatus — the same
// snapshot type the virtual-time cluster simulation feeds the routers, so
// every RoutePolicy runs unchanged against wall-clock workers.
#ifndef FLASHPS_SRC_GATEWAY_WORKER_HANDLE_H_
#define FLASHPS_SRC_GATEWAY_WORKER_HANDLE_H_

#include <future>

#include "src/runtime/online_server.h"
#include "src/sched/scheduler.h"

namespace flashps::gateway {

class WorkerHandle {
 public:
  WorkerHandle(int worker_id, runtime::OnlineServer::Options options)
      : worker_id_(worker_id), server_(std::move(options)) {}

  int worker_id() const { return worker_id_; }
  runtime::OnlineServer& server() { return server_; }
  const runtime::OnlineServer& server() const { return server_; }

  std::future<runtime::OnlineResponse> Submit(
      runtime::OnlineRequest request,
      runtime::OnlineServer::OnComplete on_complete) {
    return server_.Submit(std::move(request), std::move(on_complete));
  }

  // Live snapshot in the router's vocabulary.
  sched::WorkerStatus Status() const;

  void Stop() { server_.Stop(); }

 private:
  int worker_id_;
  runtime::OnlineServer server_;
};

}  // namespace flashps::gateway

#endif  // FLASHPS_SRC_GATEWAY_WORKER_HANDLE_H_
