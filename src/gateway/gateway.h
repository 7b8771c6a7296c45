// Real-concurrency multi-worker serving gateway (the paper's §5 cluster
// frontend, on real threads instead of the virtual clock).
//
// The gateway owns N runtime::OnlineServer workers, publishes a live
// sched::WorkerStatus per worker from their batch snapshots, and dispatches
// every incoming request through a pluggable sched::Router — all five
// RoutePolicy values (round-robin, first-fit, request-count, token-count,
// mask-aware Algorithm 2) run unchanged against wall clocks. It admits,
// routes and records; nothing else:
//
//  - per-request deadlines with SLO admission control: a default SLO is
//    stamped on deadline-less requests, and requests whose best-case drain
//    estimate (sched::LatencyModel, fitted at startup on this host's timed
//    steps) misses their budget are rejected with a distinct status, never
//    silently dropped;
//  - graceful Drain()/Stop() and a lock-protected MetricsRegistry
//    (admission counters, queueing/denoise/post/e2e latency percentiles,
//    SLO attainment, per-worker utilization) exported as JSON.
//
// Open-loop load generators pace their own arrivals and call Submit(). The
// worker a request is routed to hints its template to the shared activation
// source at enqueue (OnlineServer::Submit), so the gateway hints nothing
// itself.
//
// Threads: only the workers' own. A finished request is recorded in the
// metrics and retired on the worker thread that resolves it
// (OnlineServer's completion callback), so its future is ready the moment
// that worker is done, whatever happens to requests submitted before it.
#ifndef FLASHPS_SRC_GATEWAY_GATEWAY_H_
#define FLASHPS_SRC_GATEWAY_GATEWAY_H_

#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/gateway/admission.h"
#include "src/gateway/metrics.h"
#include "src/runtime/online_server.h"
#include "src/sched/scheduler.h"
#include "src/trace/workload.h"

namespace flashps::gateway {

struct GatewayOptions {
  int num_workers = 2;
  // Per-worker server options (every worker gets the same configuration,
  // and with it an identical seeded model — any worker can serve any
  // template).
  runtime::OnlineServer::Options worker;
  sched::RoutePolicy policy = sched::RoutePolicy::kMaskAware;
  // Timing config backing the regression latency model used by mask-aware
  // routing and admission control.
  model::TimingConfig timing = model::TimingConfig::Get(model::ModelKind::kSdxl);
  // Default SLO stamped on requests that carry no deadline; Zero() disables.
  Duration slo = Duration::Zero();
  // When false, deadlines are still stamped and tracked (SLO attainment in
  // the metrics) but no request is rejected up front.
  bool admission_control = true;
  // Cluster-wide waiting-depth cap for deadline-less requests.
  size_t max_queue_depth = std::numeric_limits<size_t>::max();
};

enum class SubmitStatus {
  kAccepted,
  kRejectedSlo,       // Admission control: SLO infeasible.
  kShedOverload,      // Admission control: queue depth cap.
  kRejectedShutdown,  // Gateway stopping/stopped.
};

std::string ToString(SubmitStatus status);

struct SubmitResult {
  SubmitStatus status = SubmitStatus::kRejectedShutdown;
  int worker_id = -1;
  // Best-case wall-clock drain estimate from admission (seconds).
  double estimated_wall_s = 0.0;
  // Valid iff status == kAccepted: the worker's own future. Its
  // completion is in the metrics by the time it is ready.
  std::future<runtime::OnlineResponse> future;

  bool accepted() const { return status == SubmitStatus::kAccepted; }
};

class Gateway {
 public:
  explicit Gateway(GatewayOptions options);
  ~Gateway();

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  // Synchronous dispatch: admission → routing → worker submission. Never
  // throws on shutdown; the outcome is always reported in the result status
  // (and counted in the metrics). When the request is accepted,
  // `on_complete` (if set) runs once on the thread that resolves it, after
  // its completion is in the metrics and before its future is ready: with
  // the response, or with null when the future will hold an exception.
  SubmitResult Submit(runtime::OnlineRequest request,
                      runtime::OnlineServer::OnComplete on_complete = {});

  // Blocks until every accepted request's completion is recorded (each
  // future is ready right after its completion is). The gateway keeps
  // accepting afterwards.
  void Drain();

  // Drain hook for network frontends: stops admitting new requests (every
  // later Submit() reports kRejectedShutdown) while in-flight work keeps
  // running and completes. Follow with Drain() + Stop() for a graceful
  // shutdown sequence. Idempotent; Stop() implies it.
  void StopAccepting();
  bool accepting() const { return accepting_.load(); }

  // Graceful shutdown: stops accepting, drains accepted work and stops the
  // workers. Idempotent.
  void Stop();

  std::vector<sched::WorkerStatus> WorkerStatuses() const;
  MetricsSnapshot Metrics() const;
  // Registry JSON, plus an "activation_source" object when the fleet is
  // configured with a shared source (local or remote cache tier) — so one
  // daemon metrics query reports serving and cache-tier counters together.
  std::string MetricsJson() const;

  int num_workers() const { return static_cast<int>(workers_.size()); }
  const GatewayOptions& options() const { return options_; }
  // The wall-clock-profiled regression model behind routing and admission.
  const sched::LatencyModel& latency_model() const { return latency_model_; }
  // Mean profiled pre+post (non-denoise) cost of one request, seconds.
  double per_request_overhead_s() const { return per_request_overhead_s_; }

 private:
  // Retires one accepted request (inflight_ drops under drain_mu_) and
  // wakes Drain().
  void RetireInflight();
  // Times real denoise steps across the mask-ratio range on worker 0's model
  // and fits the routing/admission regression on the wall-clock samples (the
  // paper's profiling methodology, run against this host's engine). Also
  // times pre/post-processing once to fill per_request_overhead_s_.
  void ProfileHost();

  GatewayOptions options_;
  std::vector<std::unique_ptr<runtime::OnlineServer>> workers_;
  sched::LatencyModel latency_model_;
  // Mean profiled pre+post (non-denoise) cost of one request, seconds.
  double per_request_overhead_s_ = 0.0;
  AdmissionController admission_;
  MetricsRegistry metrics_;

  // Routers keep per-policy state (round-robin cursor, assignment tallies);
  // dispatch serializes on this mutex.
  std::mutex route_mu_;
  std::unique_ptr<sched::Router> router_;

  // Accepted requests not yet completed; each worker's completion callback
  // retires its own. It drops only under drain_mu_, and each drop signals
  // drained_cv_, where Drain() waits.
  std::atomic<uint64_t> inflight_{0};
  std::mutex drain_mu_;
  std::condition_variable drained_cv_;

  // Submissions run under a shared lock; StopAccepting() flips accepting_
  // under the exclusive lock, so no Submit() is mid-dispatch once the flip
  // is visible and the inflight accounting is race-free.
  std::shared_mutex submit_gate_;
  std::atomic<bool> accepting_{true};
  std::atomic<bool> stopped_{false};
  std::mutex stop_mu_;
};

// Converts a generated trace request into a runtime request: the mask ratio
// becomes a connected blob mask on the worker's latent grid.
runtime::OnlineRequest MakeOnlineRequest(const trace::Request& request,
                                         const model::NumericsConfig& numerics,
                                         Rng& rng);

}  // namespace flashps::gateway

#endif  // FLASHPS_SRC_GATEWAY_GATEWAY_H_
