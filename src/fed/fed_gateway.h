// The federated front tier: a net::WireFrontend that fulfils submits by
// proxying them to a fleet of flashps_served nodes over the same wire
// protocol the nodes speak to ordinary clients.
//
// Control plane (NodeRegistry): explicit join/leave, heartbeat probes
// driving alive/suspect/dead, per-node circuit breakers, and per-node
// profiled latency models fetched from each node's MetricsJson at join
// time. Data plane: every accepted submit becomes a Ticket carrying its
// full WireRequest; a router (FedRouter, all five RoutePolicy values)
// assigns it a node, and per-node dispatcher threads — each owning one
// pipelined net::Client connection — drain the node's queue.
//
// Failover: a dispatch that fails in transport (connect refused, timeout,
// mid-call EOF from a killed daemon), or that a draining node answers
// kRejectedShutdown, re-routes the ticket to a sibling, excluding the
// failed node; the registry's on-dead callback re-routes a dead node's
// whole queue at once. Because node outputs are bitwise
// deterministic in (template, mask, seed, numerics) regardless of which
// machine runs them, a re-dispatched request returns the identical latent
// checksum it would have produced on the original node — failover is
// invisible to the client beyond latency. A ticket only fails after
// max_attempts such failures; when no node is routable it parks and is
// flushed by the next on-alive transition. A node's SLO and overload
// rejections pass through to the client.
//
// Replies: Submit() hands the front TcpServer a completion on the
// ticket's promise. A dispatcher (or a failure path: Stop(), max_attempts)
// resolves the ticket and then calls the request's notify_ready, which
// wakes the front's poll thread; no completion is polled on a timer.
//
// MetricsJson() answers with the cluster rollup: federation counters
// under "fed" plus a per-node "members" array (same shape the cache
// ring's members report) with each node's own MetricsJson spliced in.
#ifndef FLASHPS_SRC_FED_FED_GATEWAY_H_
#define FLASHPS_SRC_FED_FED_GATEWAY_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/fed/fed_router.h"
#include "src/fed/node_registry.h"
#include "src/model/timing.h"
#include "src/net/frontend.h"
#include "src/net/wire.h"

namespace flashps::fed {

struct FedGatewayOptions {
  std::vector<FedNode> nodes;
  sched::RoutePolicy policy = sched::RoutePolicy::kMaskAware;
  model::TimingConfig timing = model::TimingConfig::Get(model::ModelKind::kSdxl);
  bool mask_aware = true;
  NodeRegistryOptions registry;
  // Dispatcher threads (= wire connections) per node.
  int connections_per_node = 2;
  // Per-dispatch reply deadline; a node slower than this is a transport
  // failure and the ticket fails over.
  std::chrono::milliseconds call_timeout{30000};
  // Failed dispatches (transport failures and shutdown rejections) before
  // a ticket is failed. 0 = 3 * fleet size.
  int max_attempts = 0;
  // Fallback per-request overhead (seconds) for nodes without a profile.
  double default_overhead_s = 0.0;
  // Shared secret presented to every node.
  std::string auth_token;
};

class FedGateway : public net::WireFrontend {
 public:
  explicit FedGateway(FedGatewayOptions options);
  ~FedGateway() override;

  FedGateway(const FedGateway&) = delete;
  FedGateway& operator=(const FedGateway&) = delete;

  // Joins the configured nodes, starts the heartbeat prober and the
  // dispatcher threads. Call once before serving.
  void Start();
  // Stops accepting new submits; queued/in-flight work keeps draining.
  void StopAccepting();
  // Blocks until no ticket is queued, parked, or in flight. False if the
  // fleet could not drain within `timeout` (e.g. every node dead).
  bool Drain(std::chrono::milliseconds timeout = std::chrono::milliseconds(30000));
  // Stops dispatchers and the prober; fails any leftover tickets.
  void Stop();

  // WireFrontend. Submit is called from the TCP poll thread and must not
  // block on the fleet: it routes (or parks) and returns a completion.
  net::WireSubmission Submit(net::WireRequest request) override;
  std::string MetricsJson() override;

  NodeRegistry& registry() { return registry_; }

  struct Stats {
    uint64_t submitted = 0;
    uint64_t completed = 0;       // Tickets fulfilled with kAccepted.
    uint64_t failed = 0;          // Tickets failed after max_attempts.
    uint64_t redispatched = 0;    // Failover re-routes.
    // Node answered with an SLO or overload rejection (passed through).
    uint64_t rejected_by_node = 0;
    uint64_t parked = 0;          // Currently parked (no routable node).
    uint64_t outstanding = 0;     // Queued + in flight right now.
  };
  Stats stats() const;

 private:
  struct Ticket {
    uint64_t id = 0;
    net::WireRequest request;  // Kept whole for redispatch.
    double mask_ratio = 0.0;
    // The request's latent grid, so routing can token-scale its cost
    // against each node's profiled primary resolution.
    int grid_h = 0;
    int grid_w = 0;
    int denoise_steps = 50;
    int attempts = 0;
    int node = -1;
    std::promise<net::WireResponse> promise;
  };
  using TicketPtr = std::shared_ptr<Ticket>;

  // Routes `ticket` to a node queue, waking one of that node's
  // dispatchers, or parks it. `exclude` = node index to skip (the one that
  // just failed), or -1. Caller holds mu_.
  int RouteTicketLocked(const TicketPtr& ticket, int exclude);
  // Builds the router's fleet view from the registry plus this
  // federation's own outstanding tickets. Caller holds mu_.
  std::vector<NodeSnapshot> SnapshotLocked(int exclude) const;
  // Resolves a ticket with a terminal transport failure. Caller holds mu_.
  void FailTicketLocked(const TicketPtr& ticket);
  // Sets the ticket's reply, then calls its request's notify_ready so the
  // front TcpServer replies at once, and wakes Drain(). Caller holds mu_.
  void Resolve(const TicketPtr& ticket, const net::WireResponse& response);
  void DispatcherLoop(int node);
  void OnNodeDead(int node);
  void OnNodeAlive(int node);
  int max_attempts() const;

  FedGatewayOptions options_;
  NodeRegistry registry_;

  mutable std::mutex mu_;
  FedRouter router_;
  std::vector<std::deque<TicketPtr>> queues_;       // Per node.
  std::vector<std::map<uint64_t, TicketPtr>> inflight_;  // Per node.
  // Per node: its dispatchers wait here for a ticket in its queue, so a
  // routed ticket wakes one dispatcher of its own node.
  std::vector<std::condition_variable> queue_cv_;
  // Drain() waits here; every resolved ticket and Stop() signal it.
  std::condition_variable drained_cv_;
  std::deque<TicketPtr> parked_;
  uint64_t next_id_ = 1;
  bool draining_ = false;
  bool stopped_ = false;
  uint64_t submitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t redispatched_ = 0;
  uint64_t rejected_by_node_ = 0;

  std::vector<std::thread> dispatchers_;
  bool started_ = false;
};

}  // namespace flashps::fed

#endif  // FLASHPS_SRC_FED_FED_GATEWAY_H_
