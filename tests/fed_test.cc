// Unit coverage for the federated control plane (src/fed): registry
// health transitions driven by probe outcomes, profile loading from a
// node's MetricsJson splice, the dispatch-path circuit breaker, the
// cross-machine router over NodeSnapshots, and the policy/model plumbing
// the tier shares with src/sched.
//
// Fleet nodes are faked with service-mode TcpServers whose InlineService
// answers metrics queries with a canned MetricsJson — the registry only
// ever reads that frame, so a fake node exercises the real wire path
// (connect, optional auth, metrics round-trip) without spinning gateways.
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/rng.h"
#include "src/fed/fed_gateway.h"
#include "src/fed/fed_router.h"
#include "src/fed/node_registry.h"
#include "src/net/client.h"
#include "src/net/tcp_server.h"
#include "src/sched/latency_model.h"
#include "src/sched/scheduler.h"
#include "src/trace/workload.h"
#include "tests/delayed_frontend.h"

namespace flashps::fed {
namespace {

constexpr char kFakeMetrics[] =
    "{\"submitted\":5,\"completed\":3,"
    "\"latency_model\":{\"compute_slope\":0.0015,"
    "\"compute_intercept\":0.0002,\"compute_r2\":0.99,"
    "\"load_slope\":1e-05,\"load_intercept\":1e-06,\"load_r2\":0.9,"
    "\"per_request_overhead_s\":0.01,\"mask_aware\":true,"
    "\"workers\":2,\"max_batch\":4}}";

// A fake fleet node: answers metrics queries with `json`, rejects
// everything else.
std::unique_ptr<net::TcpServer> StartFakeNode(std::string json,
                                              uint16_t port = 0,
                                              std::string auth_token = "") {
  net::InlineService service = [json](const net::ParsedFrame& frame) {
    net::InlineReply reply;
    if (frame.header.type ==
        static_cast<uint16_t>(net::FrameType::kMetricsQuery)) {
      reply.frame = net::EncodeMetricsReport(frame.header.seq, json);
    } else {
      reply.frame = net::EncodeError(frame.header.seq,
                                     net::WireError::kMalformedPayload,
                                     "fake node only serves metrics");
      reply.close_connection = true;
    }
    return reply;
  };
  net::TcpServerOptions options;
  options.port = port;
  options.auth_token = std::move(auth_token);
  auto server = std::make_unique<net::TcpServer>(service, options);
  EXPECT_TRUE(server->Start());
  return server;
}

// A fake fleet node that answers metrics queries with kFakeMetrics and
// every submit with `status`, without running anything.
std::unique_ptr<net::TcpServer> StartSubmitNode(gateway::SubmitStatus status) {
  net::InlineService service = [status](const net::ParsedFrame& frame) {
    net::InlineReply reply;
    if (frame.type() == net::FrameType::kMetricsQuery) {
      reply.frame = net::EncodeMetricsReport(frame.header.seq, kFakeMetrics);
    } else {
      net::WireResponse response;
      response.status = static_cast<uint8_t>(status);
      reply.frame = net::EncodeSubmitResult(frame.header.seq, response);
    }
    return reply;
  };
  auto server = std::make_unique<net::TcpServer>(service);
  EXPECT_TRUE(server->Start());
  return server;
}

NodeRegistryOptions FastProbeOptions() {
  NodeRegistryOptions options;
  options.probe_interval = std::chrono::milliseconds(50);
  options.probe_timeout = std::chrono::milliseconds(500);
  options.connect_attempts = 1;
  return options;
}

TEST(FedTest, ParseRoutePolicyRoundTripsEveryPolicy) {
  const sched::RoutePolicy all[] = {
      sched::RoutePolicy::kRoundRobin, sched::RoutePolicy::kFirstFit,
      sched::RoutePolicy::kRequestCount, sched::RoutePolicy::kTokenCount,
      sched::RoutePolicy::kMaskAware};
  for (sched::RoutePolicy policy : all) {
    sched::RoutePolicy parsed;
    ASSERT_TRUE(sched::ParseRoutePolicy(sched::ToString(policy), &parsed))
        << sched::ToString(policy);
    EXPECT_EQ(parsed, policy);
  }
  sched::RoutePolicy parsed = sched::RoutePolicy::kFirstFit;
  EXPECT_FALSE(sched::ParseRoutePolicy("bogus", &parsed));
  EXPECT_EQ(parsed, sched::RoutePolicy::kFirstFit);  // Untouched.
}

TEST(FedTest, LatencyModelFromFitsReproducesFittedModel) {
  const model::TimingConfig config =
      model::TimingConfig::Get(model::ModelKind::kSdxl);
  const sched::LatencyModel fitted =
      sched::LatencyModel::FitOffline(config, model::ComputeMode::kMaskAwareY);
  const sched::LatencyModel rebuilt = sched::LatencyModel::FromFits(
      config, model::ComputeMode::kMaskAwareY, fitted.compute_fit(),
      fitted.load_fit());
  const std::vector<double> batches[] = {
      {0.1}, {0.5, 0.3}, {0.9, 0.05, 0.4}};
  for (const std::vector<double>& ratios : batches) {
    EXPECT_EQ(rebuilt.EstimateStepLatency(ratios).micros(),
              fitted.EstimateStepLatency(ratios).micros());
  }
}

TEST(FedTest, JoinLoadsProfileFromMetricsSplice) {
  auto node = StartFakeNode(kFakeMetrics);
  NodeRegistry registry(FastProbeOptions());
  const int index = registry.Join(FedNode{"127.0.0.1", node->port()});

  const NodeInfo info = registry.Info(index);
  EXPECT_EQ(info.health, NodeHealth::kAlive);
  EXPECT_TRUE(info.routable);
  ASSERT_TRUE(info.profile_loaded);
  EXPECT_EQ(info.workers, 2);
  EXPECT_EQ(info.max_batch, 4);
  EXPECT_EQ(registry.capacity(index), 8);
  EXPECT_DOUBLE_EQ(info.per_request_overhead_s, 0.01);
  ASSERT_NE(registry.model(index), nullptr);
  EXPECT_DOUBLE_EQ(registry.model(index)->compute_fit().slope, 0.0015);
  EXPECT_DOUBLE_EQ(registry.model(index)->compute_fit().intercept, 0.0002);
  node->Stop();
}

TEST(FedTest, HealthWalksAliveSuspectDeadAndBack) {
  auto node = StartFakeNode(kFakeMetrics);
  const uint16_t port = node->port();

  NodeRegistryOptions options = FastProbeOptions();
  options.suspect_after = 2;
  options.dead_after = 4;
  NodeRegistry registry(options);
  std::atomic<int> deaths{0};
  std::atomic<int> revivals{0};
  registry.SetOnDead([&](int) { ++deaths; });
  registry.SetOnAlive([&](int) { ++revivals; });

  const int index = registry.Join(FedNode{"127.0.0.1", port});
  EXPECT_EQ(registry.health(index), NodeHealth::kAlive);
  EXPECT_EQ(revivals.load(), 1);  // Suspect -> alive at join.

  node->Stop();
  node.reset();
  registry.ProbeOnce();
  EXPECT_EQ(registry.health(index), NodeHealth::kAlive);  // 1 miss.
  registry.ProbeOnce();
  EXPECT_EQ(registry.health(index), NodeHealth::kSuspect);  // 2 misses.
  EXPECT_TRUE(registry.Routable(index));  // Suspect still routes.
  registry.ProbeOnce();
  registry.ProbeOnce();
  EXPECT_EQ(registry.health(index), NodeHealth::kDead);  // 4 misses.
  EXPECT_FALSE(registry.Routable(index));
  EXPECT_EQ(deaths.load(), 1);
  registry.ProbeOnce();
  EXPECT_EQ(deaths.load(), 1);  // Dead fires once, not per probe.

  // Revival on the same port: the next answered probe resurrects it.
  node = StartFakeNode(kFakeMetrics, port);
  registry.ProbeOnce();
  EXPECT_EQ(registry.health(index), NodeHealth::kAlive);
  EXPECT_TRUE(registry.Routable(index));
  EXPECT_EQ(revivals.load(), 2);
  node->Stop();
}

TEST(FedTest, LeftNodeIsNeitherProbedNorRoutable) {
  auto node = StartFakeNode(kFakeMetrics);
  NodeRegistry registry(FastProbeOptions());
  const int index = registry.Join(FedNode{"127.0.0.1", node->port()});
  EXPECT_TRUE(registry.Routable(index));
  const uint64_t probes_before = registry.Info(index).probes_ok;

  EXPECT_TRUE(registry.Leave(index));
  EXPECT_FALSE(registry.Leave(index));  // Second leave is a no-op.
  EXPECT_FALSE(registry.Routable(index));
  registry.ProbeOnce();
  EXPECT_EQ(registry.Info(index).probes_ok, probes_before);
  node->Stop();
}

TEST(FedTest, DispatchFailuresTripTheCircuitBreaker) {
  NodeRegistryOptions options = FastProbeOptions();
  options.max_consecutive_dispatch_failures = 3;
  options.circuit_cooldown = std::chrono::milliseconds(60000);
  NodeRegistry registry(options);
  // Nothing listens on port 1: the node joins as suspect (still routable).
  const int index = registry.Join(FedNode{"127.0.0.1", 1});
  EXPECT_EQ(registry.health(index), NodeHealth::kSuspect);
  EXPECT_TRUE(registry.Routable(index));

  registry.NoteDispatchFailure(index);
  registry.NoteDispatchFailure(index);
  EXPECT_TRUE(registry.Routable(index));  // Two strikes: still closed.
  registry.NoteDispatchFailure(index);
  EXPECT_FALSE(registry.Routable(index));  // Third opens the circuit.
  EXPECT_TRUE(registry.Info(index).circuit_open);

  registry.NoteDispatchSuccess(index);  // A success closes it again.
  EXPECT_TRUE(registry.Routable(index));
  EXPECT_EQ(registry.Info(index).dispatch_failures, 3u);
}

TEST(FedTest, MembersJsonReportsPerNodeStateAndSplicesMetrics) {
  auto node = StartFakeNode(kFakeMetrics);
  NodeRegistry registry(FastProbeOptions());
  registry.Join(FedNode{"127.0.0.1", node->port()});
  registry.Join(FedNode{"127.0.0.1", 1});  // Unreachable.

  const std::string json = registry.MembersJson();
  EXPECT_NE(json.find("\"id\":\"127.0.0.1:" + std::to_string(node->port()) +
                      "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"health\":\"alive\""), std::string::npos);
  EXPECT_NE(json.find("\"health\":\"suspect\""), std::string::npos);
  // The live node's own MetricsJson rides along; the silent one is null.
  EXPECT_NE(json.find("\"metrics\":{\"submitted\":5"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":null"), std::string::npos);
  node->Stop();
}

TEST(FedTest, RegistryProbesWithAuthWhenNodesRequireIt) {
  auto node = StartFakeNode(kFakeMetrics, 0, "fleet-secret");
  NodeRegistryOptions options = FastProbeOptions();
  NodeRegistry bare(options);
  EXPECT_EQ(bare.health(bare.Join(FedNode{"127.0.0.1", node->port()})),
            NodeHealth::kSuspect);  // Unauthenticated probe is refused.

  options.auth_token = "fleet-secret";
  NodeRegistry authed(options);
  EXPECT_EQ(authed.health(authed.Join(FedNode{"127.0.0.1", node->port()})),
            NodeHealth::kAlive);
  node->Stop();
}

// --- FedRouter ------------------------------------------------------------

NodeSnapshot MakeSnapshot(int node, int capacity,
                          std::vector<double> ratios = {},
                          std::vector<int> steps = {}) {
  NodeSnapshot snap;
  snap.node = node;
  snap.routable = true;
  snap.capacity = capacity;
  snap.outstanding_ratios = std::move(ratios);
  snap.outstanding_steps = std::move(steps);
  return snap;
}

trace::Request MakeRouteRequest(double mask_ratio) {
  trace::Request request;
  request.id = 1;
  request.mask_ratio = mask_ratio;
  request.denoise_steps = 8;
  return request;
}

FedRouter MakeFedRouter(sched::RoutePolicy policy) {
  return FedRouter(policy, model::TimingConfig::Get(model::ModelKind::kSdxl),
                   model::ComputeMode::kMaskAwareY,
                   /*default_overhead_s=*/0.0);
}

TEST(FedTest, RouterReturnsMinusOneWhenNothingIsRoutable) {
  FedRouter router = MakeFedRouter(sched::RoutePolicy::kMaskAware);
  EXPECT_EQ(router.Route(MakeRouteRequest(0.3), {}), -1);
  std::vector<NodeSnapshot> nodes = {MakeSnapshot(0, 4), MakeSnapshot(1, 4)};
  nodes[0].routable = false;
  nodes[1].routable = false;
  EXPECT_EQ(router.Route(MakeRouteRequest(0.3), nodes), -1);
}

TEST(FedTest, RouterSkipsUnroutableNodesUnderEveryPolicy) {
  const sched::RoutePolicy all[] = {
      sched::RoutePolicy::kRoundRobin, sched::RoutePolicy::kFirstFit,
      sched::RoutePolicy::kRequestCount, sched::RoutePolicy::kTokenCount,
      sched::RoutePolicy::kMaskAware};
  for (sched::RoutePolicy policy : all) {
    FedRouter router = MakeFedRouter(policy);
    std::vector<NodeSnapshot> nodes = {MakeSnapshot(0, 4), MakeSnapshot(1, 4),
                                       MakeSnapshot(2, 4)};
    nodes[0].routable = false;
    nodes[2].routable = false;
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(router.Route(MakeRouteRequest(0.2 + 0.1 * i), nodes), 1)
          << sched::ToString(policy);
    }
  }
}

TEST(FedTest, RoundRobinCyclesOverRoutableNodes) {
  FedRouter router = MakeFedRouter(sched::RoutePolicy::kRoundRobin);
  std::vector<NodeSnapshot> nodes = {MakeSnapshot(0, 4), MakeSnapshot(1, 4),
                                     MakeSnapshot(2, 4)};
  nodes[1].routable = false;
  std::vector<int> picks;
  for (int i = 0; i < 4; ++i) {
    picks.push_back(router.Route(MakeRouteRequest(0.3), nodes));
  }
  EXPECT_EQ(picks, (std::vector<int>{0, 2, 0, 2}));
}

TEST(FedTest, MaskAwareAvoidsTheLoadedNode) {
  FedRouter router = MakeFedRouter(sched::RoutePolicy::kMaskAware);
  // Node 0 is buried under heavy-mask work; node 1 idle.
  std::vector<NodeSnapshot> nodes = {
      MakeSnapshot(0, 4, {0.9, 0.9, 0.8}, {50, 50, 50}), MakeSnapshot(1, 4)};
  EXPECT_EQ(router.Route(MakeRouteRequest(0.5), nodes), 1);
  EXPECT_GT(router.CalcCost(MakeRouteRequest(0.5), nodes[0]),
            router.CalcCost(MakeRouteRequest(0.5), nodes[1]));
}

TEST(FedTest, MaskAwareSpreadsNearTiesByAssignmentCount) {
  FedRouter router = MakeFedRouter(sched::RoutePolicy::kMaskAware);
  // Identical idle nodes: every placement is a near-tie, so assignments
  // must spread instead of piling onto node 0.
  std::vector<NodeSnapshot> nodes = {MakeSnapshot(0, 4), MakeSnapshot(1, 4),
                                     MakeSnapshot(2, 4)};
  std::vector<int> count(3, 0);
  for (int i = 0; i < 9; ++i) {
    ++count[static_cast<size_t>(router.Route(MakeRouteRequest(0.3), nodes))];
  }
  EXPECT_EQ(count, (std::vector<int>{3, 3, 3}));
}

TEST(FedTest, ToWorkerStatusSplitsRunningAndWaiting) {
  NodeSnapshot snap = MakeSnapshot(7, 2, {0.1, 0.2, 0.3, 0.4}, {8, 8, 4, 4});
  const sched::WorkerStatus status = FedRouter::ToWorkerStatus(snap);
  EXPECT_EQ(status.worker_id, 7);
  EXPECT_EQ(status.max_batch, 2);
  EXPECT_EQ(status.running_ratios, (std::vector<double>{0.1, 0.2}));
  EXPECT_EQ(status.waiting_ratios, (std::vector<double>{0.3, 0.4}));
  EXPECT_EQ(status.running_remaining_steps, (std::vector<int>{8, 8}));
  EXPECT_EQ(status.remaining_steps, 24);
  EXPECT_FALSE(status.has_slack);
  EXPECT_TRUE(FedRouter::ToWorkerStatus(MakeSnapshot(7, 2, {0.1}, {8}))
                  .has_slack);
}

TEST(FedTest, DrainingNodeRejectionsAreRedispatched) {
  // Node 0 is draining: it answers every submit kRejectedShutdown. The
  // fed must re-route each such ticket to node 1, never pass the
  // rejection through.
  auto draining = StartSubmitNode(gateway::SubmitStatus::kRejectedShutdown);
  auto serving = StartSubmitNode(gateway::SubmitStatus::kAccepted);
  FedGatewayOptions options;
  options.nodes = {FedNode{"127.0.0.1", draining->port()},
                   FedNode{"127.0.0.1", serving->port()}};
  options.policy = sched::RoutePolicy::kRoundRobin;
  options.registry = FastProbeOptions();
  options.connections_per_node = 1;
  FedGateway fed(options);
  fed.Start();

  const model::NumericsConfig numerics = model::NumericsConfig::ForTests();
  Rng rng(3);
  std::vector<std::unique_ptr<net::WireCompletion>> completions;
  for (int i = 0; i < 6; ++i) {
    net::WireRequest request;
    request.request.prompt_seed = 10 + static_cast<uint64_t>(i);
    request.request.mask =
        trace::GenerateBlobMask(numerics.grid_h, numerics.grid_w, 0.3, rng);
    net::WireSubmission sub = fed.Submit(std::move(request));
    ASSERT_TRUE(sub.accepted());
    completions.push_back(std::move(sub.completion));
  }
  for (auto& completion : completions) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!completion->Ready() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(completion->Ready());
    const net::WireResponse response = completion->Take();
    EXPECT_TRUE(response.accepted());
    EXPECT_EQ(response.worker_id, 1);
  }
  const FedGateway::Stats stats = fed.stats();
  EXPECT_EQ(stats.rejected_by_node, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_GE(stats.redispatched, 1u);
  fed.Stop();
}

TEST(FedTest, NodeReplyCrossesTheFedFrontAtOnce) {
  // A node whose completions turn ready 200 ms after submit and notify,
  // behind a FedGateway behind a TcpServer, through a forwarding wrapper
  // (as a tracing decorator sits there). The reply must reach the client
  // within a few ms of the node's completion, with a handful of Ready()
  // calls at either server, not one per 500 µs poll.
  net::stub::DelayedFrontend node_backend(std::chrono::milliseconds(200),
                                          kFakeMetrics);
  net::TcpServer node(node_backend);
  ASSERT_TRUE(node.Start());
  FedGatewayOptions options;
  options.nodes = {FedNode{"127.0.0.1", node.port()}};
  options.registry = FastProbeOptions();
  // Heartbeats wake the node's poll loop too; keep them out of the window.
  options.registry.probe_interval = std::chrono::seconds(5);
  options.connections_per_node = 1;
  FedGateway fed(options);
  fed.Start();
  net::stub::CountingFrontend counted(fed);
  net::TcpServer front(counted);
  ASSERT_TRUE(front.Start());

  net::Client client("127.0.0.1", front.port());
  ASSERT_TRUE(client.Connect());
  net::WireRequest request;
  const model::NumericsConfig numerics = model::NumericsConfig::ForTests();
  Rng rng(5);
  request.request.mask =
      trace::GenerateBlobMask(numerics.grid_h, numerics.grid_w, 0.3, rng);
  const uint64_t seq = client.Send(request);
  ASSERT_NE(seq, 0u);
  const std::optional<net::WireResponse> reply =
      client.Await(seq, std::chrono::milliseconds(10000));
  const auto replied = std::chrono::steady_clock::now();
  ASSERT_TRUE(reply.has_value()) << net::ToString(client.last_error());
  EXPECT_EQ(reply->latent_checksum, 0xD1A7ull);
  EXPECT_LT(replied - node_backend.ready_at(), std::chrono::milliseconds(100));
  EXPECT_LE(node_backend.ready_calls(), 8);
  EXPECT_LE(counted.ready_calls(), 8);
  front.Stop();
  fed.Stop();
  node.Stop();
}

}  // namespace
}  // namespace flashps::fed
