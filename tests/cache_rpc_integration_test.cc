// Cache-tier integration over loopback:
//
//  1. A worker fleet whose activation source is one shared cache node (a
//     ShardedRemoteStore over a one-member ring) produces latent
//     checksums bitwise-identical to the same requests served by a fleet
//     on the default local store, and the node's hit/miss/byte counters
//     reconcile with the client side's.
//  2. Killing the cache daemon mid-run never fails a request: every
//     submission still completes — via local fallback — with checksums
//     identical to the healthy run.
//  3. A fleet pointed at a node that never existed degrades the same way.
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/cache/ring/sharded_store.h"
#include "src/common/rng.h"
#include "src/gateway/gateway.h"
#include "src/net/cache_node.h"
#include "src/net/tcp_server.h"

namespace flashps::net {
namespace {

constexpr int kNumRequests = 8;
constexpr int kNumTemplates = 3;

// Pulls `"key":<integer>` out of a flat metrics JSON string.
uint64_t JsonCounter(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) {
    return ~0ull;
  }
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

gateway::GatewayOptions FleetOptions() {
  gateway::GatewayOptions options;
  options.num_workers = 2;
  options.worker.numerics = model::NumericsConfig::ForTests();
  options.worker.numerics.num_steps = 2;
  options.worker.max_batch = 3;
  options.admission_control = false;
  return options;
}

std::vector<runtime::OnlineRequest> MakeRequests(int count,
                                                 int first_template = 0) {
  const model::NumericsConfig numerics = model::NumericsConfig::ForTests();
  Rng rng(2026);
  std::vector<runtime::OnlineRequest> requests;
  for (int i = 0; i < count; ++i) {
    runtime::OnlineRequest request;
    request.template_id = first_template + i % kNumTemplates;
    request.prompt_seed = 1000 + static_cast<uint64_t>(i);
    request.mask = trace::GenerateBlobMask(numerics.grid_h, numerics.grid_w,
                                           0.1 + 0.05 * i, rng);
    requests.push_back(request);
  }
  return requests;
}

// Runs every request through a fleet configured with `source` (null = the
// default worker-resolved local store) and returns the latent checksums.
std::vector<uint64_t> RunFleet(
    const std::vector<runtime::OnlineRequest>& requests,
    std::shared_ptr<cache::ActivationSource> source) {
  gateway::GatewayOptions options = FleetOptions();
  options.worker.activation_source = std::move(source);
  gateway::Gateway gw(options);
  std::vector<uint64_t> checksums;
  std::vector<std::future<runtime::OnlineResponse>> futures;
  for (const runtime::OnlineRequest& request : requests) {
    gateway::SubmitResult result = gw.Submit(request);
    EXPECT_TRUE(result.accepted());
    futures.push_back(std::move(result.future));
  }
  for (auto& future : futures) {
    checksums.push_back(LatentChecksum(future.get().image));
  }
  gw.Stop();
  return checksums;
}

// One cache node is a one-member ring; replication keeps its default and
// clamps to 1.
cache::ShardedStoreOptions StoreOptionsFor(uint16_t port) {
  cache::ShardedStoreOptions options;
  options.nodes = {{"127.0.0.1", port}};
  options.connect_attempts = 1;
  options.connect_backoff = std::chrono::milliseconds(1);
  return options;
}

TEST(CacheRpcIntegrationTest, RemoteFleetMatchesLocalFleetAndReconciles) {
  CacheNode node;
  TcpServer server(node.Service());
  ASSERT_TRUE(server.Start());

  const std::vector<runtime::OnlineRequest> requests =
      MakeRequests(kNumRequests);
  const std::vector<uint64_t> local = RunFleet(requests, nullptr);

  // --- cold fleet: every template misses, registers, publishes -------------
  auto cold_store = std::make_shared<cache::ShardedRemoteStore>(
      StoreOptionsFor(server.port()));
  const std::vector<uint64_t> cold = RunFleet(requests, cold_store);
  ASSERT_EQ(cold.size(), local.size());
  for (size_t i = 0; i < local.size(); ++i) {
    EXPECT_EQ(cold[i], local[i]) << "request " << i
                                 << ": remote-sourced latent differs";
  }
  const cache::ShardedStoreStats cold_stats = cold_store->Stats();
  EXPECT_EQ(cold_stats.remote_misses,
            static_cast<uint64_t>(kNumTemplates));
  EXPECT_EQ(cold_stats.fallbacks, 0u);
  EXPECT_EQ(cold_stats.puts_ok, static_cast<uint64_t>(kNumTemplates));
  // Requests beyond the unique templates were coalesced or front-served.
  EXPECT_EQ(cold_stats.front_hits + cold_stats.singleflight_waits,
            static_cast<uint64_t>(kNumRequests - kNumTemplates));
  // Client and node byte counters agree.
  CacheNodeStats node_stats = node.Stats();
  EXPECT_EQ(node_stats.bytes_stored, cold_stats.remote_bytes_put);
  EXPECT_EQ(node_stats.puts > 0, true);

  // --- warm fleet: a fresh front fetches whole records remotely ------------
  auto warm_store = std::make_shared<cache::ShardedRemoteStore>(
      StoreOptionsFor(server.port()));
  const std::vector<uint64_t> warm = RunFleet(requests, warm_store);
  for (size_t i = 0; i < local.size(); ++i) {
    EXPECT_EQ(warm[i], local[i]) << "request " << i
                                 << ": warm remote latent differs";
  }
  const cache::ShardedStoreStats warm_stats = warm_store->Stats();
  EXPECT_EQ(warm_stats.remote_hits, static_cast<uint64_t>(kNumTemplates));
  EXPECT_EQ(warm_stats.remote_misses, 0u);
  EXPECT_EQ(warm_stats.local_registrations, 0u);
  EXPECT_EQ(warm_stats.fallbacks, 0u);
  node_stats = node.Stats();
  EXPECT_EQ(node_stats.bytes_served, warm_stats.remote_bytes_fetched);
  EXPECT_EQ(node_stats.fetch_hits,
            warm_stats.remote_hits *
                static_cast<uint64_t>(2 /*steps*/ *
                                      FleetOptions().worker.numerics
                                          .num_blocks));

  server.Stop();
}

TEST(CacheRpcIntegrationTest, PrefetchFleetMatchesLocalAndPrefetchOffBitwise) {
  CacheNode node;
  TcpServer server(node.Service());
  ASSERT_TRUE(server.Start());

  const std::vector<runtime::OnlineRequest> requests =
      MakeRequests(kNumRequests);
  const std::vector<uint64_t> local = RunFleet(requests, nullptr);

  // Prefetch off: this run also publishes every template to the node.
  auto off_store = std::make_shared<cache::ShardedRemoteStore>(
      StoreOptionsFor(server.port()));
  const std::vector<uint64_t> off = RunFleet(requests, off_store);

  // Prefetch on, warm node: the workers' queue-ahead hints load each
  // template before its request reaches admission.
  cache::ShardedStoreOptions on_options = StoreOptionsFor(server.port());
  on_options.prefetch_workers = 2;
  auto on_store = std::make_shared<cache::ShardedRemoteStore>(on_options);
  const std::vector<uint64_t> on = RunFleet(requests, on_store);

  // Pipelining the fetch must not change a single output bit.
  ASSERT_EQ(on.size(), local.size());
  for (size_t i = 0; i < local.size(); ++i) {
    EXPECT_EQ(off[i], local[i]) << "request " << i << " (prefetch off)";
    EXPECT_EQ(on[i], local[i]) << "request " << i << " (prefetch on)";
  }

  const cache::ShardedStoreStats stats = on_store->Stats();
  // The pipeline did real work: hints became wire fetches, and requests
  // were absorbed by them instead of stalling on foreground fetches.
  EXPECT_GE(stats.prefetch_issued, 1u);
  EXPECT_GE(stats.prefetch_coalesced, 1u);
  EXPECT_EQ(stats.prefetch_remote_misses, 0u);  // Node was warm.
  EXPECT_EQ(stats.fallbacks, 0u);
  EXPECT_EQ(stats.remote_misses, 0u);
  // Every Acquire is accounted for exactly once across the ladder.
  EXPECT_EQ(stats.front_hits + stats.singleflight_waits +
                stats.prefetch_coalesced + stats.remote_hits +
                stats.remote_misses + stats.fallbacks,
            static_cast<uint64_t>(kNumRequests));

  server.Stop();
}

TEST(CacheRpcIntegrationTest, PrefetchOnFleetSurvivesKilledNode) {
  auto node = std::make_unique<CacheNode>();
  auto server = std::make_unique<TcpServer>(node->Service());
  ASSERT_TRUE(server->Start());
  const uint16_t port = server->port();
  // The node dies before the fleet sends a byte: every queue-ahead
  // prefetch fails on the wire, and every request must still complete via
  // local fallback with bitwise-identical outputs.
  server->Stop();
  server.reset();
  node.reset();

  const std::vector<runtime::OnlineRequest> requests =
      MakeRequests(kNumRequests);
  const std::vector<uint64_t> reference = RunFleet(requests, nullptr);

  cache::ShardedStoreOptions store_options = StoreOptionsFor(port);
  store_options.prefetch_workers = 2;
  auto store = std::make_shared<cache::ShardedRemoteStore>(store_options);
  const std::vector<uint64_t> degraded = RunFleet(requests, store);

  ASSERT_EQ(degraded.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(degraded[i], reference[i]) << "request " << i;
  }
  const cache::ShardedStoreStats stats = store->Stats();
  EXPECT_EQ(stats.remote_hits, 0u);
  EXPECT_EQ(stats.prefetch_remote_hits, 0u);
  EXPECT_GE(stats.fallbacks, 1u);
  EXPECT_EQ(stats.local_registrations, static_cast<uint64_t>(kNumTemplates));
}

TEST(CacheRpcIntegrationTest, GatewayMetricsCarryActivationSource) {
  CacheNode node;
  TcpServer server(node.Service());
  ASSERT_TRUE(server.Start());

  gateway::GatewayOptions options = FleetOptions();
  auto store = std::make_shared<cache::ShardedRemoteStore>(
      StoreOptionsFor(server.port()));
  options.worker.activation_source = store;
  gateway::Gateway gw(options);
  gateway::SubmitResult result = gw.Submit(MakeRequests(1).front());
  ASSERT_TRUE(result.accepted());
  result.future.get();

  const std::string json = gw.MetricsJson();
  EXPECT_NE(json.find("\"activation_source\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"sharded\""), std::string::npos);
  EXPECT_EQ(JsonCounter(json, "nodes"), 1u);
  EXPECT_EQ(JsonCounter(json, "replication"), 1u);
  EXPECT_EQ(JsonCounter(json, "remote_misses"), 1u);
  EXPECT_NE(json.find("\"prefetch_issued\":"), std::string::npos);

  gw.Stop();
  server.Stop();
}

TEST(CacheRpcIntegrationTest, GatewayHintsEachRequestOnce) {
  CacheNode node;
  TcpServer server(node.Service());
  ASSERT_TRUE(server.Start());

  cache::ShardedStoreOptions store_options = StoreOptionsFor(server.port());
  store_options.prefetch_workers = 1;
  auto store = std::make_shared<cache::ShardedRemoteStore>(store_options);
  gateway::GatewayOptions options = FleetOptions();
  options.worker.activation_source = store;
  gateway::Gateway gw(options);
  gateway::SubmitResult result = gw.Submit(MakeRequests(1).front());
  ASSERT_TRUE(result.accepted());
  result.future.get();

  // The worker hints the request's template once, at enqueue. A second
  // hint for the same request would either find the first one's flight
  // (redundant) or, once that flight missed, start a second fetch.
  const cache::ShardedStoreStats stats = store->Stats();
  EXPECT_EQ(stats.prefetch_issued, 1u);
  EXPECT_EQ(stats.prefetch_redundant, 0u);

  gw.Stop();
  server.Stop();
}

TEST(CacheRpcIntegrationTest, KilledCacheNodeNeverFailsARequest) {
  auto node = std::make_unique<CacheNode>();
  auto server = std::make_unique<TcpServer>(node->Service());
  ASSERT_TRUE(server->Start());
  const uint16_t port = server->port();

  // Reference run on a local fleet: 4 warm templates + 3 post-kill ones.
  std::vector<runtime::OnlineRequest> warm_requests = MakeRequests(4);
  std::vector<runtime::OnlineRequest> late_requests =
      MakeRequests(3, /*first_template=*/100);
  std::vector<runtime::OnlineRequest> all = warm_requests;
  all.insert(all.end(), late_requests.begin(), late_requests.end());
  const std::vector<uint64_t> reference = RunFleet(all, nullptr);

  cache::ShardedStoreOptions store_options = StoreOptionsFor(port);
  store_options.call_timeout = std::chrono::milliseconds(2000);
  auto store = std::make_shared<cache::ShardedRemoteStore>(store_options);
  gateway::GatewayOptions options = FleetOptions();
  options.worker.activation_source = store;
  gateway::Gateway gw(options);

  std::vector<std::future<runtime::OnlineResponse>> futures;
  for (const auto& request : warm_requests) {
    gateway::SubmitResult result = gw.Submit(request);
    ASSERT_TRUE(result.accepted());
    futures.push_back(std::move(result.future));
  }
  // Kill the cache daemon while the fleet may still be mid-flight, then
  // keep submitting: requests for templates the node never saw must all
  // complete via local fallback.
  server->Stop();
  server.reset();
  node.reset();
  for (const auto& request : late_requests) {
    gateway::SubmitResult result = gw.Submit(request);
    ASSERT_TRUE(result.accepted());
    futures.push_back(std::move(result.future));
  }

  ASSERT_EQ(futures.size(), reference.size());
  for (size_t i = 0; i < futures.size(); ++i) {
    const runtime::OnlineResponse response = futures[i].get();
    EXPECT_EQ(LatentChecksum(response.image), reference[i])
        << "request " << i << " diverged after the cache node died";
  }
  // The late templates could not have come from the dead node.
  const cache::ShardedStoreStats stats = store->Stats();
  EXPECT_GE(stats.fallbacks, static_cast<uint64_t>(late_requests.size()));
  EXPECT_EQ(stats.front_hits + stats.singleflight_waits + stats.remote_hits +
                stats.remote_misses + stats.fallbacks,
            static_cast<uint64_t>(futures.size()));
  gw.Stop();
}

TEST(CacheRpcIntegrationTest, NeverReachableNodeDegradesToLocal) {
  // Grab a port nothing listens on: bind an ephemeral server, then stop it.
  uint16_t dead_port = 0;
  {
    CacheNode node;
    TcpServer server(node.Service());
    ASSERT_TRUE(server.Start());
    dead_port = server.port();
    server.Stop();
  }

  const std::vector<runtime::OnlineRequest> requests = MakeRequests(6);
  const std::vector<uint64_t> reference = RunFleet(requests, nullptr);

  cache::ShardedStoreOptions store_options = StoreOptionsFor(dead_port);
  store_options.max_consecutive_failures = 2;
  store_options.degrade_cooldown = std::chrono::hours(1);
  auto store =
      std::make_shared<cache::ShardedRemoteStore>(store_options);
  const std::vector<uint64_t> degraded = RunFleet(requests, store);

  ASSERT_EQ(degraded.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(degraded[i], reference[i]) << "request " << i;
  }
  const cache::ShardedStoreStats stats = store->Stats();
  EXPECT_EQ(stats.fallbacks, static_cast<uint64_t>(kNumTemplates));
  EXPECT_EQ(stats.remote_hits, 0u);
  EXPECT_GE(stats.degrade_trips, 1u);
}

}  // namespace
}  // namespace flashps::net
