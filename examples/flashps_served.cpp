// flashps_served: the FlashPS serving daemon.
//
// Exposes a configured gateway::Gateway on a TCP port speaking the
// src/net wire protocol. Remote clients (net::Client, bench_net_loadgen)
// submit editing requests and receive admission status, per-stage
// latencies, and the output latent checksum; a metrics frame returns the
// gateway's MetricsJson(). SIGINT/SIGTERM triggers a graceful drain:
// stop admitting, finish in-flight requests, flush replies, then exit.
//
// Cache tier, two shapes:
//
//   (none)            — the fleet shares one in-process activation store.
//   --cache-nodes=host:port,host:port,...
//                     — a sharded, replicated cache ring: consistent-hash
//                       placement over every listed node,
//                       --cache-replication=k copies of each template,
//                       per-member circuit breakers, read repair, and
//                       failover down each template's preference list.
//                       One listed node is a ring of one (replication
//                       clamps to 1). Member health is probed at startup
//                       (metrics frame) and visible per member in the
//                       final metrics dump.
//
// Queue-ahead prefetch (--cache-prefetch=N, default 2) starts each
// admitted request's activation fetch while it waits behind earlier work,
// over --cache-connections wire connections per ring member; set
// --cache-prefetch=0 for strictly on-demand fetches.
//
//   flashps_served --port=7411 --workers=2 --steps=8 --max-batch=4
//                  --policy=mask-aware --slo-ms=0 --stats-every-s=10
//                  [--cache-nodes=127.0.0.1:7412,127.0.0.1:7413,127.0.0.1:7414
//                   --cache-replication=2]
//                  [--cache-prefetch=2 --cache-connections=2]
//                  [--cache-precision=lossless|fp16|staged]
//
// --cache-precision picks the codec for records this worker PUBLISHES to
// the remote tier (fetches are self-describing): lossless ships bitwise
// f32, fp16 halves every frame, staged is fp16 for the early denoise
// steps and int8 for the late ones. Set the cache node's own
// --cache-precision at least as lax, or its admit policy rejects the
// puts.
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "src/cache/ring/sharded_store.h"
#include "src/common/flag_parser.h"
#include "src/net/tcp_server.h"
#include "src/trace/workload.h"

using namespace flashps;

namespace {

std::sig_atomic_t g_signal = 0;

void OnSignal(int signum) { g_signal = signum; }

}  // namespace

int main(int argc, char** argv) {
  flags::FlagParser flags(argc, argv);

  gateway::GatewayOptions options;
  options.num_workers = static_cast<int>(
      flags.LongInRange("workers", 2, 1, 256, "gateway worker count"));
  options.worker.numerics = model::NumericsConfig::ForTests();
  options.worker.numerics.num_steps = static_cast<int>(
      flags.LongInRange("steps", 8, 1, 1024, "denoise steps per request"));
  options.worker.max_batch = static_cast<int>(
      flags.LongInRange("max-batch", 4, 1, 256, "max co-batched requests"));
  options.worker.compute_threads = static_cast<int>(flags.LongInRange(
      "compute-threads", 1, 1, 256, "denoise compute threads per worker"));
  options.worker.sparse_compute = flags.Has(
      "sparse-compute",
      "gathered-panel sparse compute: per-step work proportional to the "
      "mask ratio (records cached with K/V, 3x Y-only bytes)");
  const std::vector<std::string> resolution_args = flags.StringList(
      "resolutions",
      "extra latent grids to serve besides the native one, HxW,HxW,... "
      "(requests route by mask grid; needs --sparse-compute for "
      "patch-granular batching)");
  const std::string policy_name =
      flags.String("policy", "mask-aware",
                   "route policy: mask-aware|round-robin|first-fit|"
                   "request-count|token-count");
  const long slo_ms = flags.LongInRange(
      "slo-ms", 0, 0, 1l << 31, "per-request SLO (0 = no admission control)");
  options.slo = Duration::Millis(slo_ms);
  options.admission_control = slo_ms > 0;

  // Cache tier: a ring of cache nodes (one node is a ring of one), or
  // in-process. Either way every worker shares ONE ActivationSource (the
  // shared_ptr is copied into each worker's options) — never a
  // worker-private cache.
  const std::string cache_nodes = flags.String(
      "cache-nodes", "", "cache ring members, HOST:PORT,HOST:PORT,...");
  const int prefetch_workers = static_cast<int>(flags.LongInRange(
      "cache-prefetch", 2, 0, 64, "queue-ahead prefetch depth (0 = off)"));
  const int cache_connections = static_cast<int>(flags.LongInRange(
      "cache-connections", 2, 1, 64, "wire connections per cache node"));
  const int replication = static_cast<int>(flags.LongInRange(
      "cache-replication", 2, 1, 64, "copies of each template on the ring"));
  const std::string precision_name =
      flags.String("cache-precision", "lossless",
                   "published record codec: lossless|fp16|staged");
  const std::string auth_token = flags.String(
      "auth-token", "", "shared secret; refuse unauthenticated sessions");

  net::TcpServerOptions server_options;
  server_options.port = static_cast<uint16_t>(
      flags.LongInRange("port", 7411, 0, 65535, "listen port (0 = ephemeral)"));
  server_options.max_inflight_per_conn = static_cast<int>(flags.LongInRange(
      "max-inflight", 32, 1, 1 << 16, "per-connection in-flight cap"));
  server_options.auth_token = auth_token;
  const long stats_every_s = flags.LongInRange(
      "stats-every-s", 0, 0, 86400, "periodic stats print interval (0 = off)");

  const bool want_help = flags.Has("help", "print this help");
  const std::string usage = flags.HelpText(argv[0]);
  if (want_help) {
    std::fputs(usage.c_str(), stdout);
    return 0;
  }
  if (!flags.ok()) {
    std::fprintf(stderr, "%s%s", flags.ErrorText().c_str(), usage.c_str());
    return 2;
  }
  if (!sched::ParseRoutePolicy(policy_name, &options.policy)) {
    std::fprintf(stderr, "flashps_served: bad --policy=%s\n%s",
                 policy_name.c_str(), usage.c_str());
    return 2;
  }
  quant::PrecisionMode precision = quant::PrecisionMode::kLossless;
  if (!quant::ParsePrecisionMode(precision_name, &precision)) {
    std::fprintf(stderr, "flashps_served: bad --cache-precision=%s\n%s",
                 precision_name.c_str(), usage.c_str());
    return 2;
  }
  for (const std::string& text : resolution_args) {
    int grid_h = 0;
    int grid_w = 0;
    if (!trace::ParseResolution(text, &grid_h, &grid_w)) {
      std::fprintf(stderr, "flashps_served: bad --resolutions entry '%s' "
                   "(expected HxW, e.g. 96x96)\n%s",
                   text.c_str(), usage.c_str());
      return 2;
    }
    options.worker.extra_resolutions.emplace_back(grid_h, grid_w);
  }

  std::string cache_label = "local";
  std::shared_ptr<cache::ShardedRemoteStore> ring_store;
  if (!cache_nodes.empty()) {
    std::string parse_error;
    cache::ShardedStoreOptions sharded;
    sharded.nodes = cache::ParseRingMembers(cache_nodes, &parse_error);
    if (sharded.nodes.empty()) {
      std::fprintf(stderr, "flashps_served: bad --cache-nodes: %s\n%s",
                   parse_error.c_str(), usage.c_str());
      return 2;
    }
    sharded.replication = replication;
    sharded.prefetch_workers = prefetch_workers;
    sharded.connections_per_member = cache_connections;
    sharded.precision = precision;
    sharded.auth_token = auth_token;
    ring_store = std::make_shared<cache::ShardedRemoteStore>(sharded);
    options.worker.activation_source = ring_store;
    cache_label = "ring(" + cache_nodes + ")";
  } else {
    options.worker.activation_source =
        std::make_shared<cache::ActivationStore>();
  }

  std::printf("flashps_served: starting %d worker(s), %d steps, policy %s, "
              "slo %ld ms, cache %s, precision %s, compute %s\n",
              options.num_workers, options.worker.numerics.num_steps,
              policy_name.c_str(), slo_ms, cache_label.c_str(),
              quant::ToString(precision).c_str(),
              options.worker.sparse_compute ? "sparse (gathered)" : "dense");
  if (!options.worker.extra_resolutions.empty()) {
    std::string joined;
    for (const auto& [grid_h, grid_w] : options.worker.extra_resolutions) {
      joined += (joined.empty() ? "" : ",") + std::to_string(grid_h) + "x" +
                std::to_string(grid_w);
    }
    std::printf("flashps_served: extra resolutions %s\n", joined.c_str());
  }
  if (ring_store != nullptr) {
    // One probe per member so a mistyped node shows up at launch, not as
    // a circuit trip minutes in.
    const std::vector<bool> alive = ring_store->ProbeMembers();
    for (size_t i = 0; i < alive.size(); ++i) {
      std::printf("flashps_served: ring member %s: %s\n",
                  ring_store->ring().member(i).id().c_str(),
                  alive[i] ? "alive" : "UNREACHABLE");
    }
  }
  gateway::Gateway gateway(options);
  net::TcpServer server(gateway, server_options);
  if (!server.Start()) {
    std::fprintf(stderr, "flashps_served: cannot listen on port %u\n",
                 server_options.port);
    return 1;
  }
  std::printf("flashps_served: listening on 127.0.0.1:%u\n", server.port());
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  auto last_stats = std::chrono::steady_clock::now();
  while (g_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (stats_every_s > 0 &&
        std::chrono::steady_clock::now() - last_stats >=
            std::chrono::seconds(stats_every_s)) {
      last_stats = std::chrono::steady_clock::now();
      const net::TcpServerStats stats = server.Stats();
      std::printf("flashps_served: conns=%llu frames=%llu responses=%llu "
                  "inflight=%llu\n",
                  static_cast<unsigned long long>(stats.connections_accepted),
                  static_cast<unsigned long long>(stats.frames_received),
                  static_cast<unsigned long long>(stats.responses_sent),
                  static_cast<unsigned long long>(server.inflight()));
      std::fflush(stdout);
    }
  }

  // Graceful drain: refuse new work, finish what is in flight, flush the
  // remaining replies, then tear everything down.
  std::printf("\nflashps_served: signal %d, draining...\n",
              static_cast<int>(g_signal));
  gateway.StopAccepting();
  server.Stop();
  gateway.Drain();
  std::printf("flashps_served: final metrics\n%s\n",
              gateway.MetricsJson().c_str());
  gateway.Stop();
  return 0;
}
