// flashps_fed: the cluster control plane / federated front tier.
//
// Listens on a TCP port speaking the exact wire protocol flashps_served
// speaks — clients cannot tell a federation from a single node — and
// fulfils every submit by routing it to one of the flashps_served nodes
// named in --nodes. The control plane joins each node at startup (pulling
// its profiled latency model out of its MetricsJson), heartbeats the
// fleet every --probe-interval ms, and fails requests over to siblings
// when a node dies mid-trace; because node outputs are bitwise
// deterministic, the failed-over replies carry the identical latent
// checksums the dead node would have produced.
//
// A metrics frame answers with the cluster rollup: federation counters
// under "fed" plus a per-node "members" array with each node's own
// MetricsJson spliced in — one query reads the whole fleet.
//
//   flashps_fed --port=7410 --nodes=127.0.0.1:7411,127.0.0.1:7421
//               --route=mask-aware --probe-interval=200
//               [--auth-token=SECRET]
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/cache/ring/cache_ring.h"
#include "src/common/flag_parser.h"
#include "src/fed/fed_gateway.h"
#include "src/net/tcp_server.h"
#include "src/trace/workload.h"

using namespace flashps;

namespace {

std::sig_atomic_t g_signal = 0;

void OnSignal(int signum) { g_signal = signum; }

}  // namespace

int main(int argc, char** argv) {
  flags::FlagParser flags(argc, argv);

  fed::FedGatewayOptions options;
  const std::string nodes_csv = flags.String(
      "nodes", "", "fleet members, HOST:PORT,HOST:PORT,... (required)");
  const std::string route_name =
      flags.String("route", "mask-aware",
                   "route policy: mask-aware|round-robin|first-fit|"
                   "request-count|token-count");
  options.registry.probe_interval =
      std::chrono::milliseconds(flags.LongInRange(
          "probe-interval", 200, 10, 60000, "heartbeat interval (ms)"));
  options.registry.probe_timeout =
      std::chrono::milliseconds(flags.LongInRange(
          "probe-timeout", 250, 10, 60000, "heartbeat reply deadline (ms)"));
  options.connections_per_node = static_cast<int>(flags.LongInRange(
      "connections-per-node", 2, 1, 64, "dispatcher connections per node"));
  options.call_timeout = std::chrono::milliseconds(flags.LongInRange(
      "call-timeout-ms", 30000, 100, 600000, "per-dispatch reply deadline"));
  options.max_attempts = static_cast<int>(flags.LongInRange(
      "max-attempts", 0, 0, 1024,
      "failed dispatches (transport failures, shutdown rejections) "
      "before a request fails (0 = 3x fleet size)"));
  options.auth_token = flags.String(
      "auth-token", "", "shared secret; presented to nodes AND required "
                        "of clients when set");
  // The front runs no model of its own; this flag states what the fleet is
  // EXPECTED to serve, checked against each node's advertised latency_model
  // splice at join time. A mismatch still routes correctly (each node is
  // priced by its own fitted line) but is worth a loud warning: mixed
  // fleets return bitwise-identical latents at different speeds, which
  // skews SLO attainment.
  const bool expect_sparse = flags.Has(
      "sparse-compute",
      "expect every node to serve the gathered sparse compute path; warn "
      "at join time when a node advertises otherwise");
  // Same expectation pattern for resolutions: the front never builds a
  // model, so --resolutions only declares which extra grids the fleet is
  // supposed to serve. A node whose profile lacks a fit for one of them
  // still works (cost falls back to the token-scaled primary fit) but
  // routes on a cruder estimate — warn at join time.
  const std::vector<std::string> resolution_args = flags.StringList(
      "resolutions",
      "extra latent grids the fleet is expected to profile, HxW,HxW,...; "
      "warn at join time when a node's profile lacks one");

  net::TcpServerOptions server_options;
  server_options.port = static_cast<uint16_t>(
      flags.LongInRange("port", 7410, 0, 65535, "listen port (0 = ephemeral)"));
  server_options.max_inflight_per_conn = static_cast<int>(flags.LongInRange(
      "max-inflight", 64, 1, 1 << 16, "per-connection in-flight cap"));
  server_options.auth_token = options.auth_token;
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
  if (!sched::ParseRoutePolicy(route_name, &options.policy)) {
    std::fprintf(stderr, "flashps_fed: bad --route=%s\n%s", route_name.c_str(),
                 usage.c_str());
    return 2;
  }
  std::string parse_error;
  const std::vector<cache::RingMember> members =
      cache::ParseRingMembers(nodes_csv, &parse_error);
  if (members.empty()) {
    std::fprintf(stderr, "flashps_fed: bad --nodes: %s\n%s",
                 parse_error.empty() ? "at least one node is required"
                                     : parse_error.c_str(),
                 usage.c_str());
    return 2;
  }
  for (const cache::RingMember& m : members) {
    options.nodes.push_back(fed::FedNode{m.host, m.port});
  }
  std::vector<std::pair<int, int>> expected_resolutions;
  for (const std::string& text : resolution_args) {
    int grid_h = 0;
    int grid_w = 0;
    if (!trace::ParseResolution(text, &grid_h, &grid_w)) {
      std::fprintf(stderr, "flashps_fed: bad --resolutions entry '%s' "
                   "(expected HxW, e.g. 96x96)\n%s",
                   text.c_str(), usage.c_str());
      return 2;
    }
    expected_resolutions.emplace_back(grid_h, grid_w);
  }

  fed::FedGateway fed_gateway(options);
  fed_gateway.Start();
  for (size_t i = 0; i < fed_gateway.registry().size(); ++i) {
    const fed::NodeInfo info = fed_gateway.registry().Info(static_cast<int>(i));
    std::printf("flashps_fed: node %s: %s%s%s\n", info.node.id().c_str(),
                fed::ToString(info.health).c_str(),
                info.profile_loaded ? " (profile loaded)" : "",
                info.sparse_compute ? " (sparse compute)" : "");
    if (info.profile_loaded && info.sparse_compute != expect_sparse) {
      std::fprintf(stderr,
                   "flashps_fed: WARNING: node %s advertises %s compute but "
                   "this front %s --sparse-compute; fleet is mixed-speed\n",
                   info.node.id().c_str(),
                   info.sparse_compute ? "sparse" : "dense",
                   expect_sparse ? "was launched with" : "was launched without");
    }
    if (info.profile_loaded && !expected_resolutions.empty()) {
      const std::shared_ptr<const sched::LatencyModel> model =
          fed_gateway.registry().model(static_cast<int>(i));
      for (const auto& [grid_h, grid_w] : expected_resolutions) {
        if (model == nullptr) {
          break;
        }
        if (grid_h == model->primary_grid_h() &&
            grid_w == model->primary_grid_w()) {
          continue;  // The node's native grid needs no extra fit.
        }
        bool fitted = false;
        for (const sched::LatencyModel::ResolutionFit& fit :
             model->resolution_fits()) {
          if (fit.grid_h == grid_h && fit.grid_w == grid_w) {
            fitted = true;
            break;
          }
        }
        if (!fitted) {
          std::fprintf(stderr,
                       "flashps_fed: WARNING: node %s has no profiled fit for "
                       "%dx%d; its cost estimate falls back to the "
                       "token-scaled primary fit\n",
                       info.node.id().c_str(), grid_h, grid_w);
        }
      }
    }
  }

  net::TcpServer server(fed_gateway, server_options);
  if (!server.Start()) {
    std::fprintf(stderr, "flashps_fed: cannot listen on port %u\n",
                 server_options.port);
    fed_gateway.Stop();
    return 1;
  }
  std::printf("flashps_fed: listening on 127.0.0.1:%u, %zu node(s), route %s\n",
              server.port(), fed_gateway.registry().size(),
              route_name.c_str());
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
      const fed::FedGateway::Stats s = fed_gateway.stats();
      std::printf("flashps_fed: submitted=%llu completed=%llu failed=%llu "
                  "redispatched=%llu outstanding=%llu parked=%llu\n",
                  static_cast<unsigned long long>(s.submitted),
                  static_cast<unsigned long long>(s.completed),
                  static_cast<unsigned long long>(s.failed),
                  static_cast<unsigned long long>(s.redispatched),
                  static_cast<unsigned long long>(s.outstanding),
                  static_cast<unsigned long long>(s.parked));
      std::fflush(stdout);
    }
  }

  // Graceful drain: refuse new submits, let the fleet finish what is in
  // flight, flush replies, then tear down.
  std::printf("\nflashps_fed: signal %d, draining...\n",
              static_cast<int>(g_signal));
  fed_gateway.StopAccepting();
  server.Stop();
  fed_gateway.Drain();
  std::printf("flashps_fed: final metrics\n%s\n",
              fed_gateway.MetricsJson().c_str());
  fed_gateway.Stop();
  return 0;
}
