// Federated front tier under open-loop replay: a FedGateway over an
// in-process fleet of real serving nodes (gateway + TcpServer each),
// driven over the wire by a pipelined net::Client — the cluster control
// plane's end-to-end cost and its failover guarantee, measured.
//
// Two legs over the same trace:
//
//   steady   — every node healthy. Reports wall clock, throughput, e2e
//              p50/p99, and how the router spread the trace across the
//              fleet.
//   failover — the hottest node (most unfinished dispatched work) is
//              killed with a zero drain budget at the trace midpoint,
//              like a crashed process. The control plane must re-route
//              its orphans to siblings.
//
// Two hard gates, both legs: zero failed requests, and every latent
// checksum bitwise-identical to a single local gateway running the same
// trace (the determinism invariant that makes failover safe). The bench
// exits non-zero on any drift — this is the CI gate for the federation.
//
// Results land in BENCH_fed.json.
//
//   bench_fed --requests=32 --steps=2 --nodes=3 --route=mask-aware
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/flag_parser.h"
#include "src/common/rng.h"
#include "src/fed/fed_gateway.h"
#include "src/gateway/gateway.h"
#include "src/net/client.h"
#include "src/net/tcp_server.h"
#include "src/trace/workload.h"

using namespace flashps;

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

gateway::GatewayOptions NodeOptions(int steps) {
  gateway::GatewayOptions options;
  options.num_workers = 1;
  options.worker.numerics = model::NumericsConfig::ForTests();
  options.worker.numerics.num_steps = steps;
  options.worker.max_batch = 2;
  options.admission_control = false;
  return options;
}

std::vector<runtime::OnlineRequest> MakeTrace(int count) {
  const model::NumericsConfig numerics = model::NumericsConfig::ForTests();
  Rng rng(7411);
  std::vector<runtime::OnlineRequest> trace;
  for (int i = 0; i < count; ++i) {
    runtime::OnlineRequest request;
    request.template_id = i % 4;
    request.prompt_seed = 9000 + static_cast<uint64_t>(i);
    request.mask = trace::GenerateBlobMask(numerics.grid_h, numerics.grid_w,
                                           0.08 + 0.05 * (i % 7), rng);
    trace.push_back(request);
  }
  return trace;
}

struct FleetNode {
  std::unique_ptr<gateway::Gateway> gateway;
  std::unique_ptr<net::TcpServer> server;
};

struct LegResult {
  double wall_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  int victim = -1;
  fed::FedGateway::Stats stats;
  std::vector<uint64_t> node_completed;
  bool bitwise_identical = true;
  uint64_t mismatches = 0;
};

double PercentileMs(std::vector<int64_t> e2e_us, double q) {
  if (e2e_us.empty()) {
    return 0.0;
  }
  std::sort(e2e_us.begin(), e2e_us.end());
  const size_t index = static_cast<size_t>(
      q * static_cast<double>(e2e_us.size() - 1) + 0.5);
  return static_cast<double>(e2e_us[index]) / 1e3;
}

// Replays the trace through a federated fleet; when `kill_midway`, the
// hottest node dies after half the replies have landed.
LegResult RunLeg(const std::vector<runtime::OnlineRequest>& trace, int steps,
                 int num_nodes, sched::RoutePolicy route, bool kill_midway,
                 const std::vector<uint64_t>& expected) {
  LegResult result;
  std::vector<FleetNode> fleet(static_cast<size_t>(num_nodes));
  for (FleetNode& node : fleet) {
    node.gateway = std::make_unique<gateway::Gateway>(NodeOptions(steps));
    net::TcpServerOptions options;
    options.drain_timeout = std::chrono::milliseconds(0);  // Kills are abrupt.
    node.server = std::make_unique<net::TcpServer>(*node.gateway, options);
    if (!node.server->Start()) {
      std::fprintf(stderr, "bench_fed: cannot start fleet node\n");
      std::exit(1);
    }
  }

  fed::FedGatewayOptions options;
  for (const FleetNode& node : fleet) {
    options.nodes.push_back(fed::FedNode{"127.0.0.1", node.server->port()});
  }
  options.policy = route;
  options.registry.probe_interval = std::chrono::milliseconds(50);
  options.registry.probe_timeout = std::chrono::milliseconds(250);
  options.registry.dead_after = 3;
  options.connections_per_node = 1;
  fed::FedGateway fed(options);
  fed.Start();
  net::TcpServer front(fed);
  if (!front.Start()) {
    std::fprintf(stderr, "bench_fed: cannot start front tier\n");
    std::exit(1);
  }
  net::Client client("127.0.0.1", front.port());
  if (!client.Connect()) {
    std::fprintf(stderr, "bench_fed: cannot connect to front tier\n");
    std::exit(1);
  }

  const Clock::time_point start = Clock::now();
  std::vector<uint64_t> seqs;
  for (const runtime::OnlineRequest& request : trace) {
    net::WireRequest wire;
    wire.denoise_steps = static_cast<int32_t>(steps);
    wire.request = request;
    seqs.push_back(client.Send(wire));
  }

  if (kill_midway) {
    const uint64_t half = trace.size() / 2;
    const auto deadline = Clock::now() + std::chrono::seconds(120);
    while (fed.stats().completed < half && Clock::now() < deadline) {
      client.Pump(std::chrono::milliseconds(1));
    }
    uint64_t hottest = 0;
    for (int i = 0; i < num_nodes; ++i) {
      const fed::NodeInfo info = fed.registry().Info(i);
      const uint64_t backlog = info.dispatched - info.completed;
      if (backlog > hottest) {
        hottest = backlog;
        result.victim = i;
      }
    }
    if (result.victim >= 0) {
      fleet[static_cast<size_t>(result.victim)].server->Stop();
    }
  }

  std::vector<int64_t> e2e_us;
  for (size_t i = 0; i < seqs.size(); ++i) {
    auto response = client.Await(seqs[i], std::chrono::milliseconds(120000));
    if (!response.has_value() ||
        response->submit_status() != gateway::SubmitStatus::kAccepted) {
      std::fprintf(stderr, "bench_fed: request %zu FAILED (%s leg)\n", i,
                   kill_midway ? "failover" : "steady");
      result.bitwise_identical = false;
      ++result.mismatches;
      continue;
    }
    e2e_us.push_back(response->e2e_us);
    if (response->latent_checksum != expected[i]) {
      std::fprintf(stderr,
                   "bench_fed: request %zu checksum drift: fleet %016llx "
                   "!= local %016llx\n",
                   i,
                   static_cast<unsigned long long>(response->latent_checksum),
                   static_cast<unsigned long long>(expected[i]));
      result.bitwise_identical = false;
      ++result.mismatches;
    }
  }
  result.wall_ms = MsSince(start);
  result.p50_ms = PercentileMs(e2e_us, 0.50);
  result.p99_ms = PercentileMs(e2e_us, 0.99);
  result.stats = fed.stats();
  for (int i = 0; i < num_nodes; ++i) {
    result.node_completed.push_back(fed.registry().Info(i).completed);
  }

  front.Stop();
  fed.StopAccepting();
  fed.Drain();
  fed.Stop();
  for (FleetNode& node : fleet) {
    node.server->Stop();
    node.gateway->Stop();
  }
  return result;
}

std::string LegJson(const LegResult& leg, size_t requests) {
  std::ostringstream json;
  json << "{\"wall_ms\":" << bench::Fmt(leg.wall_ms)
       << ",\"throughput_rps\":"
       << bench::Fmt(static_cast<double>(requests) / (leg.wall_ms / 1e3))
       << ",\"e2e_p50_ms\":" << bench::Fmt(leg.p50_ms)
       << ",\"e2e_p99_ms\":" << bench::Fmt(leg.p99_ms)
       << ",\"submitted\":" << leg.stats.submitted
       << ",\"completed\":" << leg.stats.completed
       << ",\"failed\":" << leg.stats.failed
       << ",\"redispatched\":" << leg.stats.redispatched
       << ",\"victim\":" << leg.victim << ",\"node_completed\":[";
  for (size_t i = 0; i < leg.node_completed.size(); ++i) {
    if (i > 0) json << ",";
    json << leg.node_completed[i];
  }
  json << "],\"bitwise_identical\":"
       << (leg.bitwise_identical ? "true" : "false") << "}";
  return json.str();
}

}  // namespace

int main(int argc, char** argv) {
  flags::FlagParser flags(argc, argv);
  const int requests = static_cast<int>(
      flags.LongInRange("requests", 32, 2, 4096, "trace length"));
  const int steps = static_cast<int>(
      flags.LongInRange("steps", 2, 1, 64, "denoise steps per request"));
  const int num_nodes = static_cast<int>(
      flags.LongInRange("nodes", 3, 2, 16, "fleet size"));
  const std::string route_name = flags.String(
      "route", "mask-aware", "route policy for both legs");
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
  sched::RoutePolicy route = sched::RoutePolicy::kMaskAware;
  if (!sched::ParseRoutePolicy(route_name, &route)) {
    std::fprintf(stderr, "bench_fed: bad --route=%s\n%s", route_name.c_str(),
                 usage.c_str());
    return 2;
  }

  bench::PrintHeader(
      "bench_fed: federated front tier over " + std::to_string(num_nodes) +
          " serving nodes",
      "failover must lose zero requests and stay bitwise-identical");

  const std::vector<runtime::OnlineRequest> trace = MakeTrace(requests);

  // The bitwise reference: one local gateway, same trace.
  std::vector<uint64_t> expected;
  {
    gateway::Gateway local(NodeOptions(steps));
    for (const runtime::OnlineRequest& request : trace) {
      gateway::SubmitResult result = local.Submit(request);
      expected.push_back(net::LatentChecksum(result.future.get().image));
    }
    local.Stop();
  }

  const LegResult steady =
      RunLeg(trace, steps, num_nodes, route, /*kill_midway=*/false, expected);
  const LegResult failover =
      RunLeg(trace, steps, num_nodes, route, /*kill_midway=*/true, expected);

  bench::PrintRow({"leg", "wall_ms", "p50_ms", "p99_ms", "redisp", "failed",
                   "bitwise"});
  bench::PrintRow({"steady", bench::Fmt(steady.wall_ms),
                   bench::Fmt(steady.p50_ms), bench::Fmt(steady.p99_ms),
                   std::to_string(steady.stats.redispatched),
                   std::to_string(steady.stats.failed),
                   steady.bitwise_identical ? "yes" : "NO"});
  bench::PrintRow({"failover", bench::Fmt(failover.wall_ms),
                   bench::Fmt(failover.p50_ms), bench::Fmt(failover.p99_ms),
                   std::to_string(failover.stats.redispatched),
                   std::to_string(failover.stats.failed),
                   failover.bitwise_identical ? "yes" : "NO"});
  std::printf("failover: killed node %d mid-trace; %llu re-dispatched\n",
              failover.victim,
              static_cast<unsigned long long>(failover.stats.redispatched));

  std::ostringstream json;
  json << "{\n" << bench::HostHeaderJson();
  json << "  \"requests\":" << requests << ",\"steps\":" << steps
       << ",\"nodes\":" << num_nodes << ",\"route\":\"" << route_name << "\""
       << ",\"steady\":" << LegJson(steady, trace.size())
       << ",\"failover\":" << LegJson(failover, trace.size()) << "}";
  std::ofstream out("BENCH_fed.json");
  out << json.str() << "\n";
  std::printf("wrote BENCH_fed.json\n");

  // The CI gates: a federation that loses or corrupts a request under
  // failover is broken, whatever its latency numbers say.
  const bool gates_ok = steady.bitwise_identical && steady.stats.failed == 0 &&
                        failover.bitwise_identical &&
                        failover.stats.failed == 0;
  if (!gates_ok) {
    std::fprintf(stderr, "bench_fed: GATE FAILURE (see drift above)\n");
    return 2;
  }
  std::printf("gates: zero failed, bitwise identical across both legs\n");
  return 0;
}
