// Open-loop remote load generator for the FlashPS TCP serving frontier.
//
// Replays a trace::Workload against a flashps_served daemon over one
// pipelined net::Client connection, timing every request from the
// client's side of the wire: from its scheduled send time to the reply's
// receipt, so generator lateness, network, queueing and serving all count.
// With no --host flag it self-hosts: a Gateway + TcpServer spin up
// in-process on an ephemeral loopback port, so the whole round-trip —
// encode, socket, poll loop, gateway, worker, poll loop, socket, decode —
// is exercised by one command. Reports client-observed p50/p99, the
// per-request network+pump overhead (client latency minus the daemon's
// own e2e_us), per-status counts and achieved request rate; cross-checks
// them against the daemon's own MetricsJson() counters; emits
// BENCH_net.json. A negative per-request overhead (the daemon reporting a
// longer e2e than the client saw) is a measurement bug and fails the run
// (exit 3).
//
//   bench_net_loadgen --requests=24 --rps=20 --steps=4 --workers=2
//   bench_net_loadgen --host=127.0.0.1 --port=7411 --requests=100 --rps=50
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/stats.h"
#include "src/net/client.h"
#include "src/net/tcp_server.h"

using namespace flashps;

namespace {

using Clock = std::chrono::steady_clock;

bool FlagValue(int argc, char** argv, const char* key, std::string* out) {
  const std::string prefix = std::string("--") + key + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      *out = argv[i] + prefix.size();
      return true;
    }
  }
  return false;
}

double FlagDouble(int argc, char** argv, const char* key, double fallback) {
  std::string value;
  return FlagValue(argc, argv, key, &value) ? std::atof(value.c_str())
                                            : fallback;
}

long FlagLong(int argc, char** argv, const char* key, long fallback) {
  std::string value;
  return FlagValue(argc, argv, key, &value) ? std::atol(value.c_str())
                                            : fallback;
}

struct Outstanding {
  uint64_t trace_id = 0;
  Clock::time_point due;  // Scheduled send time: the latency clock's start.
};

struct Observed {
  uint64_t trace_id = 0;
  net::WireResponse response;
  double latency_ms = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const long requests = FlagLong(argc, argv, "requests", 24);
  const double rps = FlagDouble(argc, argv, "rps", 20.0);
  const int steps = static_cast<int>(FlagLong(argc, argv, "steps", 4));
  const int workers = static_cast<int>(FlagLong(argc, argv, "workers", 2));
  const int max_batch = static_cast<int>(FlagLong(argc, argv, "max-batch", 3));
  const uint64_t seed =
      static_cast<uint64_t>(FlagLong(argc, argv, "seed", 42));
  const long slo_ms = FlagLong(argc, argv, "slo-ms", 0);
  const long timeout_s = FlagLong(argc, argv, "timeout-s", 120);
  std::string host;
  const bool self_host = !FlagValue(argc, argv, "host", &host);
  uint16_t port = static_cast<uint16_t>(FlagLong(argc, argv, "port", 7411));

  bench::PrintHeader(
      "bench_net_loadgen — remote serving over the TCP frontier",
      "InstGenIE/PatchedServe-style cluster frontends serve editing "
      "requests over the wire with SLOs attached (FlashPS arXiv, §5)");

  // Self-host: the daemon side of the loopback, in-process.
  std::unique_ptr<gateway::Gateway> own_gateway;
  std::unique_ptr<net::TcpServer> own_server;
  const model::NumericsConfig numerics = [&] {
    model::NumericsConfig n = model::NumericsConfig::ForTests();
    n.num_steps = steps;
    return n;
  }();
  if (self_host) {
    gateway::GatewayOptions options;
    options.num_workers = workers;
    options.worker.numerics = numerics;
    options.worker.max_batch = max_batch;
    options.slo = Duration::Millis(slo_ms);
    options.admission_control = slo_ms > 0;
    own_gateway = std::make_unique<gateway::Gateway>(options);
    own_server = std::make_unique<net::TcpServer>(*own_gateway);
    if (!own_server->Start()) {
      std::fprintf(stderr, "cannot start loopback server\n");
      return 1;
    }
    host = "127.0.0.1";
    port = own_server->port();
    std::printf("self-hosting on 127.0.0.1:%u (%d workers, %d steps)\n", port,
                workers, steps);
  }

  net::ClientOptions client_options;
  client_options.connect_attempts = 5;
  net::Client client(host, port, client_options);
  if (!client.Connect()) {
    std::fprintf(stderr, "cannot connect to %s:%u\n", host.c_str(), port);
    return 1;
  }

  // The workload: Poisson arrivals, production-trace mask ratios.
  trace::WorkloadSpec spec;
  spec.num_requests = static_cast<int>(requests);
  spec.rps = rps;
  spec.denoise_steps = steps;
  spec.seed = seed;
  const std::vector<trace::Request> workload = trace::GenerateWorkload(spec);
  Rng mask_rng(seed ^ 0x6E65747Eull);

  std::map<uint64_t, Outstanding> outstanding;
  std::vector<Observed> observed;
  uint64_t send_failures = 0;
  const auto harvest = [&] {
    const auto now = Clock::now();
    for (auto it = outstanding.begin(); it != outstanding.end();) {
      if (auto response = client.TryTake(it->first)) {
        Observed obs;
        obs.trace_id = it->second.trace_id;
        obs.response = *response;
        obs.latency_ms =
            std::chrono::duration<double, std::milli>(now - it->second.due)
                .count();
        observed.push_back(obs);
        it = outstanding.erase(it);
      } else {
        ++it;
      }
    }
  };

  const auto epoch = Clock::now();
  for (const trace::Request& request : workload) {
    const auto due =
        epoch + std::chrono::microseconds(request.arrival.micros());
    while (Clock::now() < due) {
      client.Pump(std::chrono::milliseconds(1));
      harvest();
    }
    net::WireRequest wire;
    wire.denoise_steps = steps;
    wire.request.template_id = request.template_id;
    wire.request.prompt_seed = request.id + 1;
    wire.request.mask = trace::GenerateBlobMask(
        numerics.grid_h, numerics.grid_w, request.mask_ratio, mask_rng);
    if (slo_ms > 0) {
      wire.request.slo = Duration::Millis(slo_ms);
    }
    const uint64_t seq = client.Send(wire);
    if (seq == 0) {
      ++send_failures;
      continue;
    }
    outstanding[seq] = Outstanding{request.id, due};
    client.Pump(std::chrono::milliseconds(0));
    harvest();
  }

  const auto deadline = Clock::now() + std::chrono::seconds(timeout_s);
  while (!outstanding.empty() && Clock::now() < deadline &&
         client.connected()) {
    client.Pump(std::chrono::milliseconds(5));
    harvest();
  }
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - epoch).count();
  const uint64_t lost = outstanding.size() + send_failures;

  // Tally per-status counts and accepted-request latency percentiles.
  uint64_t accepted = 0, rejected_slo = 0, shed = 0, shutdown = 0;
  StatAccumulator latency_ms;
  StatAccumulator server_e2e_ms;
  // Per request, never a difference of percentiles: the client's clock
  // starts before the request exists on the server and stops after its
  // reply left it, so every value must be >= 0.
  StatAccumulator overhead_ms;
  uint64_t negative_overhead = 0;
  for (const Observed& obs : observed) {
    switch (obs.response.submit_status()) {
      case gateway::SubmitStatus::kAccepted: {
        ++accepted;
        const double e2e_ms = static_cast<double>(obs.response.e2e_us) / 1e3;
        latency_ms.Add(obs.latency_ms);
        server_e2e_ms.Add(e2e_ms);
        overhead_ms.Add(obs.latency_ms - e2e_ms);
        if (obs.latency_ms < e2e_ms) {
          ++negative_overhead;
          std::fprintf(stderr,
                       "NEGATIVE overhead: request %llu client %.3f ms < "
                       "server e2e %.3f ms\n",
                       static_cast<unsigned long long>(obs.trace_id),
                       obs.latency_ms, e2e_ms);
        }
        break;
      }
      case gateway::SubmitStatus::kRejectedSlo:
        ++rejected_slo;
        break;
      case gateway::SubmitStatus::kShedOverload:
        ++shed;
        break;
      case gateway::SubmitStatus::kRejectedShutdown:
        ++shutdown;
        break;
    }
  }

  bench::PrintRow({"metric", "value"}, 26);
  bench::PrintRow({"requests sent", std::to_string(workload.size())}, 26);
  bench::PrintRow({"accepted", std::to_string(accepted)}, 26);
  bench::PrintRow({"rejected-slo", std::to_string(rejected_slo)}, 26);
  bench::PrintRow({"shed-overload", std::to_string(shed)}, 26);
  bench::PrintRow({"rejected-shutdown", std::to_string(shutdown)}, 26);
  bench::PrintRow({"lost/unanswered", std::to_string(lost)}, 26);
  if (!latency_ms.empty()) {
    bench::PrintRow({"client p50 (ms)", bench::Fmt(latency_ms.P50(), 1)}, 26);
    bench::PrintRow({"client p99 (ms)", bench::Fmt(latency_ms.P99(), 1)}, 26);
    bench::PrintRow({"client mean (ms)", bench::Fmt(latency_ms.Mean(), 1)},
                    26);
    bench::PrintRow(
        {"server e2e p50 (ms)", bench::Fmt(server_e2e_ms.P50(), 1)}, 26);
    bench::PrintRow(
        {"net+pump overhead p50", bench::Fmt(overhead_ms.P50(), 2)}, 26);
    bench::PrintRow(
        {"net+pump overhead p99", bench::Fmt(overhead_ms.P99(), 2)}, 26);
  }
  bench::PrintRow({"achieved rps", bench::Fmt(accepted / wall_s, 2)}, 26);

  // Cross-check against the daemon's own counters over the wire.
  std::string server_metrics = "{}";
  if (auto json = client.QueryMetrics(std::chrono::seconds(10))) {
    server_metrics = *json;
  }
  std::printf("\nserver metrics (over the wire):\n%s\n",
              server_metrics.c_str());

  std::ostringstream json;
  json << "{\n" << bench::HostHeaderJson();
  json << "  \"requests\":" << workload.size() << ",\"rps\":" << rps
       << ",\"steps\":" << steps << ",\"workers\":" << workers
       << ",\"self_host\":" << (self_host ? "true" : "false")
       << ",\"client\":{\"accepted\":" << accepted
       << ",\"rejected_slo\":" << rejected_slo << ",\"shed_overload\":" << shed
       << ",\"rejected_shutdown\":" << shutdown << ",\"lost\":" << lost
       << ",\"e2e_ms\":{\"p50\":" << (latency_ms.empty() ? 0.0 : latency_ms.P50())
       << ",\"p99\":" << (latency_ms.empty() ? 0.0 : latency_ms.P99())
       << ",\"mean\":" << (latency_ms.empty() ? 0.0 : latency_ms.Mean())
       << "},\"overhead_ms\":{\"p50\":"
       << (overhead_ms.empty() ? 0.0 : overhead_ms.P50())
       << ",\"p99\":" << (overhead_ms.empty() ? 0.0 : overhead_ms.P99())
       << ",\"negative\":" << negative_overhead
       << "},\"achieved_rps\":" << (accepted / wall_s)
       << ",\"wall_s\":" << wall_s << "},\"server_metrics\":" << server_metrics
       << "}";
  std::ofstream out("BENCH_net.json");
  out << json.str() << "\n";
  std::printf("wrote BENCH_net.json\n");

  client.Close();
  if (own_server != nullptr) {
    own_server->Stop();
  }
  if (own_gateway != nullptr) {
    own_gateway->Stop();
  }
  if (negative_overhead > 0) {
    std::fprintf(stderr,
                 "%llu requests finished on the server after the client saw "
                 "their reply: the latency accounting is broken\n",
                 static_cast<unsigned long long>(negative_overhead));
    return 3;
  }
  return lost == 0 ? 0 : 2;
}
