// flashps_cached: the shared cache-tier daemon.
//
// Exposes a net::CacheNode on a TCP port through TcpServer's service
// mode: the same poll loop, back-pressure, and graceful drain as
// flashps_served, with every cache fetch/put answered inline on the poll
// thread (the handlers are memcpy-scale). Workers with this node in
// their --cache-nodes list (alone, or as one member of a ring) fetch
// template activations here instead of re-registering them per
// process; a metrics frame (or SIGINT/SIGTERM at exit) reports
// the node's hit/miss/byte/eviction counters.
//
// --cache-precision sets the node's admission floor: lossless (the
// default) accepts only bitwise f32 puts — a misconfigured lossy worker
// is rejected loudly — while fp16/staged admit the matching compressed
// encodings. Entries rest in their wire form, so --max-bytes counts
// compressed bytes.
//
//   flashps_cached --port=7412 --max-bytes=0 --stats-every-s=10
//                  --cache-precision=lossless
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "src/common/flag_parser.h"
#include "src/net/cache_node.h"

using namespace flashps;

namespace {

std::sig_atomic_t g_signal = 0;

void OnSignal(int signum) { g_signal = signum; }

}  // namespace

int main(int argc, char** argv) {
  flags::FlagParser flags(argc, argv);

  net::CacheNodeOptions node_options;
  node_options.max_bytes = static_cast<size_t>(flags.LongInRange(
      "max-bytes", 0, 0, 1l << 40, "resident-byte cap (0 = unbounded)"));
  // Daemon default is the strictest floor: a fleet is bitwise-attested
  // unless the operator opts the node into compressed admissions.
  const std::string precision_name =
      flags.String("cache-precision", "lossless",
                   "admission floor: lossless|fp16|staged");

  net::TcpServerOptions server_options;
  server_options.port = static_cast<uint16_t>(
      flags.LongInRange("port", 7412, 0, 65535, "listen port (0 = ephemeral)"));
  server_options.max_inflight_per_conn = static_cast<int>(flags.LongInRange(
      "max-inflight", 64, 1, 1 << 16, "per-connection in-flight cap"));
  server_options.auth_token = flags.String(
      "auth-token", "", "shared secret; refuse unauthenticated sessions");
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
  if (!quant::ParsePrecisionMode(precision_name, &node_options.admit)) {
    std::fprintf(stderr, "flashps_cached: bad --cache-precision=%s\n%s",
                 precision_name.c_str(), usage.c_str());
    return 2;
  }

  net::CacheNode node(node_options);
  net::TcpServer server(node.Service(), server_options);
  if (!server.Start()) {
    std::fprintf(stderr, "flashps_cached: cannot listen on port %u\n",
                 server_options.port);
    return 1;
  }
  std::printf(
      "flashps_cached: listening on 127.0.0.1:%u (max-bytes=%zu, admit=%s)\n",
      server.port(), node_options.max_bytes,
      quant::ToString(node_options.admit).c_str());
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
      std::printf("flashps_cached: %s\n", node.MetricsJson().c_str());
      std::fflush(stdout);
    }
  }

  std::printf("\nflashps_cached: signal %d, draining...\n",
              static_cast<int>(g_signal));
  server.Stop();
  std::printf("flashps_cached: final metrics\n%s\n",
              node.MetricsJson().c_str());
  return 0;
}
