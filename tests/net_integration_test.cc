// Loopback integration: the TCP frontier end-to-end against an identical
// in-process gateway.
//
// A TcpServer fronts a 2-worker gateway on an ephemeral port; a
// net::Client pipelines N requests at it. The same N requests (same
// template ids, same masks, same prompt seeds) then run through a second
// gateway configured identically via plain Gateway::Submit. Because
// per-request outputs are bitwise-deterministic in (template, mask, seed,
// numerics) regardless of batching or thread interleaving, the remote
// latent checksums must equal the in-process ones, and the statuses must
// match one for one. The daemon's own MetricsJson() counters — fetched
// over the wire — must agree with what the client observed.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/rng.h"
#include "src/net/client.h"
#include "src/net/tcp_server.h"
#include "src/trace/workload.h"

namespace flashps::net {
namespace {

constexpr int kNumRequests = 8;

gateway::GatewayOptions TwoWorkerOptions() {
  gateway::GatewayOptions options;
  options.num_workers = 2;
  options.worker.numerics = model::NumericsConfig::ForTests();
  options.worker.numerics.num_steps = 2;
  options.worker.max_batch = 3;
  options.admission_control = false;
  return options;
}

std::vector<runtime::OnlineRequest> MakeRequests() {
  const model::NumericsConfig numerics = model::NumericsConfig::ForTests();
  Rng rng(2026);
  std::vector<runtime::OnlineRequest> requests;
  for (int i = 0; i < kNumRequests; ++i) {
    runtime::OnlineRequest request;
    request.template_id = i % 3;
    request.prompt_seed = 1000 + static_cast<uint64_t>(i);
    request.mask = trace::GenerateBlobMask(numerics.grid_h, numerics.grid_w,
                                           0.1 + 0.05 * i, rng);
    requests.push_back(request);
  }
  return requests;
}

// Pulls `"key":<integer>` out of a flat metrics JSON string.
uint64_t JsonCounter(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) {
    return ~0ull;
  }
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

TEST(NetIntegrationTest, LoopbackMatchesInProcessGateway) {
  const std::vector<runtime::OnlineRequest> requests = MakeRequests();

  // --- remote leg: pipelined over one TCP connection -----------------------
  gateway::Gateway remote_gateway(TwoWorkerOptions());
  TcpServer server(remote_gateway);
  ASSERT_TRUE(server.Start());
  ASSERT_NE(server.port(), 0);

  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.Connect());
  std::vector<uint64_t> seqs;
  for (const runtime::OnlineRequest& request : requests) {
    WireRequest wire;
    wire.denoise_steps = 2;
    wire.request = request;
    const uint64_t seq = client.Send(wire);
    ASSERT_NE(seq, 0u);
    seqs.push_back(seq);
  }
  std::vector<WireResponse> remote;
  for (uint64_t seq : seqs) {
    auto response = client.Await(seq, std::chrono::milliseconds(60000));
    ASSERT_TRUE(response.has_value())
        << "seq " << seq << ": " << ToString(client.last_error());
    remote.push_back(*response);
  }

  // --- in-process leg: identical gateway, plain Submit ---------------------
  gateway::Gateway local_gateway(TwoWorkerOptions());
  std::vector<gateway::SubmitStatus> local_status;
  std::vector<uint64_t> local_checksum;
  for (const runtime::OnlineRequest& request : requests) {
    gateway::SubmitResult result = local_gateway.Submit(request);
    local_status.push_back(result.status);
    ASSERT_TRUE(result.accepted());
    local_checksum.push_back(LatentChecksum(result.future.get().image));
  }
  local_gateway.Stop();

  // --- equivalence ---------------------------------------------------------
  ASSERT_EQ(remote.size(), requests.size());
  for (size_t i = 0; i < remote.size(); ++i) {
    EXPECT_EQ(remote[i].submit_status(), local_status[i]) << "request " << i;
    EXPECT_EQ(remote[i].latent_checksum, local_checksum[i])
        << "request " << i << ": remote and in-process latents differ";
    EXPECT_GE(remote[i].e2e_us, 0);
    EXPECT_GE(remote[i].worker_id, 0);
  }
  // Pipelining really happened on one connection.
  EXPECT_EQ(server.Stats().connections_accepted, 1u);
  EXPECT_EQ(server.Stats().submits_accepted,
            static_cast<uint64_t>(kNumRequests));

  // --- metrics over the wire match the client's view -----------------------
  auto metrics = client.QueryMetrics(std::chrono::milliseconds(10000));
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(JsonCounter(*metrics, "submitted"),
            static_cast<uint64_t>(kNumRequests));
  EXPECT_EQ(JsonCounter(*metrics, "accepted"),
            static_cast<uint64_t>(kNumRequests));
  EXPECT_EQ(JsonCounter(*metrics, "completed"),
            static_cast<uint64_t>(kNumRequests));

  server.Stop();
  remote_gateway.Stop();
}

// The names of this process's threads, from /proc/self/task/*/comm.
std::multiset<std::string> ThreadNames() {
  std::multiset<std::string> names;
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    if (std::getline(comm, name)) {
      names.insert(name);
    }
  }
  return names;
}

TEST(NetIntegrationTest, ThreadsAreNamedByRole) {
  gateway::Gateway gw(TwoWorkerOptions());
  TcpServer server(gw);
  ASSERT_TRUE(server.Start());
  // Each thread names itself as it starts; wait until all have.
  const std::map<std::string, size_t> want = {
      {"denoise", 2}, {"cpu-lane", 4}, {"gateway-timer", 1}, {"tcp-poll", 1}};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::multiset<std::string> names;
  for (;;) {
    names = ThreadNames();
    bool all = true;
    for (const auto& [name, count] : want) {
      all = all && names.count(name) >= count;
    }
    if (all || std::chrono::steady_clock::now() > deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (const auto& [name, count] : want) {
    EXPECT_GE(names.count(name), count) << name;
  }
  server.Stop();
  gw.Stop();
}

// Graceful drain racing live submitters: one thread hammers the server
// with pipelined submits over fresh connections while the main thread
// Stop()s it mid-stream. Every Await must either produce a real reply or
// fail cleanly (connection closed / rejected), the server must come down
// with nothing left in flight, and (under TSan) the poll-thread/worker/
// submitter interleavings must be race-free.
TEST(NetIntegrationTest, StopRacesConcurrentSubmitsCleanly) {
  gateway::Gateway gateway(TwoWorkerOptions());
  TcpServer server(gateway);
  ASSERT_TRUE(server.Start());
  const uint16_t port = server.port();

  std::atomic<bool> stop_requested{false};
  // Every reply, and the accepted ones among them: a draining server
  // answers late submits with kRejectedShutdown.
  std::atomic<uint64_t> replies{0};
  std::atomic<uint64_t> accepted_replies{0};
  std::thread pounder([&] {
    const std::vector<runtime::OnlineRequest> requests = MakeRequests();
    ClientOptions one_shot;
    one_shot.connect_attempts = 1;
    while (!stop_requested.load()) {
      Client client("127.0.0.1", port, one_shot);
      if (!client.Connect()) {
        break;  // Listener is gone: the drain won.
      }
      std::vector<uint64_t> seqs;
      for (const runtime::OnlineRequest& request : requests) {
        WireRequest wire;
        wire.denoise_steps = 2;
        wire.request = request;
        const uint64_t seq = client.Send(wire);
        if (seq == 0) {
          break;  // Write failed mid-drain; also fine.
        }
        seqs.push_back(seq);
      }
      for (uint64_t seq : seqs) {
        const auto reply = client.Await(seq, std::chrono::milliseconds(30000));
        if (!reply.has_value()) {
          continue;
        }
        replies.fetch_add(1);
        if (reply->submit_status() == gateway::SubmitStatus::kAccepted) {
          accepted_replies.fetch_add(1);
        }
      }
    }
  });

  // Let the pounder get traffic in flight, then drain under it.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.Stop();
  stop_requested.store(true);
  pounder.join();
  gateway.Stop();

  EXPECT_EQ(server.inflight(), 0u);
  const TcpServerStats stats = server.Stats();
  EXPECT_GE(stats.submits_accepted, accepted_replies.load());
  EXPECT_GE(stats.submits_accepted + stats.submits_rejected, replies.load());
  EXPECT_EQ(stats.connections_closed, stats.connections_accepted);
}

TEST(NetIntegrationTest, AuthTokenGatesSessions) {
  gateway::Gateway gateway(TwoWorkerOptions());
  TcpServerOptions options;
  options.auth_token = "s3cret";
  TcpServer server(gateway, options);
  ASSERT_TRUE(server.Start());

  // No token: the TCP session opens (no handshake attempted), but the
  // first real frame gets kError(kUnauthorized) and the connection drops.
  Client bare("127.0.0.1", server.port());
  ASSERT_TRUE(bare.Connect());
  EXPECT_FALSE(
      bare.QueryMetrics(std::chrono::milliseconds(2000)).has_value());

  // Wrong token: the handshake itself is refused.
  ClientOptions wrong;
  wrong.auth_token = "nope";
  Client impostor("127.0.0.1", server.port(), wrong);
  EXPECT_FALSE(impostor.Connect());

  // Right token: full service, including submits.
  ClientOptions right;
  right.auth_token = "s3cret";
  Client good("127.0.0.1", server.port(), right);
  ASSERT_TRUE(good.Connect());
  EXPECT_TRUE(
      good.QueryMetrics(std::chrono::milliseconds(10000)).has_value());
  WireRequest wire;
  wire.denoise_steps = 2;
  wire.request = MakeRequests()[0];
  auto response = good.Call(wire, std::chrono::milliseconds(60000));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->submit_status(), gateway::SubmitStatus::kAccepted);

  const TcpServerStats stats = server.Stats();
  EXPECT_GE(stats.auth_ok, 1u);
  EXPECT_GE(stats.unauthorized, 2u);
  server.Stop();
  gateway.Stop();
}

TEST(NetIntegrationTest, TokenlessDaemonAcknowledgesBlindHandshake) {
  gateway::Gateway gateway(TwoWorkerOptions());
  TcpServer server(gateway);  // No token: open frontier.
  ASSERT_TRUE(server.Start());

  // A client configured with a token handshakes blindly; a tokenless
  // daemon still acks, so mixed fleets roll out without flag-day locking.
  ClientOptions token;
  token.auth_token = "s3cret";
  Client client("127.0.0.1", server.port(), token);
  ASSERT_TRUE(client.Connect());
  EXPECT_TRUE(
      client.QueryMetrics(std::chrono::milliseconds(10000)).has_value());
  server.Stop();
  gateway.Stop();
}

TEST(NetIntegrationTest, DrainingServerRejectsWithShutdownStatus) {
  gateway::Gateway gateway(TwoWorkerOptions());
  TcpServer server(gateway);
  ASSERT_TRUE(server.Start());

  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.Connect());

  // A full stop: the listener closes, so new connections are refused.
  server.Stop();
  ClientOptions one_shot;
  one_shot.connect_attempts = 1;
  Client late("127.0.0.1", server.port(), one_shot);
  EXPECT_FALSE(late.Connect());
  gateway.Stop();
}

}  // namespace
}  // namespace flashps::net
