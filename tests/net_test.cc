// Wire-protocol and TcpServer robustness tests.
//
// The unit half round-trips every frame type and drives the stream
// decoder through each distinct WireError. The server half throws
// garbage, truncation, mid-request disconnects, back-pressure, and
// Stop()-with-in-flight at a live TcpServer and asserts it answers with
// the right distinct error, never hangs, never crashes, and never leaks
// file descriptors; and it holds the server to replying by event: a
// notified completion is answered at once without polling, and a notify
// that outlives its server is harmless.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/rng.h"
#include "src/net/client.h"
#include "src/net/socket_util.h"
#include "src/net/tcp_server.h"
#include "src/net/wire.h"
#include "src/runtime/serde.h"
#include "src/trace/workload.h"
#include "tests/delayed_frontend.h"

namespace flashps::net {
namespace {

runtime::OnlineRequest MakeRequest(uint64_t seed = 7) {
  Rng rng(seed);
  runtime::OnlineRequest request;
  request.template_id = 3;
  request.prompt_seed = seed;
  request.slo = Duration::Millis(250);
  // The mask grid must be one the server serves: submits route by mask
  // grid, and an unserved grid fails the request.
  const model::NumericsConfig numerics = model::NumericsConfig::ForTests();
  request.mask =
      trace::GenerateBlobMask(numerics.grid_h, numerics.grid_w, 0.2, rng);
  return request;
}

// --- serde ---------------------------------------------------------------

TEST(SerdeTest, OnlineRequestRoundTrip) {
  const runtime::OnlineRequest request = MakeRequest();
  std::vector<uint8_t> bytes;
  runtime::AppendOnlineRequest(request, bytes);

  ByteReader reader(bytes.data(), bytes.size());
  runtime::OnlineRequest decoded;
  std::string error;
  ASSERT_TRUE(runtime::ReadOnlineRequest(reader, &decoded, &error)) << error;
  EXPECT_EQ(decoded.template_id, request.template_id);
  EXPECT_EQ(decoded.prompt_seed, request.prompt_seed);
  EXPECT_EQ(decoded.slo.micros(), request.slo.micros());
  EXPECT_EQ(decoded.mask.grid_h, request.mask.grid_h);
  EXPECT_EQ(decoded.mask.grid_w, request.mask.grid_w);
  EXPECT_EQ(decoded.mask.masked_tokens, request.mask.masked_tokens);
  // The complement is rebuilt, not shipped.
  EXPECT_EQ(decoded.mask.unmasked_tokens, request.mask.unmasked_tokens);
}

// Builds a request payload by hand. `res_h`/`res_w` are the trailing v3
// resolution fields; pass 0,0 to omit them (a v2-layout payload).
std::vector<uint8_t> CraftPayload(int32_t tmpl, int32_t h, int32_t w,
                                  const std::vector<uint32_t>& masked,
                                  int32_t res_h, int32_t res_w) {
  std::vector<uint8_t> bytes;
  ByteWriter writer(bytes);
  writer.I32(tmpl);
  writer.U64(1);  // prompt_seed
  writer.I64(0);  // slo_us
  writer.I32(h);
  writer.I32(w);
  writer.U32(static_cast<uint32_t>(masked.size()));
  for (uint32_t token : masked) writer.U32(token);
  if (res_h != 0 || res_w != 0) {
    writer.I32(res_h);
    writer.I32(res_w);
  }
  return bytes;
}

TEST(SerdeTest, RejectsBadPayloads) {
  const auto decode = [](const std::vector<uint8_t>& bytes) {
    ByteReader reader(bytes.data(), bytes.size());
    runtime::OnlineRequest decoded;
    std::string error;
    return runtime::ReadOnlineRequest(reader, &decoded, &error);
  };
  const auto craft = [](int32_t tmpl, int32_t h, int32_t w,
                        const std::vector<uint32_t>& masked) {
    return CraftPayload(tmpl, h, w, masked, h, w);
  };

  EXPECT_TRUE(decode(craft(0, 4, 4, {0, 5, 15})));
  EXPECT_FALSE(decode(craft(-1, 4, 4, {0})));          // Negative template.
  EXPECT_FALSE(decode(craft(0, 0, 4, {})));            // Degenerate grid.
  EXPECT_FALSE(decode(craft(0, 4, 1000, {})));         // Grid over the cap.
  EXPECT_FALSE(decode(craft(0, 4, 4, {0, 16})));       // Token out of range.
  EXPECT_FALSE(decode(craft(0, 4, 4, {5, 5})));        // Not increasing.
  EXPECT_FALSE(decode(craft(0, 4, 4, {9, 3})));        // Out of order.
  EXPECT_FALSE(decode({0x01, 0x02}));                  // Short input.
  // Resolution fields disagreeing with the mask grid, or missing outright
  // from a payload decoded as v3, are malformed.
  EXPECT_FALSE(decode(CraftPayload(0, 4, 4, {0}, 8, 4)));
  EXPECT_FALSE(decode(CraftPayload(0, 4, 4, {0}, 0, 0)));
}

TEST(SerdeTest, LegacyPayloadWithoutResolutionStillDecodes) {
  // A v2 peer's payload stops after the masked token list; decoding with
  // with_resolution=false accepts it and the resolution IS the mask grid.
  const std::vector<uint8_t> bytes = CraftPayload(3, 4, 4, {1, 6}, 0, 0);
  ByteReader reader(bytes.data(), bytes.size());
  runtime::OnlineRequest decoded;
  std::string error;
  ASSERT_TRUE(runtime::ReadOnlineRequest(reader, &decoded, &error,
                                         /*with_resolution=*/false))
      << error;
  EXPECT_EQ(decoded.mask.grid_h, 4);
  EXPECT_EQ(decoded.mask.grid_w, 4);
  EXPECT_EQ(decoded.mask.masked_tokens, (std::vector<int>{1, 6}));
}

// --- wire frames ---------------------------------------------------------

TEST(WireTest, SubmitRoundTrip) {
  WireRequest request;
  request.engine_mode = 0;
  request.denoise_steps = 12;
  request.request = MakeRequest(11);

  const std::vector<uint8_t> frame = EncodeSubmit(42, request);
  ParsedFrame parsed;
  size_t consumed = 0;
  ASSERT_EQ(TryParseFrame(frame.data(), frame.size(), &parsed, &consumed),
            WireError::kOk);
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(parsed.header.seq, 42u);
  EXPECT_EQ(parsed.type(), FrameType::kSubmit);

  WireRequest decoded;
  std::string error;
  ASSERT_TRUE(DecodeSubmit(parsed, &decoded, &error)) << error;
  EXPECT_EQ(decoded.engine_mode, request.engine_mode);
  EXPECT_EQ(decoded.denoise_steps, request.denoise_steps);
  EXPECT_EQ(decoded.request.mask.masked_tokens,
            request.request.mask.masked_tokens);
}

TEST(WireTest, ResponseRoundTrip) {
  WireResponse response;
  response.status = static_cast<uint8_t>(gateway::SubmitStatus::kAccepted);
  response.worker_id = 1;
  response.estimated_wall_us = 1234;
  response.queueing_us = 10;
  response.denoise_us = 20;
  response.post_us = 30;
  response.e2e_us = 60;
  response.latent_checksum = 0xDEADBEEFCAFEF00Dull;

  const std::vector<uint8_t> frame = EncodeSubmitResult(9, response);
  ParsedFrame parsed;
  size_t consumed = 0;
  ASSERT_EQ(TryParseFrame(frame.data(), frame.size(), &parsed, &consumed),
            WireError::kOk);
  WireResponse decoded;
  ASSERT_TRUE(DecodeSubmitResult(parsed, &decoded));
  EXPECT_TRUE(decoded.accepted());
  EXPECT_EQ(decoded.worker_id, 1);
  EXPECT_EQ(decoded.e2e_us, 60);
  EXPECT_EQ(decoded.latent_checksum, response.latent_checksum);
}

TEST(WireTest, ErrorRoundTrip) {
  const std::vector<uint8_t> frame =
      EncodeError(5, WireError::kOversizedFrame, "too big");
  ParsedFrame parsed;
  size_t consumed = 0;
  ASSERT_EQ(TryParseFrame(frame.data(), frame.size(), &parsed, &consumed),
            WireError::kOk);
  WireErrorBody body;
  ASSERT_TRUE(DecodeError(parsed, &body));
  EXPECT_EQ(static_cast<WireError>(body.code), WireError::kOversizedFrame);
  EXPECT_EQ(body.message, "too big");
}

TEST(WireTest, NeedMoreOnPartialFrames) {
  const std::vector<uint8_t> frame = EncodeSubmit(1, WireRequest{});
  ParsedFrame parsed;
  size_t consumed = 0;
  // Every strict prefix wants more bytes; nothing is consumed.
  for (size_t n = 0; n < frame.size(); ++n) {
    EXPECT_EQ(TryParseFrame(frame.data(), n, &parsed, &consumed),
              WireError::kNeedMore)
        << "prefix " << n;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(WireTest, DistinctHeaderErrors) {
  const auto craft = [](uint32_t magic, uint16_t version, uint16_t type,
                        uint32_t len) {
    std::vector<uint8_t> bytes;
    ByteWriter writer(bytes);
    writer.U32(magic);
    writer.U16(version);
    writer.U16(type);
    writer.U64(1);
    writer.U32(len);
    return bytes;
  };
  ParsedFrame parsed;
  size_t consumed = 0;

  // Bad magic is detected from the first 4 bytes alone.
  const std::vector<uint8_t> garbage = {'H', 'T', 'T', 'P'};
  EXPECT_EQ(TryParseFrame(garbage.data(), garbage.size(), &parsed, &consumed),
            WireError::kBadMagic);

  auto bad_version = craft(kWireMagic, 99, 1, 0);
  EXPECT_EQ(
      TryParseFrame(bad_version.data(), bad_version.size(), &parsed,
                    &consumed),
      WireError::kBadVersion);

  auto bad_type = craft(kWireMagic, kWireVersion, 77, 0);
  EXPECT_EQ(TryParseFrame(bad_type.data(), bad_type.size(), &parsed,
                          &consumed),
            WireError::kBadType);

  auto oversized = craft(kWireMagic, kWireVersion, 1, kMaxPayloadBytes + 1);
  EXPECT_EQ(TryParseFrame(oversized.data(), oversized.size(), &parsed,
                          &consumed),
            WireError::kOversizedFrame);
  EXPECT_EQ(consumed, 0u);  // Errors never consume.
}

std::vector<uint8_t> FromHex(const std::string& hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<uint8_t>(std::stoi(hex.substr(i, 2), nullptr,
                                                  16)));
  }
  return out;
}

// One submit (engine 1, 8 steps, template 3, seed 5, SLO 250 ms, 4x4
// grid, tokens 1 and 6 masked) as a v2 and a v3 peer send it, byte for
// byte. v2 carries no resolution pair; v3's layout is today's.
constexpr char kV2SubmitHex[] =
    "46505331" "0200" "0100" "2100000000000000" "2d000000"  // Header.
    "01" "08000000"                                    // Engine, steps.
    "03000000" "0500000000000000" "90d0030000000000"   // Template, seed, SLO.
    "04000000" "04000000" "02000000" "01000000" "06000000";  // Grid, mask.
constexpr char kV3SubmitHex[] =
    "46505331" "0300" "0100" "2100000000000000" "35000000"  // Header.
    "01" "08000000"                                    // Engine, steps.
    "03000000" "0500000000000000" "90d0030000000000"   // Template, seed, SLO.
    "04000000" "04000000" "02000000" "01000000" "06000000"   // Grid, mask.
    "04000000" "04000000";                                   // Resolution.

TEST(WireTest, OlderSubmitVersionsStillDecode) {
  for (const char* hex : {kV2SubmitHex, kV3SubmitHex}) {
    const std::vector<uint8_t> bytes = FromHex(hex);
    ParsedFrame parsed;
    size_t consumed = 0;
    ASSERT_EQ(TryParseFrame(bytes.data(), bytes.size(), &parsed, &consumed),
              WireError::kOk);
    EXPECT_EQ(consumed, bytes.size());
    SCOPED_TRACE(testing::Message() << "v" << parsed.header.version);
    WireRequest decoded;
    std::string error;
    ASSERT_TRUE(DecodeSubmit(parsed, &decoded, &error)) << error;
    EXPECT_EQ(decoded.engine_mode, 1);
    EXPECT_EQ(decoded.denoise_steps, 8);
    EXPECT_EQ(decoded.request.template_id, 3);
    EXPECT_EQ(decoded.request.prompt_seed, 5u);
    EXPECT_EQ(decoded.request.slo.micros(), 250000);
    EXPECT_EQ(decoded.request.mask.grid_h, 4);
    EXPECT_EQ(decoded.request.mask.grid_w, 4);
    EXPECT_EQ(decoded.request.mask.masked_tokens, (std::vector<int>{1, 6}));
    EXPECT_EQ(decoded.request.mask.unmasked_tokens.size(), 14u);

    // Today's encoder writes the v3 layout under its own version.
    std::vector<uint8_t> v3 = FromHex(kV3SubmitHex);
    v3[4] = static_cast<uint8_t>(kWireVersion);
    EXPECT_EQ(EncodeSubmit(0x21, decoded), v3);
  }
}

TEST(WireTest, MalformedSubmitPayloadRejected) {
  ParsedFrame frame;
  frame.header.type = static_cast<uint16_t>(FrameType::kSubmit);
  frame.payload = {0xFF, 0xFF, 0xFF};
  WireRequest decoded;
  std::string error;
  EXPECT_FALSE(DecodeSubmit(frame, &decoded, &error));
  EXPECT_FALSE(error.empty());

  // A valid payload with trailing junk is also malformed.
  WireRequest request;
  request.request = MakeRequest();
  const std::vector<uint8_t> good = EncodeSubmit(1, request);
  ParsedFrame parsed;
  size_t consumed = 0;
  ASSERT_EQ(TryParseFrame(good.data(), good.size(), &parsed, &consumed),
            WireError::kOk);
  parsed.payload.push_back(0x00);
  EXPECT_FALSE(DecodeSubmit(parsed, &decoded, &error));
}

TEST(WireTest, LatentChecksumTracksShapeAndBits) {
  Matrix a(4, 4);
  Matrix b(4, 4);
  EXPECT_EQ(LatentChecksum(a), LatentChecksum(b));
  b.at(2, 3) += 1e-6f;
  EXPECT_NE(LatentChecksum(a), LatentChecksum(b));
  Matrix c(2, 8);  // Same values, different shape.
  EXPECT_NE(LatentChecksum(a), LatentChecksum(c));
}

// --- socket I/O -----------------------------------------------------------

TEST(TcpServerSocketTest, AcceptedSocketsAreNonBlockingWithNoDelay) {
  uint16_t port = 0;
  const UniqueFd listener = OpenListener(0, 4, &port);
  ASSERT_TRUE(listener.valid());
  // Nothing pending: no connection, and no blocking wait for one.
  EXPECT_FALSE(AcceptTcp(listener.get()).valid());

  const UniqueFd client = ConnectTcp("127.0.0.1", port);
  ASSERT_TRUE(client.valid());
  pollfd pfd{listener.get(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 5000), 1);
  const UniqueFd accepted = AcceptTcp(listener.get());
  ASSERT_TRUE(accepted.valid());
  // Without TCP_NODELAY a reply smaller than a segment waits for the
  // peer's delayed ACK.
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(accepted.get(), IPPROTO_TCP, TCP_NODELAY, &nodelay,
                         &len),
            0);
  EXPECT_NE(nodelay, 0);
  EXPECT_NE(::fcntl(accepted.get(), F_GETFL, 0) & O_NONBLOCK, 0);
}

// The reply to metrics query `seq`: 1 MiB and change for odd seqs, a few
// bytes for even ones, every byte a function of its seq and offset.
std::string PatternReply(uint64_t seq) {
  std::string body(seq % 2 == 1 ? (1u << 20) + seq : 17 + seq, '\0');
  for (size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<char>(i * 131 + seq * 7);
  }
  return body;
}

TEST(TcpServerSocketTest, PipelinedLargeRepliesArriveWholeAndInOrder) {
  TcpServer server([](const ParsedFrame& frame) {
    return InlineReply{
        EncodeMetricsReport(frame.header.seq, PatternReply(frame.header.seq))};
  });
  ASSERT_TRUE(server.Start());
  const UniqueFd fd = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.valid());
  // ~6 MiB of replies to one burst of queries: more than the socket
  // buffers hold, so the server's writer must resume frames mid-way.
  constexpr uint64_t kQueries = 12;
  std::vector<uint8_t> burst;
  for (uint64_t seq = 1; seq <= kQueries; ++seq) {
    const std::vector<uint8_t> query = EncodeMetricsQuery(seq);
    burst.insert(burst.end(), query.begin(), query.end());
  }
  ASSERT_TRUE(SendAll(fd.get(), burst.data(), burst.size()));

  std::vector<uint8_t> buf;
  size_t offset = 0;
  uint64_t next = 1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (next <= kQueries && std::chrono::steady_clock::now() < deadline) {
    ParsedFrame frame;
    size_t consumed = 0;
    const WireError err = TryParseFrame(buf.data() + offset,
                                        buf.size() - offset, &frame, &consumed);
    if (err == WireError::kOk) {
      offset += consumed;
      ASSERT_EQ(frame.type(), FrameType::kMetricsReport);
      ASSERT_EQ(frame.header.seq, next);
      ASSERT_TRUE(std::string(frame.payload.begin(), frame.payload.end()) ==
                  PatternReply(next))
          << "reply " << next << " arrived corrupted";
      ++next;
      continue;
    }
    ASSERT_EQ(err, WireError::kNeedMore);
    pollfd pfd{fd.get(), POLLIN, 0};
    if (::poll(&pfd, 1, 1000) <= 0) {
      continue;
    }
    uint8_t chunk[4096];
    const ssize_t n = ::recv(fd.get(), chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0) << "the server closed mid-reply";
    buf.insert(buf.end(), chunk, chunk + n);
  }
  EXPECT_EQ(next, kQueries + 1) << "replies missing by the deadline";
  EXPECT_EQ(offset, buf.size()) << "bytes after the last reply";
  server.Stop();
}

TEST(TcpServerSocketTest, BlockedBurstHasAlreadySentItsEarlierReplies) {
  // Replies leave once 64 KB of them wait, not after the whole burst: a
  // service stuck partway through a burst has already sent what it
  // answered before it stuck.
  constexpr uint64_t kQueries = 16;
  constexpr uint64_t kStuckAt = 10;
  const std::string body(30 * 1024, 'r');
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  TcpServer server([&](const ParsedFrame& frame) {
    if (frame.header.seq == kStuckAt) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return released; });
    }
    return InlineReply{EncodeMetricsReport(frame.header.seq, body)};
  });
  ASSERT_TRUE(server.Start());
  const auto release = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  };
  const UniqueFd fd = ConnectTcp("127.0.0.1", server.port());
  std::vector<uint8_t> burst;
  for (uint64_t seq = 1; seq <= kQueries; ++seq) {
    const std::vector<uint8_t> query = EncodeMetricsQuery(seq);
    burst.insert(burst.end(), query.begin(), query.end());
  }
  if (!fd.valid() || !SendAll(fd.get(), burst.data(), burst.size())) {
    release();
    FAIL() << "cannot send the burst";
  }

  // Reads replies in order until `want` have arrived or `wait` passes.
  std::vector<uint8_t> buf;
  size_t offset = 0;
  uint64_t received = 0;
  const auto read_until = [&](uint64_t want, std::chrono::milliseconds wait) {
    const auto deadline = std::chrono::steady_clock::now() + wait;
    while (received < want && std::chrono::steady_clock::now() < deadline) {
      ParsedFrame frame;
      size_t consumed = 0;
      if (TryParseFrame(buf.data() + offset, buf.size() - offset, &frame,
                        &consumed) == WireError::kOk) {
        offset += consumed;
        EXPECT_EQ(frame.header.seq, received + 1);
        ++received;
        continue;
      }
      pollfd pfd{fd.get(), POLLIN, 0};
      if (::poll(&pfd, 1, 50) <= 0) {
        continue;
      }
      uint8_t chunk[64 * 1024];
      const ssize_t n = ::recv(fd.get(), chunk, sizeof(chunk), 0);
      if (n <= 0) {
        return;
      }
      buf.insert(buf.end(), chunk, chunk + n);
    }
  };
  // Three replies pass 64 KB, so at least the first three have left while
  // the service is stuck on reply kStuckAt.
  read_until(3, std::chrono::seconds(5));
  const uint64_t before_release = received;
  release();
  read_until(kQueries, std::chrono::seconds(10));
  server.Stop();
  EXPECT_GE(before_release, 3u) << "replies held back behind a stuck burst";
  EXPECT_EQ(received, kQueries);
}

// --- live server robustness ----------------------------------------------

class TcpServerTest : public ::testing::Test {
 protected:
  static gateway::GatewayOptions FastOptions() {
    gateway::GatewayOptions options;
    options.num_workers = 1;
    options.worker.numerics = model::NumericsConfig::ForTests();
    options.worker.numerics.num_steps = 2;
    options.admission_control = false;
    return options;
  }

  // Reads whatever arrives on a raw socket until `timeout`, EOF, or a full
  // frame; returns the parse result.
  static WireError ReadOneFrame(int fd, ParsedFrame* out,
                                std::chrono::milliseconds timeout =
                                    std::chrono::milliseconds(2000)) {
    std::vector<uint8_t> buf;
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (;;) {
      size_t consumed = 0;
      const WireError err =
          TryParseFrame(buf.data(), buf.size(), out, &consumed);
      if (err != WireError::kNeedMore) {
        return err;
      }
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        return WireError::kTimeout;
      }
      pollfd pfd{fd, POLLIN, 0};
      const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - now);
      if (::poll(&pfd, 1, static_cast<int>(wait.count())) <= 0) {
        return WireError::kTimeout;
      }
      uint8_t chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        return WireError::kConnectionClosed;
      }
      buf.insert(buf.end(), chunk, chunk + n);
    }
  }

  // True when the peer closes the connection within `timeout`.
  static bool WaitForClose(int fd, std::chrono::milliseconds timeout =
                                       std::chrono::milliseconds(2000)) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (;;) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        return false;
      }
      pollfd pfd{fd, POLLIN, 0};
      const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - now);
      if (::poll(&pfd, 1, static_cast<int>(wait.count())) <= 0) {
        continue;
      }
      uint8_t chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n == 0) {
        return true;
      }
      if (n < 0) {
        return errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR;
      }
      // Discard payload (e.g. the error frame preceding the close).
    }
  }
};

TEST_F(TcpServerTest, GarbageMagicGetsDistinctErrorThenClose) {
  gateway::Gateway gateway(FastOptions());
  TcpServer server(gateway);
  ASSERT_TRUE(server.Start());

  UniqueFd fd = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.valid());
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(SendAll(fd.get(), garbage, sizeof(garbage) - 1));

  ParsedFrame frame;
  ASSERT_EQ(ReadOneFrame(fd.get(), &frame), WireError::kOk);
  ASSERT_EQ(frame.type(), FrameType::kError);
  WireErrorBody body;
  ASSERT_TRUE(DecodeError(frame, &body));
  EXPECT_EQ(static_cast<WireError>(body.code), WireError::kBadMagic);
  EXPECT_TRUE(WaitForClose(fd.get()));
  EXPECT_EQ(server.Stats().bad_magic, 1u);
  server.Stop();
  gateway.Stop();
}

TEST_F(TcpServerTest, BadVersionAndOversizedAreDistinct) {
  gateway::Gateway gateway(FastOptions());
  TcpServer server(gateway);
  ASSERT_TRUE(server.Start());

  const auto probe = [&](uint16_t version, uint16_t type, uint32_t len) {
    std::vector<uint8_t> bytes;
    ByteWriter writer(bytes);
    writer.U32(kWireMagic);
    writer.U16(version);
    writer.U16(type);
    writer.U64(1);
    writer.U32(len);
    UniqueFd fd = ConnectTcp("127.0.0.1", server.port());
    EXPECT_TRUE(fd.valid());
    EXPECT_TRUE(SendAll(fd.get(), bytes.data(), bytes.size()));
    ParsedFrame frame;
    EXPECT_EQ(ReadOneFrame(fd.get(), &frame), WireError::kOk);
    EXPECT_EQ(frame.type(), FrameType::kError);
    WireErrorBody body;
    EXPECT_TRUE(DecodeError(frame, &body));
    EXPECT_TRUE(WaitForClose(fd.get()));
    return static_cast<WireError>(body.code);
  };

  EXPECT_EQ(probe(99, 1, 0), WireError::kBadVersion);
  EXPECT_EQ(probe(kWireVersion, 77, 0), WireError::kBadType);
  EXPECT_EQ(probe(kWireVersion, 1, kMaxPayloadBytes + 1),
            WireError::kOversizedFrame);
  const TcpServerStats stats = server.Stats();
  EXPECT_EQ(stats.bad_version, 1u);
  EXPECT_EQ(stats.bad_type, 1u);
  EXPECT_EQ(stats.oversized, 1u);
  server.Stop();
  gateway.Stop();
}

TEST_F(TcpServerTest, MalformedPayloadRejectedNotCrashed) {
  gateway::Gateway gateway(FastOptions());
  TcpServer server(gateway);
  ASSERT_TRUE(server.Start());

  // Valid header, kSubmit type, garbage payload bytes.
  std::vector<uint8_t> payload(32, 0xFF);
  const std::vector<uint8_t> frame =
      EncodeFrame(FrameType::kSubmit, 1, payload);
  UniqueFd fd = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.valid());
  ASSERT_TRUE(SendAll(fd.get(), frame.data(), frame.size()));
  ParsedFrame reply;
  ASSERT_EQ(ReadOneFrame(fd.get(), &reply), WireError::kOk);
  ASSERT_EQ(reply.type(), FrameType::kError);
  WireErrorBody body;
  ASSERT_TRUE(DecodeError(reply, &body));
  EXPECT_EQ(static_cast<WireError>(body.code), WireError::kMalformedPayload);
  EXPECT_EQ(server.Stats().malformed, 1u);
  server.Stop();
  gateway.Stop();
}

TEST_F(TcpServerTest, TruncatedFrameOnDisconnectIsCounted) {
  gateway::Gateway gateway(FastOptions());
  TcpServer server(gateway);
  ASSERT_TRUE(server.Start());

  WireRequest request;
  request.request = MakeRequest();
  const std::vector<uint8_t> frame = EncodeSubmit(1, request);
  {
    UniqueFd fd = ConnectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(fd.valid());
    // Half a frame, then disconnect.
    ASSERT_TRUE(SendAll(fd.get(), frame.data(), frame.size() / 2));
  }
  // The server must count the truncation and stay healthy for new clients.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (server.Stats().truncated == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.Stats().truncated, 1u);

  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.Connect());
  auto response = client.Call(request, std::chrono::milliseconds(30000));
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->accepted());
  server.Stop();
  gateway.Stop();
}

TEST_F(TcpServerTest, ClientDisconnectMidRequestOrphansCompletion) {
  // Enough steps that the request is still running when the client
  // vanishes: a reply that lands before the server sees the disconnect is
  // delivered, not orphaned.
  gateway::GatewayOptions options = FastOptions();
  options.worker.numerics.num_steps = 48;
  gateway::Gateway gateway(options);
  TcpServer server(gateway);
  ASSERT_TRUE(server.Start());

  WireRequest request;
  request.request = MakeRequest();
  const std::vector<uint8_t> frame = EncodeSubmit(1, request);
  {
    UniqueFd fd = ConnectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(fd.valid());
    ASSERT_TRUE(SendAll(fd.get(), frame.data(), frame.size()));
    // Wait until the request is actually in flight, then vanish.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (server.Stats().submits_accepted == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(server.Stats().submits_accepted, 1u);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.Stats().orphaned_completions == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.Stats().orphaned_completions, 1u);
  EXPECT_EQ(server.inflight(), 0u);
  server.Stop();
  gateway.Stop();
}

TEST_F(TcpServerTest, StopWithInflightConnectionsDrains) {
  gateway::Gateway gateway(FastOptions());
  TcpServer server(gateway);
  ASSERT_TRUE(server.Start());

  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.Connect());
  std::vector<uint64_t> seqs;
  for (int i = 0; i < 4; ++i) {
    WireRequest request;
    request.request = MakeRequest(100 + i);
    const uint64_t seq = client.Send(request);
    ASSERT_NE(seq, 0u);
    seqs.push_back(seq);
  }
  // Wait until all four are accepted (draining stops reading, so frames
  // still in the kernel buffer would be dropped, not drained).
  const auto accept_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.Stats().submits_accepted < 4 &&
         std::chrono::steady_clock::now() < accept_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.Stats().submits_accepted, 4u);
  // Stop while requests are in flight: it must return (bounded by
  // drain_timeout) with every accepted request answered.
  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.inflight(), 0u);

  int answered = 0;
  for (uint64_t seq : seqs) {
    client.Pump(std::chrono::milliseconds(50));
    if (client.TryTake(seq)) {
      ++answered;
    }
  }
  // The replies were flushed before the close; all four must have landed.
  EXPECT_EQ(answered, 4);
  gateway.Stop();
}

// A backend whose accepted submits never complete.
class NeverCompletes : public WireFrontend {
 public:
  class Completion : public WireCompletion {
   public:
    bool Ready() override { return false; }
    WireResponse Take() override { return {}; }
  };
  WireSubmission Submit(WireRequest) override {
    WireSubmission sub;
    sub.status = gateway::SubmitStatus::kAccepted;
    sub.completion = std::make_unique<Completion>();
    return sub;
  }
  std::string MetricsJson() override { return "{}"; }
};

TEST_F(TcpServerTest, DrainDeadlineOrphansUnfinishedCompletions) {
  // A reply still owed at the drain deadline can never be sent: Stop()
  // returns at the deadline and counts it orphaned, not in flight.
  NeverCompletes frontend;
  TcpServerOptions options;
  options.drain_timeout = std::chrono::milliseconds(100);
  TcpServer server(frontend, options);
  ASSERT_TRUE(server.Start());
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.Connect());
  WireRequest request;
  request.request = MakeRequest();
  ASSERT_NE(client.Send(request), 0u);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.Stats().submits_accepted == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.inflight(), 1u);

  const auto stop_begin = std::chrono::steady_clock::now();
  server.Stop();
  EXPECT_GE(std::chrono::steady_clock::now() - stop_begin,
            options.drain_timeout);
  EXPECT_EQ(server.Stats().orphaned_completions, 1u);
  EXPECT_EQ(server.inflight(), 0u);
}

TEST_F(TcpServerTest, NotifiedCompletionIsRepliedAtOnce) {
  // The completion turns ready 200 ms after submit and notifies. The
  // server must reply within a few ms of that, having checked Ready() a
  // handful of times — not once per 500 µs poll (~400 times).
  stub::DelayedFrontend frontend(std::chrono::milliseconds(200), "{}");
  TcpServer server(frontend);
  ASSERT_TRUE(server.Start());
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.Connect());
  WireRequest request;
  request.request = MakeRequest();
  const uint64_t seq = client.Send(request);
  ASSERT_NE(seq, 0u);
  const std::optional<WireResponse> reply =
      client.Await(seq, std::chrono::milliseconds(10000));
  const auto replied = std::chrono::steady_clock::now();
  ASSERT_TRUE(reply.has_value()) << ToString(client.last_error());
  EXPECT_EQ(reply->latent_checksum, 0xD1A7ull);
  // Generous for a sanitizer build on a loaded host; a missed notify
  // would never be answered at all.
  EXPECT_LT(replied - frontend.ready_at(), std::chrono::milliseconds(100));
  EXPECT_LE(frontend.ready_calls(), 8);
  server.Stop();
}

// A backend that keeps each request's notify_ready and never completes.
class KeepsNotify : public WireFrontend {
 public:
  WireSubmission Submit(WireRequest request) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      notify_ = std::move(request.notify_ready);
    }
    WireSubmission sub;
    sub.status = gateway::SubmitStatus::kAccepted;
    sub.completion = std::make_unique<NeverCompletes::Completion>();
    return sub;
  }
  std::string MetricsJson() override { return "{}"; }
  std::function<void()> notify() {
    std::lock_guard<std::mutex> lock(mu_);
    return notify_;
  }

 private:
  std::mutex mu_;
  std::function<void()> notify_;
};

TEST_F(TcpServerTest, NotifyAfterStopOrDestructionIsHarmless) {
  // The DrainDeadlineOrphansUnfinishedCompletions setup, with the
  // request's notify kept: it fires (from another thread, the whole
  // time) while Stop() orphans the completion at the drain deadline,
  // after Stop(), and after the server is destroyed. None of it may
  // touch freed memory or wake anything that is gone.
  KeepsNotify frontend;
  TcpServerOptions options;
  options.drain_timeout = std::chrono::milliseconds(100);
  auto server = std::make_unique<TcpServer>(frontend, options);
  ASSERT_TRUE(server->Start());
  Client client("127.0.0.1", server->port());
  ASSERT_TRUE(client.Connect());
  WireRequest request;
  request.request = MakeRequest();
  ASSERT_NE(client.Send(request), 0u);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server->Stats().submits_accepted == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server->inflight(), 1u);
  const std::function<void()> notify = frontend.notify();
  ASSERT_TRUE(notify != nullptr);

  std::atomic<bool> stop_ringing{false};
  std::thread ringer([&] {
    while (!stop_ringing.load()) {
      notify();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  server->Stop();
  EXPECT_EQ(server->Stats().orphaned_completions, 1u);
  EXPECT_EQ(server->inflight(), 0u);
  notify();
  server.reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop_ringing.store(true);
  ringer.join();
  notify();
}

TEST_F(TcpServerTest, RepeatedConnectDisconnectLeaksNoFds) {
  gateway::Gateway gateway(FastOptions());
  TcpServer server(gateway);
  ASSERT_TRUE(server.Start());

  // Let the server settle, then baseline open fds.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const int baseline = CountOpenFds();
  for (int i = 0; i < 20; ++i) {
    UniqueFd fd = ConnectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(fd.valid());
    if (i % 2 == 0) {
      const char junk[] = "junkjunk";
      SendAll(fd.get(), junk, sizeof(junk) - 1);
    }
  }
  // All 20 server-side fds must be reaped once the peers are gone.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.Stats().connections_closed < 20 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.Stats().connections_closed, 20u);
  EXPECT_EQ(CountOpenFds(), baseline);
  server.Stop();
  gateway.Stop();
}

TEST_F(TcpServerTest, BackpressureStallsInsteadOfQueueingUnbounded) {
  gateway::Gateway gateway(FastOptions());
  TcpServerOptions options;
  options.max_inflight_per_conn = 1;  // Stall after one accepted request.
  TcpServer server(gateway, options);
  ASSERT_TRUE(server.Start());

  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.Connect());
  std::vector<uint64_t> seqs;
  for (int i = 0; i < 4; ++i) {
    WireRequest request;
    request.request = MakeRequest(200 + i);
    const uint64_t seq = client.Send(request);
    ASSERT_NE(seq, 0u);
    seqs.push_back(seq);
  }
  // Every request is still answered (the stall is flow control, not drop).
  for (uint64_t seq : seqs) {
    auto response = client.Await(seq, std::chrono::milliseconds(30000));
    ASSERT_TRUE(response.has_value()) << ToString(client.last_error());
    EXPECT_TRUE(response->accepted());
  }
  EXPECT_GE(server.Stats().backpressure_stalls, 1u);
  server.Stop();
  gateway.Stop();
}

TEST_F(TcpServerTest, ClientReconnectsWithBackoff) {
  // Reserve an ephemeral port, release it, and start the server there only
  // after the client has already begun its backoff retries.
  uint16_t port = 0;
  {
    UniqueFd probe = OpenListener(0, 1, &port);
    ASSERT_TRUE(probe.valid());
  }
  gateway::Gateway gateway(FastOptions());
  TcpServerOptions options;
  options.port = port;
  TcpServer server(gateway, options);

  std::thread starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    ASSERT_TRUE(server.Start());
  });
  ClientOptions client_options;
  client_options.connect_attempts = 8;
  client_options.connect_backoff = std::chrono::milliseconds(40);
  Client client("127.0.0.1", port, client_options);
  EXPECT_TRUE(client.Connect());
  starter.join();

  WireRequest request;
  request.request = MakeRequest();
  auto response = client.Call(request, std::chrono::milliseconds(30000));
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->accepted());
  server.Stop();
  gateway.Stop();
}

TEST_F(TcpServerTest, ConnectFailureAfterAttemptsReportsClosed) {
  uint16_t dead_port = 0;
  {
    UniqueFd probe = OpenListener(0, 1, &dead_port);
    ASSERT_TRUE(probe.valid());
  }
  ClientOptions options;
  options.connect_attempts = 2;
  options.connect_backoff = std::chrono::milliseconds(10);
  Client client("127.0.0.1", dead_port, options);
  EXPECT_FALSE(client.Connect());
  EXPECT_EQ(client.last_error(), WireError::kConnectionClosed);
}

TEST_F(TcpServerTest, AwaitTimesOutWhenServerNeverAnswers) {
  // A bare listener that accepts but never replies.
  uint16_t port = 0;
  UniqueFd listener = OpenListener(0, 4, &port);
  ASSERT_TRUE(listener.valid());

  Client client("127.0.0.1", port);
  ASSERT_TRUE(client.Connect());
  WireRequest request;
  request.request = MakeRequest();
  const uint64_t seq = client.Send(request);
  ASSERT_NE(seq, 0u);
  auto response = client.Await(seq, std::chrono::milliseconds(120));
  EXPECT_FALSE(response.has_value());
  EXPECT_EQ(client.last_error(), WireError::kTimeout);
}

}  // namespace
}  // namespace flashps::net
