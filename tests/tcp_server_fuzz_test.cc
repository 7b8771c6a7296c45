// The serving tier's submit decoder under mutated input: seeded mutations
// (bit flips, truncation, lying length fields, type and seq swaps, spliced
// frames, tests/wire_fuzz.h) of kSubmit frames at every version the
// server accepts — v2 (no resolution fields), v3 and v4 (one layout) —
//
//   fed straight to DecodeSubmit, where every request it accepts must be
//   well-formed: grid in range, strictly increasing tokens, and a
//   resolution equal to the mask grid; and
//   written through a real socket to a TcpServer over a stub frontend
//   whose completions are ready at once, where every frame gets its
//   kSubmitResult (or metrics report, or auth ack), or a kError and a
//   close — exactly the replies a shadow decode predicts.
//
// Afterwards a clean client at each version still gets its reply. A
// failing case prints its seed.
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/rng.h"
#include "src/net/client.h"
#include "src/net/frontend.h"
#include "src/net/socket_util.h"
#include "src/net/tcp_server.h"
#include "src/runtime/serde.h"
#include "tests/wire_fuzz.h"

namespace flashps::net {
namespace {

using fuzz::Frames;
using fuzz::Mutate;
using fuzz::Mutation;

constexpr uint64_t kFuzzSeed = 0x5B317F022ull;
// About one case in four stops at a header check before any frame
// reaches the decoder; 30,000 cases feed it over 20,000 frames.
constexpr int kDecodeCases = 30000;
constexpr int kSocketCases = 400;
constexpr uint16_t kVersions[] = {2, 3, 4};
constexpr char kStubMetrics[] = "{\"stub\":1}";

// A random well-formed request: any grid up to 16 x 16 with a random
// sorted subset of its tokens masked.
WireRequest AnyRequest(Rng& rng) {
  WireRequest wire;
  wire.engine_mode = static_cast<uint8_t>(rng.NextBelow(2));
  wire.denoise_steps = 1 + static_cast<int32_t>(rng.NextBelow(50));
  runtime::OnlineRequest& request = wire.request;
  request.template_id = static_cast<int>(rng.NextBelow(20));
  request.prompt_seed = rng.NextU64();
  request.slo = Duration::Micros(static_cast<int64_t>(rng.NextBelow(1000000)));
  request.mask.grid_h = 1 + static_cast<int>(rng.NextBelow(16));
  request.mask.grid_w = 1 + static_cast<int>(rng.NextBelow(16));
  const uint64_t keep = 1 + rng.NextBelow(4);  // Mask 1/4 .. all tokens.
  for (int t = 0; t < request.mask.total_tokens(); ++t) {
    (rng.NextBelow(4) < keep ? request.mask.masked_tokens
                             : request.mask.unmasked_tokens)
        .push_back(t);
  }
  return wire;
}

// `frame`, a submit EncodeSubmit wrote at kWireVersion, as a peer at
// `version` sends it: v2 drops the trailing resolution pair.
std::vector<uint8_t> AtVersion(std::vector<uint8_t> frame, uint16_t version) {
  if (version < kResolutionWireVersion) {
    frame.resize(frame.size() - 8);
    fuzz::SetLe(frame, fuzz::kLenAt, frame.size() - kFrameHeaderBytes, 4);
  }
  fuzz::SetLe(frame, fuzz::kVersionAt, version, 2);
  return frame;
}

std::vector<uint8_t> AnySubmit(uint64_t seq, Rng& rng) {
  const uint16_t version = kVersions[rng.NextBelow(3)];
  return AtVersion(EncodeSubmit(seq, AnyRequest(rng)), version);
}

// One mutated submit stream, drawn from `seed`.
std::vector<uint8_t> MutatedStream(uint64_t seed) {
  Rng rng(seed);
  const auto mutation = static_cast<Mutation>(
      rng.NextBelow(static_cast<uint64_t>(Mutation::kCount)));
  const uint64_t seq = 100 + rng.NextBelow(1000);
  std::vector<uint8_t> frame = AnySubmit(seq, rng);
  return Mutate(std::move(frame), AnySubmit(seq + 1, rng), mutation, rng);
}

// Checks the invariants of a request DecodeSubmit accepted from `frame`.
void ExpectWellFormed(const ParsedFrame& frame, const WireRequest& wire) {
  const trace::Mask& mask = wire.request.mask;
  EXPECT_LE(wire.engine_mode, 1);
  EXPECT_GT(wire.denoise_steps, 0);
  EXPECT_GE(wire.request.template_id, 0);
  EXPECT_GE(wire.request.slo.micros(), 0);
  ASSERT_GT(mask.grid_h, 0);
  ASSERT_GT(mask.grid_w, 0);
  ASSERT_LE(mask.grid_h, runtime::kMaxGridSide);
  ASSERT_LE(mask.grid_w, runtime::kMaxGridSide);
  // Masked and unmasked tokens are each strictly increasing and together
  // cover the grid exactly once.
  std::vector<int> all = mask.masked_tokens;
  all.insert(all.end(), mask.unmasked_tokens.begin(),
             mask.unmasked_tokens.end());
  EXPECT_TRUE(std::is_sorted(mask.masked_tokens.begin(),
                             mask.masked_tokens.end()));
  EXPECT_TRUE(std::is_sorted(mask.unmasked_tokens.begin(),
                             mask.unmasked_tokens.end()));
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<size_t>(mask.total_tokens()));
  for (size_t t = 0; t < all.size(); ++t) {
    ASSERT_EQ(all[t], static_cast<int>(t));
  }
  // The payload is exactly one request: fixed fields (37 bytes), the
  // masked ids, and from v3 on a resolution pair equal to the mask grid.
  const bool with_resolution = frame.header.version >= kResolutionWireVersion;
  ASSERT_EQ(frame.payload.size(),
            37 + 4 * mask.masked_tokens.size() + (with_resolution ? 8 : 0));
  if (with_resolution) {
    ByteReader r(frame.payload.data() + frame.payload.size() - 8, 8);
    EXPECT_EQ(r.I32(), mask.grid_h);
    EXPECT_EQ(r.I32(), mask.grid_w);
  }
}

TEST(TcpServerFuzzTest, MutatedSubmitsIntoDecodeSubmit) {
  int frames = 0;
  int accepted = 0;
  int accepted_at[5] = {};
  for (int i = 0; i < kDecodeCases && !HasFailure(); ++i) {
    const uint64_t seed = kFuzzSeed + static_cast<uint64_t>(i);
    SCOPED_TRACE(testing::Message() << "fuzz case seed " << seed);
    WireError header_error = WireError::kOk;
    // Every frame whatever its type: the invariants hold for anything the
    // decoder accepts.
    const std::vector<uint8_t> stream = MutatedStream(seed);
    for (const ParsedFrame& frame : Frames(stream, &header_error)) {
      ++frames;
      WireRequest request;
      std::string error;
      if (DecodeSubmit(frame, &request, &error)) {
        ++accepted;
        ++accepted_at[frame.header.version];
        ExpectWellFormed(frame, request);
      } else {
        EXPECT_FALSE(error.empty());
      }
    }
  }
  // A mutator nothing survives, or nothing breaks, tests nothing; and
  // each version must reach the decoder.
  EXPECT_GE(frames, 20000);
  EXPECT_GT(accepted, frames / 10);
  EXPECT_LT(accepted, frames - frames / 10);
  for (const uint16_t version : kVersions) {
    EXPECT_GT(accepted_at[version], accepted / 10) << "v" << version;
  }
  std::printf("%d cases: %d frames decoded, %d accepted (v2 %d, v3 %d, "
              "v4 %d)\n",
              kDecodeCases, frames, accepted, accepted_at[2], accepted_at[3],
              accepted_at[4]);
}

// The stub's reply to `wire`: a function of every decoded field, so a
// reply names the request it answers. Templates 6, 13, ... are shed at
// admission, which the server answers inline.
WireResponse StubReply(const WireRequest& wire) {
  WireResponse response;
  const bool shed = wire.request.template_id % 7 == 6;
  response.status = static_cast<uint8_t>(
      shed ? gateway::SubmitStatus::kShedOverload
           : gateway::SubmitStatus::kAccepted);
  response.worker_id = wire.request.template_id % 3;
  response.estimated_wall_us = wire.denoise_steps;
  if (shed) {
    return response;
  }
  std::vector<uint8_t> bytes;
  runtime::AppendOnlineRequest(wire.request, bytes);
  bytes.push_back(wire.engine_mode);
  response.e2e_us = wire.request.slo.micros();
  response.latent_checksum = Fnv1a64(bytes.data(), bytes.size());
  return response;
}

class ReadyCompletion : public WireCompletion {
 public:
  explicit ReadyCompletion(WireResponse response) : response_(response) {}
  bool Ready() override { return true; }
  WireResponse Take() override { return response_; }

 private:
  WireResponse response_;
};

class StubFrontend : public WireFrontend {
 public:
  WireSubmission Submit(WireRequest request) override {
    const WireResponse reply = StubReply(request);
    WireSubmission sub;
    sub.status = reply.submit_status();
    sub.worker_id = reply.worker_id;
    sub.estimated_wall_us = reply.estimated_wall_us;
    if (reply.accepted()) {
      sub.completion = std::make_unique<ReadyCompletion>(reply);
    }
    return sub;
  }
  std::string MetricsJson() override { return kStubMetrics; }
};

// One reply as a comparable string: an error frame by its seq and code
// (its message is free text), every other frame by its bytes.
std::string ReplyKey(const ParsedFrame& frame) {
  if (frame.type() == FrameType::kError) {
    WireErrorBody body;
    const bool ok = DecodeError(frame, &body);
    return "error seq " + std::to_string(frame.header.seq) + " code " +
           (ok ? ToString(static_cast<WireError>(body.code)) : "?");
  }
  const std::vector<uint8_t> bytes =
      EncodeFrame(frame.type(), frame.header.seq, frame.payload);
  return std::string(bytes.begin(), bytes.end());
}

std::string ReplyKey(const std::vector<uint8_t>& bytes) {
  ParsedFrame frame;
  size_t consumed = 0;
  EXPECT_EQ(TryParseFrame(bytes.data(), bytes.size(), &frame, &consumed),
            WireError::kOk);
  return ReplyKey(frame);
}

// The replies a TcpServer over StubFrontend owes `stream`, as ReplyKeys,
// and whether it closes the connection after them.
std::vector<std::string> ExpectedReplies(const std::vector<uint8_t>& stream,
                                         bool* close) {
  std::vector<std::string> want;
  WireError header_error = WireError::kOk;
  *close = false;
  for (const ParsedFrame& frame : Frames(stream, &header_error)) {
    const uint64_t seq = frame.header.seq;
    WireError refused = WireError::kOk;
    switch (frame.type()) {
      case FrameType::kSubmit: {
        WireRequest request;
        if (DecodeSubmit(frame, &request, nullptr)) {
          want.push_back(ReplyKey(EncodeSubmitResult(seq, StubReply(request))));
        } else {
          refused = WireError::kMalformedPayload;
        }
        break;
      }
      case FrameType::kMetricsQuery:
        want.push_back(ReplyKey(EncodeMetricsReport(seq, kStubMetrics)));
        break;
      case FrameType::kAuth: {
        AuthBody auth;
        if (DecodeAuth(frame, &auth, nullptr)) {
          want.push_back(ReplyKey(EncodeAuthOk(seq)));
        } else {
          refused = WireError::kMalformedPayload;
        }
        break;
      }
      default:
        refused = WireError::kBadType;
    }
    if (refused != WireError::kOk) {
      want.push_back(ReplyKey(EncodeError(seq, refused, "")));
      *close = true;
      return want;
    }
  }
  if (header_error != WireError::kOk) {
    want.push_back(ReplyKey(EncodeError(0, header_error, "")));
    *close = true;
  }
  return want;
}

// Reads reply frames from `fd` until `want` arrived and, when
// `until_close`, the peer closed. False when the deadline lapses first.
bool ReadReplies(int fd, size_t want, bool until_close,
                 std::vector<std::string>* got) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::vector<uint8_t> buf;
  while (got->size() < want || until_close) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{fd, POLLIN, 0};
    if (left.count() <= 0 ||
        ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
      return false;
    }
    uint8_t chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      return until_close && buf.empty() && got->size() >= want;
    }
    buf.insert(buf.end(), chunk, chunk + n);
    WireError error = WireError::kOk;
    size_t used = 0;
    for (const ParsedFrame& frame : Frames(buf, &error)) {
      got->push_back(ReplyKey(frame));
      used += kFrameHeaderBytes + frame.payload.size();
    }
    if (error != WireError::kOk) {
      return false;  // The server sent bytes that do not frame.
    }
    buf.erase(buf.begin(), buf.begin() + static_cast<ptrdiff_t>(used));
  }
  return true;
}

// A clean submit at every accepted version still gets its reply.
void ExpectCleanSubmitsAnswered(uint16_t port, uint64_t seed) {
  Rng rng(seed);
  for (const uint16_t version : kVersions) {
    SCOPED_TRACE(testing::Message() << "clean v" << version);
    WireRequest request = AnyRequest(rng);
    request.request.template_id = 1;  // Never shed.
    const std::vector<uint8_t> frame =
        AtVersion(EncodeSubmit(77, request), version);
    const UniqueFd fd = ConnectTcp("127.0.0.1", port);
    ASSERT_TRUE(fd.valid());
    ASSERT_TRUE(SendAll(fd.get(), frame.data(), frame.size()));
    std::vector<std::string> got;
    ASSERT_TRUE(ReadReplies(fd.get(), 1, false, &got));
    EXPECT_EQ(got[0], ReplyKey(EncodeSubmitResult(77, StubReply(request))));
  }
  // And through the wire client, which speaks kWireVersion.
  Client client("127.0.0.1", port);
  ASSERT_TRUE(client.Connect());
  WireRequest request = AnyRequest(rng);
  request.request.template_id = 2;
  const std::optional<WireResponse> reply = client.Call(request);
  ASSERT_TRUE(reply.has_value()) << ToString(client.last_error());
  EXPECT_EQ(reply->latent_checksum, StubReply(request).latent_checksum);
}

TEST(TcpServerFuzzTest, MutatedSubmitsThroughASocket) {
  StubFrontend frontend;
  TcpServer server(frontend);
  ASSERT_TRUE(server.Start());
  int closed = 0;
  size_t replies = 0;
  for (int i = 0; i < kSocketCases && !HasFailure(); ++i) {
    const uint64_t seed = kFuzzSeed + kDecodeCases + static_cast<uint64_t>(i);
    SCOPED_TRACE(testing::Message() << "fuzz case seed " << seed);
    const std::vector<uint8_t> stream = MutatedStream(seed);
    bool close = false;
    std::vector<std::string> want = ExpectedReplies(stream, &close);

    const UniqueFd fd = ConnectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(fd.valid());
    ASSERT_TRUE(SendAll(fd.get(), stream.data(), stream.size()));
    std::vector<std::string> got;
    EXPECT_TRUE(ReadReplies(fd.get(), want.size(), close, &got))
        << (close ? "no kError and close" : "replies missing")
        << " by the deadline; got " << got.size() << " of " << want.size()
        << " replies";
    // Submit results leave in completion order, inline replies at once:
    // compare as multisets.
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "the server's replies differ from the shadow's";
    closed += close ? 1 : 0;
    replies += got.size();
  }
  EXPECT_GT(closed, kSocketCases / 10);
  EXPECT_LT(closed, kSocketCases - kSocketCases / 10);
  std::printf("%d cases through the socket: %zu replies, %d closed by the "
              "server\n",
              kSocketCases, replies, closed);

  ExpectCleanSubmitsAnswered(server.port(), kFuzzSeed);
  server.Stop();
  EXPECT_EQ(server.inflight(), 0u);
}

}  // namespace
}  // namespace flashps::net
