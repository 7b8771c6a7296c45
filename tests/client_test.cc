// net::Client against a daemon whose replies the test controls: a
// service-mode TcpServer answers the client's real calls, so every byte
// goes through the client's own socket, framing and reply bank.
//
//   ClientTest      a call that misses its deadline closes the
//                   connection, so late replies never bank and the next
//                   call starts clean; a hit delivered split at every
//                   byte boundary decodes to the same bits.
//   ClientFuzzTest  seeded mutations of every reply type the client
//                   parses — submit result, metrics report, auth-ok,
//                   error, cache hit with and without a payload, cache
//                   miss — by bit flips, truncation, lying length fields,
//                   type and seq swaps and spliced frames; and targeted
//                   hit defects (a truncated body, a lying length, a
//                   wrong checksum, a duplicate seq, an unasked key) on a
//                   fetch in flight, which the client checks where the
//                   hit lands. Every call must return by its deadline,
//                   fail with a typed error, and never report a record or
//                   an ack it did not get.
#include <poll.h>
#include <sys/socket.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/rng.h"
#include "src/net/cache_node.h"
#include "src/net/client.h"
#include "src/net/socket_util.h"
#include "src/net/tcp_server.h"
#include "tests/cache_frames.h"
#include "tests/wire_fuzz.h"

namespace flashps::net {
namespace {

using fuzz::Mutate;
using fuzz::Mutation;
using fuzz::SameRecord;

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

// A record of `steps` x `blocks` small random matrices: Y, plus K and V
// when `kv`.
model::ActivationRecord TestRecord(int steps, int blocks, bool kv) {
  Rng rng(0x5EC0ull + static_cast<uint64_t>(steps * 16 + blocks));
  auto random = [&rng] {
    Matrix m(6, 5);
    m.FillNormal(rng, 1.0f);
    return m;
  };
  model::ActivationRecord record;
  record.steps.resize(static_cast<size_t>(steps));
  for (model::StepActivations& acts : record.steps) {
    for (int b = 0; b < blocks; ++b) {
      acts.y.push_back(random());
      if (kv) {
        acts.k.push_back(random());
        acts.v.push_back(random());
      }
    }
  }
  return record;
}

WireResponse CannedResponse() {
  WireResponse response;
  response.worker_id = 1;
  response.e2e_us = 1234;
  response.latent_checksum = 0xC0FFEEull;
  return response;
}

WireRequest CannedRequest() {
  WireRequest wire;
  wire.denoise_steps = 2;
  wire.request.template_id = 3;
  wire.request.prompt_seed = 7;
  return wire;
}

// Holds the server's poll thread inside the service until opened, so the
// replies it owes reach the client only after the client's deadline.
class Gate {
 public:
  void Pass() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::seconds(10), [&] { return open_; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(ClientTest, TimedOutFetchClosesAndLeavesNothingBanked) {
  CacheNode node;
  const InlineService answer = node.Service();
  Gate gate;
  TcpServer server([&](const ParsedFrame& frame) {
    if (frame.type() == FrameType::kCacheFetch) {
      gate.Pass();
    }
    return answer(frame);
  });
  ASSERT_TRUE(server.Start());

  // 2 steps x 4 blocks x {Y, K, V}: 24 fetches in one call.
  const model::ActivationRecord record = TestRecord(2, 4, /*kv=*/true);
  Client publisher("127.0.0.1", server.port());
  ASSERT_TRUE(publisher.PutRecord(5, record).transport_ok)
      << ToString(publisher.last_error());
  ClientOptions options;
  options.default_timeout = milliseconds(1000);  // Slack for sanitizers.
  Client client("127.0.0.1", server.port(), options);

  const FetchRecordResult late = client.FetchRecord(5, 2, 4, /*want_kv=*/true);
  gate.Open();  // The node now answers all 24, after the deadline.
  EXPECT_FALSE(late.transport_ok);
  EXPECT_EQ(client.last_error(), WireError::kTimeout);
  EXPECT_FALSE(client.connected());

  // The next call reconnects; no late reply lands in its bank.
  const FetchRecordResult fetched =
      client.FetchRecord(5, 2, 4, /*want_kv=*/true);
  ASSERT_TRUE(fetched.complete) << ToString(client.last_error());
  EXPECT_TRUE(SameRecord(*fetched.record, record));
  EXPECT_EQ(client.banked_responses(), 0u);
  server.Stop();
}

TEST(ClientTest, TimedOutAwaitClosesTheConnection) {
  Gate gate;
  TcpServer server([&](const ParsedFrame& frame) {
    gate.Pass();
    return InlineReply{EncodeSubmitResult(frame.header.seq, CannedResponse())};
  });
  ASSERT_TRUE(server.Start());

  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.Connect());
  EXPECT_FALSE(client.Call(CannedRequest(), milliseconds(100)).has_value());
  gate.Open();
  EXPECT_EQ(client.last_error(), WireError::kTimeout);
  EXPECT_FALSE(client.connected());

  ASSERT_TRUE(client.Connect());
  const auto reply = client.Call(CannedRequest(), milliseconds(10000));
  ASSERT_TRUE(reply.has_value()) << ToString(client.last_error());
  EXPECT_EQ(reply->latent_checksum, CannedResponse().latent_checksum);
  EXPECT_EQ(client.banked_responses(), 0u);
  server.Stop();
}

TEST(ClientTest, PutAckThatMisquotesTheChecksumFailsThePut) {
  CacheNode node;
  const InlineService answer = node.Service();
  TcpServer server([&](const ParsedFrame& frame) {
    InlineReply reply = answer(frame);
    if (frame.type() == FrameType::kCachePut) {
      // The ack's checksum follows the header and the 13-byte key.
      reply.frame[kFrameHeaderBytes + 13] ^= 1;
    }
    return reply;
  });
  ASSERT_TRUE(server.Start());

  Client client("127.0.0.1", server.port());
  const PutRecordResult put = client.PutRecord(5, TestRecord(1, 2, false));
  EXPECT_FALSE(put.transport_ok);
  EXPECT_EQ(put.puts, 0u);
  EXPECT_EQ(client.last_error(), WireError::kMalformedPayload);
  EXPECT_FALSE(client.connected());
  server.Stop();
}

// Reads exactly `n` bytes from a blocking-or-not socket, polling; false on
// EOF, error or a 10 s stall.
bool ReadExactly(int fd, uint8_t* out, size_t n) {
  size_t got = 0;
  while (got < n) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 10000) <= 0) {
      return false;
    }
    const ssize_t r = ::recv(fd, out + got, n - got, 0);
    if (r <= 0) {
      return false;
    }
    got += static_cast<size_t>(r);
  }
  return true;
}

TEST(ClientTest, HitSplitAtEveryByteBoundaryDecodesTheSameBits) {
  // A node that answers each one-matrix fetch with the hit frame cut in
  // two at byte k, the halves a moment apart, for every k in the frame —
  // at each dtype. The client frames and decodes each hit where it lands;
  // the record must come out bit for bit what the node holds.
  const Matrix stored = [] {
    Rng rng(0x5B17ull);
    Matrix m(3, 5);
    m.FillNormal(rng, 1.0f);
    return m;
  }();
  const quant::Dtype dtypes[] = {quant::Dtype::kF32, quant::Dtype::kF16,
                                 quant::Dtype::kI8};
  uint16_t port = 0;
  UniqueFd listener = OpenListener(0, 4, &port);
  ASSERT_TRUE(listener.valid());
  const size_t fetch_bytes = EncodeCacheFetch(1, CacheKey{}).size();

  std::thread node([&] {
    pollfd pfd{listener.get(), POLLIN, 0};
    if (::poll(&pfd, 1, 10000) <= 0) {
      return;
    }
    UniqueFd conn = AcceptTcp(listener.get());
    std::vector<uint8_t> fetch(fetch_bytes);
    for (const quant::Dtype dtype : dtypes) {
      const size_t frame_bytes = NodeHit(0, CacheKey{}, stored, dtype).size();
      for (size_t k = 1; k < frame_bytes; ++k) {
        if (!ReadExactly(conn.get(), fetch.data(), fetch.size())) {
          return;
        }
        ParsedFrame frame;
        size_t consumed = 0;
        CacheFetchBody body;
        if (TryParseFrame(fetch.data(), fetch.size(), &frame, &consumed) !=
                WireError::kOk ||
            !DecodeCacheFetch(frame, &body, nullptr)) {
          return;
        }
        const std::vector<uint8_t> hit =
            NodeHit(frame.header.seq, body.key, stored, dtype);
        SendAll(conn.get(), hit.data(), k);
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        SendAll(conn.get(), hit.data() + k, hit.size() - k);
      }
    }
  });

  ClientOptions options;
  options.default_timeout = milliseconds(10000);
  Client client("127.0.0.1", port, options);
  for (const quant::Dtype dtype : dtypes) {
    // The codec's round trip of `stored` at `dtype`.
    std::vector<uint8_t> scales(quant::ScaleCount(dtype, stored.rows()) *
                                sizeof(float));
    std::vector<uint8_t> elements(stored.size() * quant::DtypeBytes(dtype));
    quant::EncodeTo(stored, dtype, scales.data(), elements.data());
    Matrix expected;
    quant::DecodeFrom(dtype, stored.rows(), stored.cols(), scales.data(),
                      elements.data(), &expected);
    const size_t frame_bytes =
        kCacheHitHeadBytes + kMatrixHeaderBytes +
        quant::ScaleCount(dtype, stored.rows()) * sizeof(float) +
        stored.size() * quant::DtypeBytes(dtype);
    for (size_t k = 1; k < frame_bytes; ++k) {
      SCOPED_TRACE(testing::Message() << quant::ToString(dtype) << " split at "
                                      << k);
      const FetchRecordResult fetched =
          client.FetchRecord(9, 1, 1, /*want_kv=*/false);
      ASSERT_TRUE(fetched.complete) << ToString(client.last_error());
      const Matrix& got = fetched.record->steps[0].y[0];
      ASSERT_EQ(got.rows(), expected.rows());
      ASSERT_EQ(got.cols(), expected.cols());
      EXPECT_EQ(std::memcmp(got.data(), expected.data(), expected.bytes()), 0);
    }
  }
  node.join();
}

// --- mutated replies --------------------------------------------------------

// Every reply type the client parses; each case mutates one of them.
enum class Reply {
  kSubmitResult,
  kMetricsReport,
  kAuthOk,
  kError,
  kCacheHit,  // With a payload: a fetch of a resident record.
  kPutAck,    // A cache hit without a payload.
  kCacheMiss,
  kCount
};

// The call that draws each reply type. An error can answer any call; an
// auth-ok reaches the client as the reply to a metrics query, because
// the server's own auth gate answers kAuth frames before any service.
enum class Call { kSubmit, kMetrics, kFetch, kFetchKv, kPut };

constexpr int kFuzzCases = 600;
constexpr uint64_t kFuzzSeed = 0xF0CC5EEDull;
constexpr milliseconds kFuzzTimeout{20};
// Scheduling slack on top of a call's deadline: sanitizer builds on a
// loaded host run slow.
constexpr milliseconds kSlack{1500};
constexpr int kSteps = 1;
constexpr int kBlocks = 2;
constexpr int kResident = 5;  // The template every case's node holds.

// A well-formed reply of a random type under `seq`: what a splice mixes
// in. Cache replies name keys of the resident record.
std::vector<uint8_t> AnyReply(uint64_t seq,
                              const model::ActivationRecord& record,
                              Rng& rng) {
  CacheKey key{kResident, 0, static_cast<int32_t>(rng.NextBelow(kBlocks)),
               kCacheKindY};
  switch (rng.NextBelow(6)) {
    case 0:
      return EncodeSubmitResult(seq, CannedResponse());
    case 1:
      return EncodeMetricsReport(seq, "{\"spliced\":1}");
    case 2:
      return EncodeAuthOk(seq);
    case 3:
      return EncodeError(seq, WireError::kMalformedPayload, "spliced");
    case 4:
      return NodeHit(seq, key,
                     record.steps[0].y[static_cast<size_t>(key.block)],
                     quant::Dtype::kF32);
    default:
      return EncodeCacheMiss(seq, key);
  }
}

// The key and checksum of a put the server saw, which its ack must echo.
struct SeenPut {
  CacheKey key;
  uint64_t checksum = 0;
};

// One case's server side: answers every frame well-formed except the
// `target`-th reply, which it mutates (and may hang up after), logging
// the puts it saw and every byte it sent.
struct FuzzServer {
  FuzzServer(const model::ActivationRecord& stored, Reply reply_type,
             Mutation how, uint64_t seed)
      : record(stored), reply(reply_type), mutation(how), rng(seed) {
    // The node holds kResident's record, stored the way a client puts it.
    uint64_t seq = 1;
    for (int b = 0; b < kBlocks; ++b) {
      const CacheKey key{kResident, 0, b, kCacheKindY};
      node.Service()(
          ParseOne(LosslessPut(seq++, key, record.steps[0].y[b])));
    }
  }

  static ParsedFrame ParseOne(const std::vector<uint8_t>& bytes) {
    ParsedFrame frame;
    size_t consumed = 0;
    TryParseFrame(bytes.data(), bytes.size(), &frame, &consumed);
    return frame;
  }

  InlineReply Answer(const ParsedFrame& frame) {
    const uint64_t seq = frame.header.seq;
    InlineReply out;
    switch (frame.type()) {
      case FrameType::kSubmit:
        out.frame = EncodeSubmitResult(seq, CannedResponse());
        break;
      case FrameType::kMetricsQuery:
        out.frame = reply == Reply::kAuthOk
                        ? EncodeAuthOk(seq)
                        : EncodeMetricsReport(seq, "{\"fuzz\":true}");
        break;
      default: {
        CacheBodyView put;
        if (frame.type() == FrameType::kCachePut &&
            ViewCachePut(frame.payload.data(), frame.payload.size(), &put,
                         nullptr)) {
          puts_seen[seq] = SeenPut{put.key, put.checksum};
        }
        out = Whole(node.Service()(frame));
        break;
      }
    }
    if (answered++ == target) {
      if (reply == Reply::kError) {
        out.frame = EncodeError(
            seq, static_cast<WireError>(2 + rng.NextBelow(9)), "fuzz");
      }
      out.frame = Mutate(std::move(out.frame),
                         AnyReply(seq + rng.NextBelow(3) - 1, record, rng),
                         mutation, rng);
      out.close_connection = hang_up;
    }
    sent.insert(sent.end(), out.frame.begin(), out.frame.end());
    return out;
  }

  const model::ActivationRecord& record;
  const Reply reply;
  const Mutation mutation;
  Rng rng;
  CacheNode node;
  uint64_t target = 0;
  bool hang_up = false;
  uint64_t answered = 0;
  std::map<uint64_t, SeenPut> puts_seen;
  std::vector<uint8_t> sent;
};

// True when, framed exactly as the client frames `stream`, the first
// reply under each put's seq is a payload-less hit echoing that put's
// key and checksum.
bool EveryPutAcked(const std::map<uint64_t, SeenPut>& puts,
                   const std::vector<uint8_t>& stream) {
  std::map<uint64_t, ParsedFrame> first;
  size_t offset = 0;
  for (;;) {
    ParsedFrame frame;
    size_t consumed = 0;
    if (TryParseFrame(stream.data() + offset, stream.size() - offset, &frame,
                      &consumed) != WireError::kOk) {
      break;
    }
    offset += consumed;
    first.try_emplace(frame.header.seq, std::move(frame));
  }
  for (const auto& [seq, put] : puts) {
    auto it = first.find(seq);
    CacheBodyView ack;
    if (it == first.end() || it->second.type() != FrameType::kCacheHit ||
        !ViewCacheHit(it->second.payload.data(), it->second.payload.size(),
                      &ack, nullptr) ||
        ack.has_payload() ||
        !(ack.key == put.key) || ack.checksum != put.checksum) {
      return false;
    }
  }
  return true;
}

TEST(ClientFuzzTest, MutatedRepliesFailTypedByTheDeadline) {
  const model::ActivationRecord stored = TestRecord(kSteps, kBlocks, false);
  const auto started = Clock::now();
  int cases = 0;
  int failed_calls = 0;
  for (int i = 0; i < kFuzzCases && !HasFailure(); ++i, ++cases) {
    const uint64_t seed = kFuzzSeed + static_cast<uint64_t>(i);
    SCOPED_TRACE(testing::Message() << "fuzz case seed " << seed);
    Rng pick(seed);
    const auto reply = static_cast<Reply>(
        pick.NextBelow(static_cast<uint64_t>(Reply::kCount)));
    const auto mutation = static_cast<Mutation>(
        pick.NextBelow(static_cast<uint64_t>(Mutation::kCount)));
    Call call = Call::kMetrics;
    switch (reply) {
      case Reply::kSubmitResult:
        call = Call::kSubmit;
        break;
      case Reply::kCacheHit:
        call = Call::kFetch;
        break;
      case Reply::kPutAck:
        call = Call::kPut;
        break;
      case Reply::kCacheMiss:
        call = Call::kFetchKv;  // Y hits, K and V miss.
        break;
      case Reply::kError:
        call = static_cast<Call>(pick.NextBelow(5));
        break;
      default:
        break;
    }
    const uint64_t frames = call == Call::kFetchKv ? 3 * kBlocks
                            : call == Call::kFetch || call == Call::kPut
                                ? kBlocks
                                : 1;

    FuzzServer fuzz(stored, reply, mutation, pick.NextU64());
    fuzz.target = pick.NextBelow(frames);
    fuzz.hang_up = pick.NextBelow(4) != 0;
    TcpServer server(
        [&fuzz](const ParsedFrame& frame) { return fuzz.Answer(frame); });
    ASSERT_TRUE(server.Start());
    ClientOptions options;
    options.default_timeout = kFuzzTimeout;
    Client client("127.0.0.1", server.port(), options);

    bool ok = false;
    const auto t0 = Clock::now();
    switch (call) {
      case Call::kSubmit:
        ok = client.Connect() &&
             client.Call(CannedRequest(), kFuzzTimeout).has_value();
        break;
      case Call::kMetrics:
        ok = client.QueryMetrics(kFuzzTimeout).has_value();
        break;
      case Call::kFetch:
      case Call::kFetchKv: {
        const FetchRecordResult fetched = client.FetchRecord(
            kResident, kSteps, kBlocks, call == Call::kFetchKv);
        ok = fetched.transport_ok;
        if (fetched.complete) {
          EXPECT_TRUE(SameRecord(*fetched.record, stored))
              << "a complete fetch differs from the stored record";
        }
        break;
      }
      case Call::kPut: {
        const PutRecordResult put = client.PutRecord(kResident, stored);
        ok = put.transport_ok;
        if (ok) {
          server.Stop();  // Every reply is sent and logged.
          EXPECT_EQ(put.puts, static_cast<uint64_t>(kBlocks));
          EXPECT_EQ(fuzz.puts_seen.size(), static_cast<size_t>(kBlocks));
          EXPECT_TRUE(EveryPutAcked(fuzz.puts_seen, fuzz.sent))
              << "transport_ok without an echoed checksum for every put";
        }
        break;
      }
    }
    EXPECT_LE(std::chrono::duration_cast<milliseconds>(Clock::now() - t0)
                  .count(),
              (kFuzzTimeout + kSlack).count())
        << "the call overran its deadline";
    if (!ok) {
      ++failed_calls;
      EXPECT_NE(client.last_error(), WireError::kOk);
      EXPECT_NE(client.last_error(), WireError::kNeedMore);
      EXPECT_FALSE(client.connected()) << "a failed call left its socket open";
    }
    server.Stop();
  }
  // Most mutations must break the call they hit: a mutator that
  // produces nothing the client rejects is not testing anything.
  EXPECT_GT(failed_calls, cases / 2);
  std::printf("%d fuzz cases (%d failed calls) in %.2f s\n", cases,
              failed_calls,
              std::chrono::duration<double>(Clock::now() - started).count());
}

// Hit defects aimed at the client's in-place decoder, one per case, on
// the reply to one fetch of a two-matrix record.
enum class HitDefect {
  kTruncatedBody,   // Body cut short, length field agreeing.
  kLongLength,      // Length field claims more than the frame holds.
  kShortLength,     // Length field claims less.
  kWrongChecksum,   // One checksum bit flipped.
  kDuplicateSeq,    // The other op's hit re-sent under this op's seq.
  kUnaskedKey,      // A well-formed hit naming a key nobody asked for.
  kCount
};

TEST(ClientFuzzTest, DefectiveHitsFailTheFetchInFlight) {
  const model::ActivationRecord stored = TestRecord(kSteps, kBlocks, false);
  for (int d = 0; d < static_cast<int>(HitDefect::kCount); ++d) {
    for (int target = 0; target < kBlocks; ++target) {
      const auto defect = static_cast<HitDefect>(d);
      SCOPED_TRACE(testing::Message() << "defect " << d << " on block "
                                      << target);
      CacheNode node;
      uint64_t seq = 1;
      for (int b = 0; b < kBlocks; ++b) {
        node.Service()(FuzzServer::ParseOne(LosslessPut(
            seq++, CacheKey{kResident, 0, b, kCacheKindY},
            stored.steps[0].y[static_cast<size_t>(b)])));
      }
      // The fetch burst arrives in block order, so the hits are answered
      // in it too; the target's hit is rewritten.
      std::vector<uint8_t> previous_hit;
      TcpServer server([&](const ParsedFrame& frame) {
        InlineReply reply = Whole(node.Service()(frame));
        CacheFetchBody fetch;
        if (frame.type() != FrameType::kCacheFetch ||
            !DecodeCacheFetch(frame, &fetch, nullptr)) {
          return reply;
        }
        std::vector<uint8_t>& hit = reply.frame;
        const std::vector<uint8_t> original = hit;
        if (fetch.key.block == target) {
          const uint64_t len = fuzz::GetLe(hit, fuzz::kLenAt, 4);
          switch (defect) {
            case HitDefect::kTruncatedBody:
              hit.resize(hit.size() - 7);
              fuzz::SetLe(hit, fuzz::kLenAt, len - 7, 4);
              break;
            case HitDefect::kLongLength:
              fuzz::SetLe(hit, fuzz::kLenAt, len + 5, 4);
              break;
            case HitDefect::kShortLength:
              fuzz::SetLe(hit, fuzz::kLenAt, len - 5, 4);
              break;
            case HitDefect::kWrongChecksum:
              hit[kFrameHeaderBytes + 13] ^= 0x10;
              break;
            case HitDefect::kDuplicateSeq:
              if (!previous_hit.empty()) {
                // Block 1's op gets block 0's hit a second time.
                const uint64_t other = fuzz::GetLe(previous_hit, fuzz::kSeqAt, 8);
                hit = previous_hit;
                fuzz::SetLe(hit, fuzz::kSeqAt, other, 8);
              } else {
                // Block 0's hit, sent twice.
                hit.insert(hit.end(), original.begin(), original.end());
              }
              break;
            case HitDefect::kUnaskedKey:
              // The key is not under the checksum: still a valid frame.
              fuzz::SetLe(hit, kFrameHeaderBytes, kResident + 1, 4);
              break;
            case HitDefect::kCount:
              break;
          }
        }
        previous_hit = original;
        return reply;
      });
      ASSERT_TRUE(server.Start());
      ClientOptions options;
      options.default_timeout = kFuzzTimeout * 10;
      Client client("127.0.0.1", server.port(), options);
      const auto t0 = Clock::now();
      const FetchRecordResult fetched =
          client.FetchRecord(kResident, kSteps, kBlocks, /*want_kv=*/false);
      EXPECT_LE(std::chrono::duration_cast<milliseconds>(Clock::now() - t0)
                    .count(),
                (options.default_timeout + kSlack).count());
      if (defect == HitDefect::kDuplicateSeq && target == 0) {
        // The repeat under an answered seq is a stray: the fetch completes
        // with the stored bits.
        ASSERT_TRUE(fetched.complete) << ToString(client.last_error());
        EXPECT_TRUE(SameRecord(*fetched.record, stored));
      } else {
        EXPECT_FALSE(fetched.transport_ok);
        EXPECT_FALSE(fetched.complete);
        EXPECT_EQ(fetched.record, nullptr);
        EXPECT_NE(client.last_error(), WireError::kOk);
        EXPECT_NE(client.last_error(), WireError::kNeedMore);
        EXPECT_FALSE(client.connected());
        if (defect == HitDefect::kTruncatedBody ||
            defect == HitDefect::kWrongChecksum ||
            defect == HitDefect::kUnaskedKey) {
          EXPECT_EQ(client.last_error(), WireError::kMalformedPayload);
        }
      }
      server.Stop();
    }
  }
}

}  // namespace
}  // namespace flashps::net
