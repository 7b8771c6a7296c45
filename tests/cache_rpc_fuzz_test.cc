// The cache node's decoders under mutated input: seeded mutations (bit
// flips, truncation, lying length fields, type and seq swaps, spliced
// frames, tests/wire_fuzz.h) of kCachePut and kCacheFetch frames, some
// stamped with the older wire v3,
//
//   fed straight to CacheNode::Service(), the node's one entry, and
//   written through a real socket to a service-mode TcpServer, whose
//   replies must match, byte for byte, those of a shadow node's Service()
//   handed the same frames.
//
// Every frame gets a typed reply, or a kError and a close; no entry whose
// bytes fail their checksum is ever stored; and afterwards a clean client
// still fetches the resident record bitwise. A failing case prints its
// seed.
#include <poll.h>
#include <sys/socket.h>

#include <chrono>
#include <cstdio>
#include <set>
#include <string>
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

using fuzz::Frames;
using fuzz::Mutate;
using fuzz::Mutation;
using fuzz::SameRecord;

constexpr uint64_t kFuzzSeed = 0xCAC4EF022ull;
constexpr int kServiceCases = 20000;
constexpr int kSocketCases = 400;
constexpr int kSteps = 2;
constexpr int kBlocks = 2;
// Mutated puts name keys of kFuzzed. Its id differs from kResident's in
// five bits and a bit-flip case flips at most three, so no mutated put
// can overwrite a resident key.
constexpr int32_t kFuzzed = 7;
constexpr int32_t kResident = 0x0F0F;

model::ActivationRecord ResidentRecord() {
  Rng rng(0x4E5Dull);
  auto random = [&rng] {
    Matrix m(5, 4);
    m.FillNormal(rng, 1.0f);
    return m;
  };
  model::ActivationRecord record;
  record.steps.resize(kSteps);
  for (model::StepActivations& acts : record.steps) {
    for (int b = 0; b < kBlocks; ++b) {
      acts.y.push_back(random());
      acts.k.push_back(random());
      acts.v.push_back(random());
    }
  }
  return record;
}

// Stores the resident record on `node` the way a client puts it.
void StoreResident(CacheNode& node, const model::ActivationRecord& record) {
  uint64_t seq = 1;
  for (int s = 0; s < kSteps; ++s) {
    const model::StepActivations& acts = record.steps[static_cast<size_t>(s)];
    for (int b = 0; b < kBlocks; ++b) {
      const std::vector<Matrix>* kinds[] = {&acts.y, &acts.k, &acts.v};
      for (uint8_t kind = 0; kind < 3; ++kind) {
        ParsedFrame frame;
        size_t consumed = 0;
        const std::vector<uint8_t> bytes =
            LosslessPut(seq++, CacheKey{kResident, s, b, kind},
                        (*kinds[kind])[static_cast<size_t>(b)]);
        ASSERT_EQ(TryParseFrame(bytes.data(), bytes.size(), &frame, &consumed),
                  WireError::kOk);
        ASSERT_FALSE(node.Service()(frame).close_connection);
      }
    }
  }
}

CacheKey AnyKey(int32_t template_id, Rng& rng) {
  return CacheKey{template_id, static_cast<int32_t>(rng.NextBelow(kSteps + 2)),
                  static_cast<int32_t>(rng.NextBelow(kBlocks + 2)),
                  static_cast<uint8_t>(rng.NextBelow(3))};
}

// A well-formed request: a fetch (of a resident key half the time) or a
// put of a small random matrix at a random dtype.
std::vector<uint8_t> AnyRequest(uint64_t seq, Rng& rng) {
  if (rng.NextBelow(2) == 0) {
    return EncodeCacheFetch(
        seq, AnyKey(rng.NextBelow(2) == 0 ? kResident : kFuzzed, rng));
  }
  Matrix m(1 + static_cast<int>(rng.NextBelow(6)),
           1 + static_cast<int>(rng.NextBelow(6)));
  m.FillNormal(rng, 1.0f);
  const auto dtype = static_cast<quant::Dtype>(rng.NextBelow(3));
  return EncodeCachePut(seq, AnyKey(kFuzzed, rng), m, dtype, nullptr);
}

// One mutated request stream, drawn from `seed`.
std::vector<uint8_t> MutatedStream(uint64_t seed) {
  Rng rng(seed);
  const auto mutation = static_cast<Mutation>(
      rng.NextBelow(static_cast<uint64_t>(Mutation::kCount)));
  const uint64_t seq = 100 + rng.NextBelow(1000);
  std::vector<uint8_t> frame = AnyRequest(seq, rng);
  // One request in eight is stamped v3, as a peer one release back sends
  // it: a v3 fetch still decodes, a v3 put is kBadVersion.
  if (rng.NextBelow(8) == 0) {
    fuzz::SetLe(frame, fuzz::kVersionAt, 3, 2);
  }
  return Mutate(std::move(frame), AnyRequest(seq + 1, rng), mutation, rng);
}

// Checks one reply of `node` to `request`, made whole (a hit's stored
// body after its head), and returns whether it closes the connection. An
// ack must echo the put's key and checksum (the key joins `stored`); a
// refused frame must store nothing.
bool CheckReply(CacheNode& node, const ParsedFrame& request,
                const InlineReply& reply, uint64_t puts_before,
                std::set<CacheKey>* stored) {
  ParsedFrame out;
  size_t consumed = 0;
  EXPECT_EQ(TryParseFrame(reply.frame.data(), reply.frame.size(), &out,
                          &consumed),
            WireError::kOk);
  EXPECT_EQ(consumed, reply.frame.size()) << "a reply is one whole frame";
  EXPECT_EQ(out.header.seq, request.header.seq);
  if (reply.close_connection || out.type() == FrameType::kError) {
    WireErrorBody body;
    EXPECT_TRUE(reply.close_connection) << "a kError reply must close";
    EXPECT_EQ(out.type(), FrameType::kError) << "a close must carry a kError";
    EXPECT_TRUE(DecodeError(out, &body));
    EXPECT_EQ(node.Stats().puts, puts_before) << "a refused frame stored";
    return true;
  }
  switch (request.type()) {
    case FrameType::kCacheFetch: {
      CacheFetchBody fetch;
      EXPECT_TRUE(DecodeCacheFetch(request, &fetch, nullptr));
      CacheBodyView hit;
      CacheMissBody miss;
      if (out.type() == FrameType::kCacheHit) {
        EXPECT_TRUE(ViewCacheHit(out.payload.data(), out.payload.size(), &hit,
                                 nullptr));
        EXPECT_TRUE(hit.has_payload());
        EXPECT_TRUE(hit.key == fetch.key);
      } else {
        EXPECT_EQ(out.type(), FrameType::kCacheMiss);
        EXPECT_TRUE(DecodeCacheMiss(out, &miss));
        EXPECT_TRUE(miss.key == fetch.key);
      }
      break;
    }
    case FrameType::kCachePut: {
      CacheBodyView put;
      CacheBodyView ack;
      EXPECT_TRUE(ViewCachePut(request.payload.data(), request.payload.size(),
                               &put, nullptr));
      EXPECT_EQ(out.type(), FrameType::kCacheHit);
      EXPECT_TRUE(ViewCacheHit(out.payload.data(), out.payload.size(), &ack,
                               nullptr));
      EXPECT_FALSE(ack.has_payload());
      EXPECT_TRUE(ack.key == put.key);
      EXPECT_EQ(ack.checksum, put.checksum);
      stored->insert(put.key);
      break;
    }
    case FrameType::kMetricsQuery:
      EXPECT_EQ(out.type(), FrameType::kMetricsReport);
      break;
    default:
      ADD_FAILURE() << "frame type " << request.header.type
                    << " answered without an error";
  }
  return false;
}

// Every key in `stored` is resident, and its bytes hash to the checksum
// it rests under (ViewCacheHit checks that).
void ExpectStoredBytesVerify(CacheNode& node,
                             const std::set<CacheKey>& stored) {
  uint64_t seq = 1;
  for (const CacheKey& key : stored) {
    const std::vector<uint8_t> bytes = EncodeCacheFetch(seq++, key);
    ParsedFrame fetch;
    size_t consumed = 0;
    ASSERT_EQ(TryParseFrame(bytes.data(), bytes.size(), &fetch, &consumed),
              WireError::kOk);
    const InlineReply reply = Whole(node.Service()(fetch));
    ParsedFrame out;
    ASSERT_EQ(TryParseFrame(reply.frame.data(), reply.frame.size(), &out,
                            &consumed),
              WireError::kOk);
    CacheBodyView hit;
    std::string error;
    EXPECT_TRUE(out.type() == FrameType::kCacheHit &&
                ViewCacheHit(out.payload.data(), out.payload.size(), &hit,
                             &error) &&
                hit.has_payload())
        << "key (" << key.template_id << "," << key.step << "," << key.block
        << "," << int{key.kind} << "): " << error;
  }
}

// A clean client, over a real socket, fetches the resident record bitwise.
void ExpectResidentFetchesBitwise(uint16_t port,
                                  const model::ActivationRecord& record) {
  Client client("127.0.0.1", port);
  const FetchRecordResult fetched =
      client.FetchRecord(kResident, kSteps, kBlocks, /*want_kv=*/true);
  ASSERT_TRUE(fetched.complete) << ToString(client.last_error());
  EXPECT_TRUE(SameRecord(*fetched.record, record));
}

TEST(CacheRpcFuzzTest, MutatedFramesIntoService) {
  const model::ActivationRecord record = ResidentRecord();
  CacheNode node;
  StoreResident(node, record);
  const InlineService serve = node.Service();
  std::set<CacheKey> stored;
  int dispatched = 0;
  int refused = 0;
  for (int i = 0; i < kServiceCases && !HasFailure(); ++i) {
    const uint64_t seed = kFuzzSeed + static_cast<uint64_t>(i);
    SCOPED_TRACE(testing::Message() << "fuzz case seed " << seed);
    WireError header_error = WireError::kOk;
    for (const ParsedFrame& frame : Frames(MutatedStream(seed), &header_error)) {
      ++dispatched;
      const uint64_t puts_before = node.Stats().puts;
      if (CheckReply(node, frame, Whole(serve(frame)), puts_before,
                     &stored)) {
        ++refused;
        break;  // The server closes here; nothing after is dispatched.
      }
      CacheBodyView put;
      if (frame.type() == FrameType::kCachePut &&
          ViewCachePut(frame.payload.data(), frame.payload.size(), &put,
                       nullptr)) {
        ExpectStoredBytesVerify(node, {put.key});
      }
    }
  }
  ExpectStoredBytesVerify(node, stored);
  // A mutator nothing survives, or nothing breaks, tests nothing.
  EXPECT_GT(refused, dispatched / 10);
  EXPECT_LT(refused, dispatched);
  std::printf("%d cases: %d frames dispatched, %d refused, %zu keys stored\n",
              kServiceCases, dispatched, refused, stored.size());

  TcpServer server(node.Service());
  ASSERT_TRUE(server.Start());
  ExpectResidentFetchesBitwise(server.port(), record);
  server.Stop();
}

// Reads from `fd` until `want` bytes arrived and, when `until_close`, the
// peer closed. False when the deadline lapses first.
bool ReadReplies(int fd, size_t want, bool until_close,
                 std::vector<uint8_t>* got) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
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
      return until_close && got->size() >= want;
    }
    got->insert(got->end(), chunk, chunk + n);
  }
  return true;
}

TEST(CacheRpcFuzzTest, MutatedFramesThroughASocket) {
  const model::ActivationRecord record = ResidentRecord();
  CacheNode node;
  CacheNode shadow;
  StoreResident(node, record);
  StoreResident(shadow, record);
  const InlineService shadow_serve = shadow.Service();
  TcpServer server(node.Service());
  ASSERT_TRUE(server.Start());
  std::set<CacheKey> stored;
  int closed = 0;
  for (int i = 0; i < kSocketCases && !HasFailure(); ++i) {
    const uint64_t seed = kFuzzSeed + kServiceCases + static_cast<uint64_t>(i);
    SCOPED_TRACE(testing::Message() << "fuzz case seed " << seed);
    const std::vector<uint8_t> stream = MutatedStream(seed);

    // What the server owes, from the shadow: its own auth gate answers
    // kAuth frames, the node every other frame, up to the first close.
    WireError header_error = WireError::kOk;
    std::vector<uint8_t> want;
    bool close = false;
    for (const ParsedFrame& frame : Frames(stream, &header_error)) {
      InlineReply reply;
      AuthBody auth;
      std::string error;
      if (frame.type() != FrameType::kAuth) {
        const uint64_t puts_before = shadow.Stats().puts;
        reply = Whole(shadow_serve(frame));
        CheckReply(shadow, frame, reply, puts_before, &stored);
      } else if (DecodeAuth(frame, &auth, &error)) {
        reply.frame = EncodeAuthOk(frame.header.seq);
      } else {
        reply.frame = EncodeError(frame.header.seq,
                                  WireError::kMalformedPayload, error);
        reply.close_connection = true;
      }
      want.insert(want.end(), reply.frame.begin(), reply.frame.end());
      close = reply.close_connection;
      if (close) {
        break;
      }
    }
    if (!close && header_error != WireError::kOk) {
      const std::vector<uint8_t> error =
          EncodeError(0, header_error, ToString(header_error));
      want.insert(want.end(), error.begin(), error.end());
      close = true;
    }

    const UniqueFd fd = ConnectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(fd.valid());
    ASSERT_TRUE(SendAll(fd.get(), stream.data(), stream.size()));
    std::vector<uint8_t> got;
    EXPECT_TRUE(ReadReplies(fd.get(), want.size(), close, &got))
        << (close ? "no kError and close" : "replies missing")
        << " by the deadline; got " << got.size() << " of " << want.size()
        << " bytes";
    EXPECT_EQ(got, want) << "the server's replies differ from the shadow's";
    closed += close ? 1 : 0;
  }
  server.Stop();

  // The server handed the node exactly the frames the shadow saw.
  const CacheNodeStats live = node.Stats();
  const CacheNodeStats expected = shadow.Stats();
  EXPECT_EQ(live.puts, expected.puts);
  EXPECT_EQ(live.fetch_hits, expected.fetch_hits);
  EXPECT_EQ(live.fetch_misses, expected.fetch_misses);
  EXPECT_EQ(live.bad_frames, expected.bad_frames);
  EXPECT_EQ(live.entries, expected.entries);
  EXPECT_EQ(live.resident_bytes, expected.resident_bytes);
  ExpectStoredBytesVerify(node, stored);
  EXPECT_GT(closed, kSocketCases / 10);
  EXPECT_LT(closed, kSocketCases);
  std::printf("%d cases through the socket, %d closed by the server\n",
              kSocketCases, closed);

  TcpServer clean(node.Service());
  ASSERT_TRUE(clean.Start());
  ExpectResidentFetchesBitwise(clean.port(), record);
  clean.Stop();
}

}  // namespace
}  // namespace flashps::net
