// Cache-tier RPC units: the cache frame codec (v2: encoded matrices; v4:
// the XXH64 checksum, hashed in place), checked where frames lie
// (ViewCachePut / ViewCacheHit), the CacheNode store semantics through
// its one entry, Service() (encoded residency, admission policy, stored
// bodies that outlive their entry while a hit still sends them),
// net::Client's whole-record transfers (FetchRecord / PutRecord) over a
// loopback TcpServer in service mode, and the client ladder against one
// cache node — a ShardedRemoteStore over a one-member ring (LRU front,
// single-flight, miss-publish, fallback, circuit breaker, prefetch).
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/cache/ring/sharded_store.h"
#include "src/net/cache_node.h"
#include "src/net/client.h"
#include "src/net/socket_util.h"
#include "src/net/tcp_server.h"
#include "src/tensor/quant.h"
#include "tests/cache_frames.h"

namespace flashps::net {
namespace {

// Pulls `"key":<integer>` out of a flat metrics JSON string.
uint64_t JsonCounter(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) {
    return ~0ull;
  }
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

Matrix TestMatrix(int rows, int cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  m.FillNormal(rng, 1.0f);
  return m;
}

CacheKey TestKey(int template_id = 7, int step = 1, int block = 2,
                 uint8_t kind = kCacheKindY) {
  CacheKey key;
  key.template_id = template_id;
  key.step = step;
  key.block = block;
  key.kind = kind;
  return key;
}

ParsedFrame Parse(const std::vector<uint8_t>& bytes) {
  ParsedFrame frame;
  size_t consumed = 0;
  EXPECT_EQ(TryParseFrame(bytes.data(), bytes.size(), &frame, &consumed),
            WireError::kOk);
  EXPECT_EQ(consumed, bytes.size());
  return frame;
}

bool MatricesEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         LatentChecksum(a) == LatentChecksum(b);
}

// `frame`'s put or hit payload checked where it lies; the view points into
// `frame`, which must outlive it.
CacheBodyView ViewPut(const ParsedFrame& frame) {
  CacheBodyView view;
  std::string error;
  EXPECT_TRUE(ViewCachePut(frame.payload.data(), frame.payload.size(), &view,
                           &error))
      << error;
  return view;
}

CacheBodyView ViewHit(const ParsedFrame& frame) {
  CacheBodyView view;
  std::string error;
  EXPECT_TRUE(ViewCacheHit(frame.payload.data(), frame.payload.size(), &view,
                           &error))
      << error;
  return view;
}

// Wire matrices travel encoded; equality to a local Matrix means
// decode-then-compare.
bool DecodesTo(const CacheBodyView& view, const Matrix& m) {
  if (!view.has_payload()) return false;
  Matrix decoded;
  DecodeBody(view, &decoded);
  return MatricesEqual(decoded, m);
}

std::vector<uint8_t> BodyBytes(const CacheBodyView& view) {
  return std::vector<uint8_t>(view.body, view.body + view.body_size);
}

// `request` through the node's one entry, Service(), with the reply made
// whole the way TcpServer sends it: a hit's stored body after its head.
InlineReply Ask(CacheNode& node, const std::vector<uint8_t>& request) {
  return Whole(node.Service()(Parse(request)));
}

// A record still streaming is compared once it is whole.
bool RecordsEqual(const model::ActivationRecord& a,
                  const model::ActivationRecord& b) {
  if (!a.AwaitWhole() || !b.AwaitWhole()) return false;
  if (a.steps.size() != b.steps.size()) return false;
  for (size_t s = 0; s < a.steps.size(); ++s) {
    const auto& as = a.steps[s];
    const auto& bs = b.steps[s];
    if (as.y.size() != bs.y.size() || as.k.size() != bs.k.size() ||
        as.v.size() != bs.v.size()) {
      return false;
    }
    for (size_t i = 0; i < as.y.size(); ++i) {
      if (!MatricesEqual(as.y[i], bs.y[i])) return false;
    }
    for (size_t i = 0; i < as.k.size(); ++i) {
      if (!MatricesEqual(as.k[i], bs.k[i])) return false;
    }
    for (size_t i = 0; i < as.v.size(); ++i) {
      if (!MatricesEqual(as.v[i], bs.v[i])) return false;
    }
  }
  return true;
}

// --- codec ----------------------------------------------------------------

TEST(CacheRpcWireTest, FetchRoundTrip) {
  const CacheKey key = TestKey(42, 3, 1, kCacheKindK);
  const ParsedFrame frame = Parse(EncodeCacheFetch(99, key));
  EXPECT_EQ(frame.type(), FrameType::kCacheFetch);
  EXPECT_EQ(frame.header.seq, 99u);
  CacheFetchBody body;
  std::string error;
  ASSERT_TRUE(DecodeCacheFetch(frame, &body, &error)) << error;
  EXPECT_EQ(body.key, key);
}

TEST(CacheRpcWireTest, PutRoundTripCarriesChecksum) {
  const Matrix m = TestMatrix(6, 5, 1);
  const ParsedFrame frame = Parse(LosslessPut(7, TestKey(), m));
  const CacheBodyView body = ViewPut(frame);
  EXPECT_EQ(body.key, TestKey());
  EXPECT_EQ(body.dtype, quant::Dtype::kF32);
  EXPECT_EQ(body.checksum, Xxh64(body.body, body.body_size));
  EXPECT_TRUE(DecodesTo(body, m));
}

TEST(CacheRpcWireTest, CompressedPutRoundTripsItsEncoding) {
  const Matrix m = TestMatrix(6, 5, 1);
  for (const quant::Dtype dtype : {quant::Dtype::kF16, quant::Dtype::kI8}) {
    SCOPED_TRACE(quant::ToString(dtype));
    uint64_t sent = 0;
    const ParsedFrame frame =
        Parse(EncodeCachePut(7, TestKey(), m, dtype, &sent));
    const CacheBodyView body = ViewPut(frame);
    EXPECT_EQ(body.dtype, dtype);
    // The frame carries the codec's scale bits and elements, in place.
    std::vector<uint8_t> scales(quant::ScaleCount(dtype, m.rows()) *
                                sizeof(float));
    std::vector<uint8_t> elements(m.size() * quant::DtypeBytes(dtype));
    quant::EncodeTo(m, dtype, scales.data(), elements.data());
    EXPECT_EQ(std::vector<uint8_t>(body.scales, body.scales + scales.size()),
              scales);
    EXPECT_EQ(std::vector<uint8_t>(body.elements,
                                   body.elements + elements.size()),
              elements);
    EXPECT_EQ(body.StoredBytes(), scales.size() + elements.size());
    EXPECT_EQ(body.checksum, sent);
  }
}

TEST(CacheRpcWireTest, HitRoundTripWithPayload) {
  const Matrix m = TestMatrix(4, 4, 2);
  const ParsedFrame frame =
      Parse(NodeHit(3, TestKey(), m, quant::Dtype::kF32));
  const CacheBodyView body = ViewHit(frame);
  EXPECT_TRUE(body.has_payload());
  EXPECT_TRUE(DecodesTo(body, m));
}

TEST(CacheRpcWireTest, HitRoundTripPutAckHasNoPayload) {
  const ParsedFrame frame = Parse(EncodeCachePutAck(3, TestKey(), 0xabcdu));
  EXPECT_EQ(frame.type(), FrameType::kCacheHit);
  const CacheBodyView body = ViewHit(frame);
  EXPECT_FALSE(body.has_payload());
  EXPECT_EQ(body.key, TestKey());
  EXPECT_EQ(body.checksum, 0xabcdu);
}

TEST(CacheRpcWireTest, MissRoundTrip) {
  const ParsedFrame frame = Parse(EncodeCacheMiss(11, TestKey(5, 0, 0)));
  CacheMissBody body;
  ASSERT_TRUE(DecodeCacheMiss(frame, &body));
  EXPECT_EQ(body.key, TestKey(5, 0, 0));
}

TEST(CacheRpcWireTest, CorruptedPutPayloadFailsItsChecksum) {
  const Matrix m = TestMatrix(6, 5, 3);
  std::vector<uint8_t> bytes = LosslessPut(7, TestKey(), m);
  bytes.back() ^= 0x01;  // Flip one bit of the last float.
  const ParsedFrame frame = Parse(bytes);
  CacheBodyView body;
  std::string error;
  EXPECT_FALSE(ViewCachePut(frame.payload.data(), frame.payload.size(), &body,
                            &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

// --- checksum -------------------------------------------------------------

uint64_t Xxh64Of(const std::string& s) { return Xxh64(s.data(), s.size()); }

TEST(CacheRpcWireTest, Xxh64MatchesTheReferenceVectors) {
  EXPECT_EQ(Xxh64Of(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(Xxh64Of("a"), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(Xxh64Of("abc"), 0x44bc2cf5ad770999ull);
  // 43 bytes: one 32-byte stripe, then the word and byte tails.
  EXPECT_EQ(Xxh64Of("The quick brown fox jumps over the lazy dog"),
            0x0b242d361fda71bcull);
}

TEST(CacheRpcWireTest, Xxh64NoticesAnyOneFlippedBit) {
  // Lengths 0..96 cover every tail (8-, 4- and 1-byte steps) with and
  // without 32-byte stripes; every bit of every byte is flipped once.
  Rng rng(0x8badf00dull);
  for (size_t len = 0; len <= 96; ++len) {
    std::vector<uint8_t> bytes(len);
    for (uint8_t& b : bytes) {
      b = static_cast<uint8_t>(rng.NextBelow(256));
    }
    const uint64_t base = Xxh64(bytes.data(), bytes.size());
    EXPECT_EQ(base, Xxh64(bytes.data(), bytes.size())) << "len " << len;
    for (size_t bit = 0; bit < len * 8; ++bit) {
      bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      EXPECT_NE(Xxh64(bytes.data(), bytes.size()), base)
          << "len " << len << " bit " << bit;
      bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
  }
}

TEST(CacheRpcWireTest, InPlaceChecksumsEqualPutChecksum) {
  const Matrix m = TestMatrix(7, 9, 15);
  for (const quant::Dtype dtype :
       {quant::Dtype::kF32, quant::Dtype::kF16, quant::Dtype::kI8}) {
    SCOPED_TRACE(quant::ToString(dtype));
    // The encoder hashes the body it wrote into the frame and stores the
    // sum in the slot before it...
    uint64_t sent = 0;
    const std::vector<uint8_t> put =
        EncodeCachePut(1, TestKey(), m, dtype, &sent);
    const std::vector<uint8_t> body_bytes(put.begin() + kCacheHitHeadBytes,
                                          put.end());
    EXPECT_EQ(sent, Xxh64(body_bytes.data(), body_bytes.size()));
    EXPECT_EQ(ViewPut(Parse(put)).checksum, sent);
    // ...a node verifies the same span where it landed and serves that
    // value back with the entry...
    CacheNode node;
    ASSERT_FALSE(Ask(node, put).close_connection);
    const InlineReply hit = Ask(node, EncodeCacheFetch(2, TestKey()));
    const ParsedFrame frame = Parse(hit.frame);
    const CacheBodyView body = ViewHit(frame);
    // ...and the hit, checked in place by its decoder, still carries the
    // checksum of the bytes it decodes from: the put's body.
    EXPECT_EQ(body.checksum, sent);
    EXPECT_EQ(BodyBytes(body), body_bytes);
  }
}

TEST(CacheRpcWireTest, TrailingBytesRejected) {
  const std::vector<uint8_t> encoded = EncodeCacheFetch(1, TestKey());
  std::vector<uint8_t> payload(encoded.begin() + kFrameHeaderBytes,
                               encoded.end());
  payload.push_back(0);  // One stray byte after the key.
  const ParsedFrame frame = Parse(EncodeFrame(FrameType::kCacheFetch, 1,
                                              payload));
  CacheFetchBody body;
  std::string error;
  EXPECT_FALSE(DecodeCacheFetch(frame, &body, &error));
  // One byte past a whole f16 matrix body, in a put and in a hit: the
  // length no longer matches the shape.
  const Matrix m = TestMatrix(3, 4, 13);
  const std::vector<uint8_t> put =
      EncodeCachePut(1, TestKey(), m, quant::Dtype::kF16, nullptr);
  const std::vector<uint8_t> hit = NodeHit(1, TestKey(), m, quant::Dtype::kF16);
  payload.assign(put.begin() + kFrameHeaderBytes, put.end());
  payload.push_back(0);
  CacheBodyView view;
  EXPECT_FALSE(ViewCachePut(payload.data(), payload.size(), &view, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
  payload.assign(hit.begin() + kFrameHeaderBytes, hit.end());
  payload.push_back(0);
  EXPECT_FALSE(ViewCacheHit(payload.data(), payload.size(), &view, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(CacheRpcWireTest, NegativeKeyFieldsRejected) {
  const ParsedFrame frame = Parse(EncodeCacheFetch(1, TestKey(-1, 0, 0)));
  CacheFetchBody body;
  std::string error;
  EXPECT_FALSE(DecodeCacheFetch(frame, &body, &error));
}

// --- decoder hardening ----------------------------------------------------
//
// Offsets inside a kCachePut payload: key (13) + checksum (8) + rows u32 +
// cols u32 + dtype u8 + scale_count u32, then scale bits and raw bytes.
constexpr size_t kPutRowsOffset = 13 + 8;
constexpr size_t kPutDtypeOffset = kPutRowsOffset + 4 + 4;
constexpr size_t kPutScaleCountOffset = kPutDtypeOffset + 1;

std::vector<uint8_t> PutPayload(const std::vector<uint8_t>& frame_bytes) {
  return std::vector<uint8_t>(frame_bytes.begin() + kFrameHeaderBytes,
                              frame_bytes.end());
}

TEST(CacheRpcWireTest, TruncatedPutPayloadRejectedAtEveryBoundary) {
  const std::vector<uint8_t> payload =
      PutPayload(LosslessPut(1, TestKey(), TestMatrix(3, 4, 8)));
  // Cut mid-key, mid-checksum, mid-matrix-header, and one byte short of
  // the raw payload: every truncation must reject cleanly, never read
  // past the end.
  for (const size_t keep :
       {size_t{0}, size_t{5}, size_t{12}, size_t{20}, kPutDtypeOffset,
        kPutScaleCountOffset + 2, payload.size() - 1}) {
    const std::vector<uint8_t> cut(payload.begin(),
                                   payload.begin() + static_cast<long>(keep));
    CacheBodyView body;
    std::string error;
    EXPECT_FALSE(ViewCachePut(cut.data(), cut.size(), &body, &error))
        << "keep=" << keep;
  }
}

TEST(CacheRpcWireTest, UnknownDtypeTagRejected) {
  std::vector<uint8_t> payload =
      PutPayload(LosslessPut(1, TestKey(), TestMatrix(3, 4, 9)));
  payload[kPutDtypeOffset] = 7;  // No such encoding.
  EXPECT_FALSE(quant::ValidDtypeTag(7));
  CacheBodyView body;
  std::string error;
  EXPECT_FALSE(ViewCachePut(payload.data(), payload.size(), &body, &error));
  EXPECT_NE(error.find("dtype"), std::string::npos) << error;
}

TEST(CacheRpcWireTest, ScaleCountMismatchRejected) {
  // An f32 matrix declares zero scales; claiming one must be rejected
  // before any scale bytes are interpreted.
  std::vector<uint8_t> payload =
      PutPayload(LosslessPut(1, TestKey(), TestMatrix(3, 4, 10)));
  payload[kPutScaleCountOffset] = 1;
  CacheBodyView body;
  std::string error;
  EXPECT_FALSE(ViewCachePut(payload.data(), payload.size(), &body, &error));
  EXPECT_NE(error.find("scale count"), std::string::npos) << error;
  // An i8 matrix carries one scale per row. One fewer, with the count and
  // the bytes agreeing on the lie, must be rejected too.
  payload = PutPayload(EncodeCachePut(1, TestKey(), TestMatrix(3, 4, 12),
                                      quant::Dtype::kI8, nullptr));
  ASSERT_EQ(payload[kPutScaleCountOffset], 3);
  payload[kPutScaleCountOffset] = 2;
  const size_t scales_at = kPutScaleCountOffset + 4;
  payload.erase(payload.begin() + static_cast<long>(scales_at),
                payload.begin() + static_cast<long>(scales_at + 4));
  EXPECT_FALSE(ViewCachePut(payload.data(), payload.size(), &body, &error));
  EXPECT_NE(error.find("scale count"), std::string::npos) << error;
}

TEST(CacheRpcWireTest, DtypeLengthComboMismatchRejected) {
  // An i8 matrix re-tagged as f16 leaves the declared per-row scales and
  // byte count inconsistent with the claimed dtype.
  std::vector<uint8_t> payload = PutPayload(EncodeCachePut(
      1, TestKey(), TestMatrix(3, 4, 11), quant::Dtype::kI8, nullptr));
  payload[kPutDtypeOffset] = static_cast<uint8_t>(quant::Dtype::kF16);
  CacheBodyView body;
  std::string error;
  EXPECT_FALSE(ViewCachePut(payload.data(), payload.size(), &body, &error));
}

TEST(CacheRpcWireTest, RowCountAboveTheWireBoundRejected) {
  // Either dimension may be at most 2^20 (and rows read as a negative
  // int32 are far above it), before any length arithmetic is believed.
  for (const uint32_t rows : {(1u << 20) + 1, 0x80000000u, 0xffffffffu}) {
    std::vector<uint8_t> payload =
        PutPayload(LosslessPut(1, TestKey(), TestMatrix(3, 4, 14)));
    for (size_t i = 0; i < 4; ++i) {
      payload[kPutRowsOffset + i] = static_cast<uint8_t>(rows >> (8 * i));
    }
    CacheBodyView body;
    std::string error;
    EXPECT_FALSE(ViewCachePut(payload.data(), payload.size(), &body, &error))
        << rows;
    EXPECT_NE(error.find("dimensions out of range"), std::string::npos)
        << error;
  }
}

// --- golden bytes ---------------------------------------------------------
//
// The cache frames of one fixed matrix, byte for byte. A bulk path that
// writes host order, or copies the wrong number of bytes, fails here; a
// round trip alone would not notice. The same frames as wire v3 wrote
// them, with a byte-wise FNV-1a checksum, stay below verbatim: v4 changed
// only the version field and the checksum, and refuses those frames.

float FloatFromBits(uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

uint32_t BitsOf(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

// Row 0 has a finite maximum, so its int8 scale is an ordinary number;
// row 1's is infinite.
Matrix GoldenMatrix() {
  Matrix m(2, 4);
  const uint32_t bits[] = {0x80000000u, 0x00000001u, 0x3f800000u,
                           0xc0200000u, 0x7f800000u, 0xff800000u,
                           0x7fc0beefu, 0x3f400000u};
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = FloatFromBits(bits[i]);
  }
  return m;
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

std::vector<uint8_t> FromHex(const std::string& hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<uint8_t>(std::stoi(hex.substr(i, 2), nullptr,
                                                  16)));
  }
  return out;
}

// The put (seq 0x0102030405060708) and hit (seq 0x1112131415161718) below
// as wire v3 sent them.
constexpr char kV3PutHex[] =
    "46505331" "0300" "0700" "0807060504030201" "42000000"  // Header.
    "09000000" "01000000" "02000000" "02"                  // Key.
    "b0a5e7fa08dcc4f3"                                     // FNV-1a.
    "02000000" "04000000" "00" "00000000"  // Shape, f32, no scales.
    "00000080" "01000000" "0000803f" "000020c0"
    "0000807f" "000080ff" "efbec07f" "0000403f";
constexpr char kV3HitHex[] =
    "46505331" "0300" "0800" "1817161514131211" "32000000"  // Header.
    "09000000" "01000000" "02000000" "02"                  // Key.
    "98dc6ef2d00825af"                                     // FNV-1a.
    "02000000" "04000000" "02" "02000000"  // Shape, i8, two scales.
    "8542a13c" "0000807f"                  // Scale bits.
    "00003381" "00000000";

// `hex` (a put or hit frame) with its version field and its checksum
// blanked: the header's bytes 4-5 and the payload's bytes 13-20.
std::string WithoutVersionAndChecksum(std::string hex) {
  hex.replace(2 * (kFrameHeaderBytes + 13), 16, 16, '-');
  hex.replace(2 * 4, 4, 4, '-');
  return hex;
}

TEST(CacheRpcWireTest, GoldenFramesKeepTheirBytes) {
  const Matrix m = GoldenMatrix();
  const CacheKey key = TestKey(9, 1, 2, kCacheKindV);
  const std::vector<uint8_t> put =
      LosslessPut(0x0102030405060708ull, key, m);
  EXPECT_EQ(Hex(put),
            "46505331" "0400" "0700" "0807060504030201" "42000000"  // Header.
            "09000000" "01000000" "02000000" "02"                  // Key.
            "6676477969ef0181"                                     // XXH64.
            "02000000" "04000000" "00" "00000000"  // Shape, f32, no scales.
            "00000080" "01000000" "0000803f" "000020c0"
            "0000807f" "000080ff" "efbec07f" "0000403f");
  // The hit is a node's answer to a fetch once the i8 encoding is put:
  // its head, then the stored put body.
  CacheNode node;
  const std::vector<uint8_t> i8_put =
      EncodeCachePut(1, key, m, quant::Dtype::kI8, nullptr);
  ASSERT_FALSE(Ask(node, i8_put).close_connection);
  const std::vector<uint8_t> hit =
      Ask(node, EncodeCacheFetch(0x1112131415161718ull, key)).frame;
  EXPECT_EQ(Hex(hit),
            "46505331" "0400" "0800" "1817161514131211" "32000000"  // Header.
            "09000000" "01000000" "02000000" "02"                  // Key.
            "63f41688aa6e0816"                                     // XXH64.
            "02000000" "04000000" "02" "02000000"  // Shape, i8, two scales.
            "8542a13c" "0000807f"                  // Scale bits.
            "00003381" "00000000");
  // Apart from those two fields, v4 sends v3's bytes.
  EXPECT_EQ(WithoutVersionAndChecksum(Hex(put)),
            WithoutVersionAndChecksum(kV3PutHex));
  EXPECT_EQ(WithoutVersionAndChecksum(Hex(hit)),
            WithoutVersionAndChecksum(kV3HitHex));

  // The put decodes back to the bits it was built from; the hit carries
  // the i8 put's body byte for byte and decodes to what that body does.
  const ParsedFrame put_frame = Parse(put);
  const CacheBodyView put_body = ViewPut(put_frame);
  Matrix back;
  DecodeBody(put_body, &back);
  ASSERT_EQ(back.size(), m.size());
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(BitsOf(back.data()[i]), BitsOf(m.data()[i])) << i;
  }
  const ParsedFrame i8_frame = Parse(i8_put);
  const ParsedFrame hit_frame = Parse(hit);
  const CacheBodyView i8_body = ViewPut(i8_frame);
  const CacheBodyView hit_body = ViewHit(hit_frame);
  EXPECT_EQ(BodyBytes(hit_body), BodyBytes(i8_body));
  EXPECT_EQ(hit_body.checksum, i8_body.checksum);
  Matrix from_put;
  Matrix from_hit;
  DecodeBody(i8_body, &from_put);
  DecodeBody(hit_body, &from_hit);
  EXPECT_TRUE(MatricesEqual(from_hit, from_put));
}

TEST(CacheRpcWireTest, V3CacheFramesAreBadVersion) {
  for (const char* hex : {kV3PutHex, kV3HitHex}) {
    const std::vector<uint8_t> bytes = FromHex(hex);
    ParsedFrame frame;
    size_t consumed = 0;
    EXPECT_EQ(TryParseFrame(bytes.data(), bytes.size(), &frame, &consumed),
              WireError::kBadVersion);
  }
  // A v3 fetch or miss carries no checksum and still decodes.
  for (const FrameType type : {FrameType::kCacheFetch, FrameType::kCacheMiss}) {
    std::vector<uint8_t> bytes = type == FrameType::kCacheFetch
                                     ? EncodeCacheFetch(1, TestKey())
                                     : EncodeCacheMiss(1, TestKey());
    bytes[4] = 3;
    ParsedFrame frame;
    size_t consumed = 0;
    EXPECT_EQ(TryParseFrame(bytes.data(), bytes.size(), &frame, &consumed),
              WireError::kOk);
  }
}

// Sends `bytes` to `port` and returns everything the server answers until
// it closes the connection (empty when it does not close within 5 s).
std::vector<uint8_t> ExchangeUntilClose(uint16_t port,
                                        const std::vector<uint8_t>& bytes) {
  const UniqueFd fd = ConnectTcp("127.0.0.1", port);
  std::vector<uint8_t> got;
  if (!fd.valid() || !SendAll(fd.get(), bytes.data(), bytes.size())) {
    return got;
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{fd.get(), POLLIN, 0};
    if (left.count() <= 0 ||
        ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
      return {};
    }
    uint8_t chunk[4096];
    const ssize_t n = ::recv(fd.get(), chunk, sizeof(chunk), 0);
    if (n <= 0) {
      return got;
    }
    got.insert(got.end(), chunk, chunk + n);
  }
}

TEST(CacheRpcNodeTest, V3CacheFramesAreRefusedBehindTcpServer) {
  CacheNode node;
  TcpServer server(node.Service());
  ASSERT_TRUE(server.Start());
  for (const char* hex : {kV3PutHex, kV3HitHex}) {
    const std::vector<uint8_t> reply =
        ExchangeUntilClose(server.port(), FromHex(hex));
    ASSERT_FALSE(reply.empty()) << "no kError and close";
    const ParsedFrame frame = Parse(reply);
    ASSERT_EQ(frame.type(), FrameType::kError);
    WireErrorBody body;
    ASSERT_TRUE(DecodeError(frame, &body));
    EXPECT_EQ(static_cast<WireError>(body.code), WireError::kBadVersion);
  }
  server.Stop();
  EXPECT_EQ(server.Stats().bad_version, 2u);
  EXPECT_EQ(node.Stats().puts, 0u);
  EXPECT_FALSE(node.Contains(TestKey(9, 1, 2, kCacheKindV)));
}

// --- node -----------------------------------------------------------------

TEST(CacheRpcNodeTest, PutThenFetchHitsWithSameBytes) {
  CacheNode node;
  const Matrix m = TestMatrix(8, 6, 4);
  const CacheKey key = TestKey();

  uint64_t sent = 0;
  InlineReply ack =
      Ask(node, EncodeCachePut(1, key, m, quant::Dtype::kF32, &sent));
  EXPECT_FALSE(ack.close_connection);
  EXPECT_EQ(ack.frame, EncodeCachePutAck(1, key, sent));
  const ParsedFrame ack_frame = Parse(ack.frame);
  const CacheBodyView ack_body = ViewHit(ack_frame);
  EXPECT_FALSE(ack_body.has_payload());
  EXPECT_EQ(ack_body.checksum, sent);

  // Service() leaves a hit's stored body beside its head, for TcpServer
  // to send without a copy.
  const InlineReply served = node.Service()(Parse(EncodeCacheFetch(2, key)));
  ASSERT_NE(served.body, nullptr);
  EXPECT_EQ(served.frame.size(), kCacheHitHeadBytes);
  EXPECT_EQ(*served.body, PutBody(m, quant::Dtype::kF32));
  const ParsedFrame hit_frame = Parse(Whole(served).frame);
  EXPECT_TRUE(DecodesTo(ViewHit(hit_frame), m));

  const CacheNodeStats stats = node.Stats();
  EXPECT_EQ(stats.puts, 1u);
  EXPECT_EQ(stats.fetch_hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes_served, m.bytes());
}

TEST(CacheRpcNodeTest, FetchMissForAbsentKey) {
  CacheNode node;
  InlineReply reply = Ask(node, EncodeCacheFetch(1, TestKey()));
  CacheMissBody body;
  ASSERT_TRUE(DecodeCacheMiss(Parse(reply.frame), &body));
  EXPECT_EQ(body.key, TestKey());
  EXPECT_EQ(node.Stats().fetch_misses, 1u);
}

TEST(CacheRpcNodeTest, CorruptedPutIsRejectedNotStored) {
  CacheNode node;
  std::vector<uint8_t> bytes = LosslessPut(1, TestKey(), TestMatrix(4, 4, 5));
  bytes.back() ^= 0x01;
  InlineReply reply = Ask(node, bytes);
  EXPECT_TRUE(reply.close_connection);
  WireErrorBody error_body;
  ASSERT_TRUE(DecodeError(Parse(reply.frame), &error_body));
  EXPECT_EQ(static_cast<WireError>(error_body.code),
            WireError::kMalformedPayload);
  EXPECT_FALSE(node.Contains(TestKey()));
  EXPECT_EQ(node.Stats().bad_frames, 1u);
}

TEST(CacheRpcNodeTest, SubmitFrameIsWrongDirection) {
  CacheNode node;
  WireRequest request;
  InlineReply reply = Ask(node, EncodeSubmit(1, request));
  EXPECT_TRUE(reply.close_connection);
  WireErrorBody error_body;
  ASSERT_TRUE(DecodeError(Parse(reply.frame), &error_body));
  EXPECT_EQ(static_cast<WireError>(error_body.code), WireError::kBadType);
}

TEST(CacheRpcNodeTest, LruEvictsUnderByteCap) {
  const Matrix m = TestMatrix(8, 8, 6);  // 256 bytes each.
  CacheNodeOptions options;
  options.max_bytes = 2 * m.bytes();
  CacheNode node(options);
  Ask(node, LosslessPut(1, TestKey(1, 0, 0), m));
  Ask(node, LosslessPut(2, TestKey(2, 0, 0), m));
  // Touch key 1 so key 2 is the LRU victim.
  Ask(node, EncodeCacheFetch(3, TestKey(1, 0, 0)));
  Ask(node, LosslessPut(4, TestKey(3, 0, 0), m));
  EXPECT_TRUE(node.Contains(TestKey(1, 0, 0)));
  EXPECT_FALSE(node.Contains(TestKey(2, 0, 0)));
  EXPECT_TRUE(node.Contains(TestKey(3, 0, 0)));
  const CacheNodeStats stats = node.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.resident_bytes, options.max_bytes);
}

TEST(CacheRpcNodeTest, PutLargerThanTheCapIsRefusedWithoutEvicting) {
  const Matrix small = TestMatrix(4, 4, 16);  // 64 bytes each.
  CacheNodeOptions options;
  options.max_bytes = 2 * small.bytes();
  CacheNode node(options);
  ASSERT_FALSE(Ask(node, LosslessPut(1, TestKey(1, 0, 0), small))
                   .close_connection);
  ASSERT_FALSE(Ask(node, LosslessPut(2, TestKey(2, 0, 0), small))
                   .close_connection);
  // 256 bytes: more than the whole cap, even with every entry evicted.
  const InlineReply reply =
      Ask(node, LosslessPut(3, TestKey(3, 0, 0), TestMatrix(8, 8, 17)));
  EXPECT_TRUE(reply.close_connection);
  WireErrorBody error_body;
  ASSERT_TRUE(DecodeError(Parse(reply.frame), &error_body));
  EXPECT_EQ(static_cast<WireError>(error_body.code),
            WireError::kMalformedPayload);
  EXPECT_TRUE(node.Contains(TestKey(1, 0, 0)));
  EXPECT_TRUE(node.Contains(TestKey(2, 0, 0)));
  EXPECT_FALSE(node.Contains(TestKey(3, 0, 0)));
  const CacheNodeStats stats = node.Stats();
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.resident_bytes, options.max_bytes);
  EXPECT_EQ(stats.oversized_puts, 1u);
  EXPECT_EQ(stats.bad_frames, 1u);
  EXPECT_EQ(JsonCounter(node.MetricsJson(), "oversized_puts"), 1u);
}

TEST(CacheRpcNodeTest, CompressedPutsRestAndServeEncoded) {
  CacheNode node;  // Default admission: staged, i.e. every encoding.
  const Matrix m = TestMatrix(8, 6, 12);
  Ask(node, EncodeCachePut(1, TestKey(1, 0, 0), m, quant::Dtype::kF16,
                           nullptr));
  Ask(node, EncodeCachePut(2, TestKey(2, 0, 0), m, quant::Dtype::kI8,
                           nullptr));
  const CacheNodeStats stats = node.Stats();
  EXPECT_EQ(stats.entries_f16, 1u);
  EXPECT_EQ(stats.entries_i8, 1u);
  // Scale plus element bytes: 2 per f16 element; 1 per i8 element and one
  // f32 scale per row.
  EXPECT_EQ(stats.resident_bytes,
            2 * m.size() + m.size() + static_cast<size_t>(m.rows()) * 4);
  // A fetch serves the entry exactly as it rests — same dtype, same bytes.
  InlineReply hit = Ask(node, EncodeCacheFetch(3, TestKey(1, 0, 0)));
  const ParsedFrame frame = Parse(hit.frame);
  const CacheBodyView body = ViewHit(frame);
  EXPECT_EQ(body.dtype, quant::Dtype::kF16);
  EXPECT_EQ(BodyBytes(body), PutBody(m, quant::Dtype::kF16));
}

TEST(CacheRpcNodeTest, LosslessAdmitRejectsCompressedPuts) {
  CacheNodeOptions options;
  options.admit = quant::PrecisionMode::kLossless;
  CacheNode node(options);
  const Matrix m = TestMatrix(4, 4, 13);
  InlineReply reply = Ask(
      node, EncodeCachePut(1, TestKey(), m, quant::Dtype::kF16, nullptr));
  EXPECT_TRUE(reply.close_connection);
  WireErrorBody error_body;
  ASSERT_TRUE(DecodeError(Parse(reply.frame), &error_body));
  EXPECT_EQ(static_cast<WireError>(error_body.code),
            WireError::kMalformedPayload);
  EXPECT_FALSE(node.Contains(TestKey()));
  EXPECT_EQ(node.Stats().precision_rejects, 1u);
  // A lossless f32 put still lands on the same node.
  InlineReply ack = Ask(node, LosslessPut(2, TestKey(), m));
  EXPECT_FALSE(ack.close_connection);
  EXPECT_TRUE(node.Contains(TestKey()));
}

TEST(CacheRpcNodeTest, ByteCapCountsCompressedBytes) {
  const Matrix m = TestMatrix(8, 8, 14);  // 256 B as f32, 128 B as f16.
  CacheNodeOptions options;
  options.max_bytes = 2 * m.bytes();
  CacheNode node(options);
  // Four f16 entries fit where only two f32 entries would.
  for (int t = 0; t < 4; ++t) {
    Ask(node, EncodeCachePut(static_cast<uint64_t>(t + 1), TestKey(t, 0, 0),
                             m, quant::Dtype::kF16, nullptr));
  }
  EXPECT_EQ(node.Stats().entries, 4u);
  EXPECT_EQ(node.Stats().evictions, 0u);
}

TEST(CacheRpcNodeTest, QueuedHitSendsItsBytesAfterOverwriteAndEviction) {
  // A reader asks for one 2 MB entry eight times and does not read. With
  // its receive buffer pinned (so at most the sender's 4 MB socket buffer
  // and this one hold bytes in the kernel), most of those 16 MB of hits
  // wait in the server's write queue, holding the stored body. The entry
  // is then
  // overwritten and evicted. The reader must still receive the original
  // bytes under the original checksum, eight times — and under ASan, no
  // freed byte may be sent.
  const CacheKey key = TestKey(11, 0, 0);
  const Matrix original = TestMatrix(1024, 512, 41);  // 2 MB of f32.
  CacheNodeOptions options;
  options.max_bytes = 3u << 20;  // Room for one such entry, not two.
  CacheNode node(options);
  TcpServer server(node.Service());
  ASSERT_TRUE(server.Start());
  uint64_t original_sum = 0;
  {
    const InlineReply ack = Ask(
        node, EncodeCachePut(1, key, original, quant::Dtype::kF32,
                             &original_sum));
    ASSERT_FALSE(ack.close_connection);
  }

  UniqueFd reader = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(reader.valid());
  const int pinned = 128 * 1024;
  ASSERT_EQ(::setsockopt(reader.get(), SOL_SOCKET, SO_RCVBUF, &pinned,
                         sizeof(pinned)),
            0);
  constexpr int kHits = 8;
  std::vector<uint8_t> fetches;
  for (int i = 0; i < kHits; ++i) {
    const std::vector<uint8_t> f = EncodeCacheFetch(100 + i, key);
    fetches.insert(fetches.end(), f.begin(), f.end());
  }
  ASSERT_TRUE(SendAll(reader.get(), fetches.data(), fetches.size()));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (node.Stats().fetch_hits < kHits &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(node.Stats().fetch_hits, static_cast<uint64_t>(kHits));

  // Overwrite, then evict, through another connection.
  Client writer("127.0.0.1", server.port());
  model::ActivationRecord replacement;
  replacement.steps.resize(1);
  replacement.steps[0].y.push_back(TestMatrix(1024, 512, 42));
  ASSERT_TRUE(writer.PutRecord(11, replacement).transport_ok);
  ASSERT_EQ(node.Stats().put_overwrites, 1u);
  replacement.steps[0].y[0] = TestMatrix(1024, 512, 43);
  ASSERT_TRUE(writer.PutRecord(12, replacement).transport_ok);
  ASSERT_FALSE(node.Contains(key));
  ASSERT_EQ(node.Stats().evictions, 1u);

  // Now read everything the reader was sent.
  const size_t frame_bytes =
      kFrameHeaderBytes + CachePutPayloadBytes(1024, 512, quant::Dtype::kF32);
  std::vector<uint8_t> bytes(kHits * frame_bytes);
  size_t got = 0;
  while (got < bytes.size() && std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{reader.get(), POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) {
      continue;
    }
    const ssize_t n =
        ::recv(reader.get(), bytes.data() + got, bytes.size() - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<size_t>(n);
  }
  ASSERT_EQ(got, bytes.size());
  for (int i = 0; i < kHits; ++i) {
    SCOPED_TRACE(i);
    const std::vector<uint8_t> one(
        bytes.begin() + static_cast<ptrdiff_t>(i * frame_bytes),
        bytes.begin() + static_cast<ptrdiff_t>((i + 1) * frame_bytes));
    const ParsedFrame frame = Parse(one);
    EXPECT_EQ(frame.header.seq, static_cast<uint64_t>(100 + i));
    const CacheBodyView hit = ViewHit(frame);
    EXPECT_EQ(hit.checksum, original_sum);
    EXPECT_TRUE(DecodesTo(hit, original));
  }
  server.Stop();
}

TEST(CacheRpcNodeTest, MetricsJsonCarriesCounters) {
  CacheNode node;
  const Matrix m = TestMatrix(4, 4, 7);
  Ask(node, LosslessPut(1, TestKey(), m));
  Ask(node, EncodeCacheFetch(2, TestKey()));
  Ask(node, EncodeCacheFetch(3, TestKey(9, 9, 9)));
  const std::string json = node.MetricsJson();
  EXPECT_EQ(JsonCounter(json, "puts"), 1u);
  EXPECT_EQ(JsonCounter(json, "fetch_hits"), 1u);
  EXPECT_EQ(JsonCounter(json, "fetch_misses"), 1u);
  EXPECT_EQ(JsonCounter(json, "entries"), 1u);
}

// --- client over loopback -------------------------------------------------

class CacheRpcClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<TcpServer>(node_.Service());
    ASSERT_TRUE(server_->Start());
  }
  void TearDown() override { server_->Stop(); }

  CacheNode node_;
  std::unique_ptr<TcpServer> server_;
};

TEST_F(CacheRpcClientTest, PutRecordThenFetchRecordIsBitwiseIdentical) {
  model::NumericsConfig numerics = model::NumericsConfig::ForTests();
  numerics.num_steps = 2;
  model::DiffusionModel model(numerics);
  const model::ActivationRecord record = model.Register(5, /*record_kv=*/true);

  Client client("127.0.0.1", server_->port());
  PutRecordResult put = client.PutRecord(5, record);
  ASSERT_TRUE(put.transport_ok) << ToString(client.last_error());
  const uint64_t matrices =
      static_cast<uint64_t>(numerics.num_steps) * numerics.num_blocks * 3;
  EXPECT_EQ(put.puts, matrices);

  FetchRecordResult fetched =
      client.FetchRecord(5, numerics.num_steps, numerics.num_blocks,
                         /*want_kv=*/true);
  ASSERT_TRUE(fetched.transport_ok) << ToString(client.last_error());
  ASSERT_TRUE(fetched.complete);
  EXPECT_EQ(fetched.hits, matrices);
  EXPECT_EQ(fetched.misses, 0u);
  ASSERT_NE(fetched.record, nullptr);
  EXPECT_TRUE(RecordsEqual(*fetched.record, record));
  EXPECT_EQ(fetched.bytes, put.bytes);
}

TEST_F(CacheRpcClientTest, FetchOfAbsentRecordMissesEveryKey) {
  Client client("127.0.0.1", server_->port());
  FetchRecordResult fetched = client.FetchRecord(1, 2, 3, /*want_kv=*/false);
  ASSERT_TRUE(fetched.transport_ok);
  EXPECT_FALSE(fetched.complete);
  EXPECT_EQ(fetched.record, nullptr);
  EXPECT_EQ(fetched.misses, 6u);
  EXPECT_EQ(fetched.hits, 0u);
}

TEST_F(CacheRpcClientTest, KvFetchOfYOnlyRecordIsIncomplete) {
  model::NumericsConfig numerics = model::NumericsConfig::ForTests();
  numerics.num_steps = 2;
  model::DiffusionModel model(numerics);
  const model::ActivationRecord record = model.Register(5, /*record_kv=*/false);

  Client client("127.0.0.1", server_->port());
  ASSERT_TRUE(client.PutRecord(5, record).transport_ok);
  FetchRecordResult fetched =
      client.FetchRecord(5, numerics.num_steps, numerics.num_blocks,
                         /*want_kv=*/true);
  ASSERT_TRUE(fetched.transport_ok);
  EXPECT_FALSE(fetched.complete);
  const uint64_t per_kind =
      static_cast<uint64_t>(numerics.num_steps) * numerics.num_blocks;
  EXPECT_EQ(fetched.hits, per_kind);        // Y resident.
  EXPECT_EQ(fetched.misses, 2 * per_kind);  // K and V absent.
}

TEST_F(CacheRpcClientTest, MetricsQueryReconcilesWithClientCounts) {
  model::NumericsConfig numerics = model::NumericsConfig::ForTests();
  numerics.num_steps = 2;
  model::DiffusionModel model(numerics);
  Client client("127.0.0.1", server_->port());
  PutRecordResult put =
      client.PutRecord(9, model.Register(9, /*record_kv=*/false));
  ASSERT_TRUE(put.transport_ok);
  FetchRecordResult fetched =
      client.FetchRecord(9, numerics.num_steps, numerics.num_blocks, false);
  ASSERT_TRUE(fetched.complete);

  auto metrics = client.QueryMetrics();
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(JsonCounter(*metrics, "puts"), put.puts);
  EXPECT_EQ(JsonCounter(*metrics, "fetch_hits"), fetched.hits);
  EXPECT_EQ(JsonCounter(*metrics, "bytes_served"), fetched.bytes);
  EXPECT_EQ(JsonCounter(*metrics, "bytes_stored"), put.bytes);
}

TEST_F(CacheRpcClientTest, OversizedPutFailsClientSideBeforeSocket) {
  // 1200 x 1024 f32 is ~4.9 MB raw — over the 4 MiB frame cap.
  model::ActivationRecord record;
  record.steps.resize(1);
  record.steps[0].y.push_back(Matrix(1200, 1024));

  Client client("127.0.0.1", server_->port());
  PutRecordResult put = client.PutRecord(1, record);
  EXPECT_FALSE(put.transport_ok);
  EXPECT_EQ(client.last_error(), WireError::kOversizedFrame);
  EXPECT_EQ(put.puts, 0u);
  EXPECT_EQ(put.wire_bytes, 0u);
  // Nothing hit the wire: the node saw neither a put nor a bad frame...
  EXPECT_EQ(node_.Stats().puts, 0u);
  EXPECT_EQ(node_.Stats().bad_frames, 0u);
  // ...and the same connection still carries a normal-sized record.
  model::NumericsConfig numerics = model::NumericsConfig::ForTests();
  numerics.num_steps = 1;
  model::DiffusionModel model(numerics);
  EXPECT_TRUE(client.PutRecord(2, model.Register(2, false)).transport_ok)
      << ToString(client.last_error());
}

TEST_F(CacheRpcClientTest, Fp16RecordRoundTripsWithinTolerance) {
  model::NumericsConfig numerics = model::NumericsConfig::ForTests();
  numerics.num_steps = 2;
  model::DiffusionModel model(numerics);
  const model::ActivationRecord record = model.Register(5, false);

  Client client("127.0.0.1", server_->port());
  PutRecordResult put =
      client.PutRecord(5, record, quant::PrecisionMode::kF16);
  ASSERT_TRUE(put.transport_ok) << ToString(client.last_error());
  EXPECT_EQ(put.wire_bytes * 2, put.bytes);  // f16 is exactly half.
  EXPECT_EQ(node_.Stats().bytes_stored, put.wire_bytes);

  FetchRecordResult fetched =
      client.FetchRecord(5, numerics.num_steps, numerics.num_blocks, false);
  ASSERT_TRUE(fetched.transport_ok);
  ASSERT_TRUE(fetched.complete);
  EXPECT_EQ(fetched.wire_bytes, put.wire_bytes);
  EXPECT_EQ(fetched.bytes, put.bytes);  // Decoded back to full f32.
  // Round-to-nearest f16 error is bounded by ~2^-11 at each magnitude.
  float max_rel = 0.0f;
  for (size_t st = 0; st < record.steps.size(); ++st) {
    for (size_t b = 0; b < record.steps[st].y.size(); ++b) {
      const Matrix& want = record.steps[st].y[b];
      const Matrix& got = fetched.record->steps[st].y[b];
      for (size_t i = 0; i < want.size(); ++i) {
        max_rel = std::max(
            max_rel, std::abs(want.data()[i] - got.data()[i]) /
                         std::max(1.0f, std::abs(want.data()[i])));
      }
    }
  }
  EXPECT_LT(max_rel, 1.0f / 2048.0f);
}

TEST_F(CacheRpcClientTest, StagedPutSplitsDtypesByStep) {
  model::NumericsConfig numerics = model::NumericsConfig::ForTests();
  numerics.num_steps = 4;
  model::DiffusionModel model(numerics);
  Client client("127.0.0.1", server_->port());
  ASSERT_TRUE(client
                  .PutRecord(6, model.Register(6, false),
                             quant::PrecisionMode::kStaged)
                  .transport_ok);
  // Steps 0-1 travel f16, steps 2-3 travel i8 — resident dtypes prove it.
  const CacheNodeStats stats = node_.Stats();
  const uint64_t per_half = 2ull * numerics.num_blocks;
  EXPECT_EQ(stats.entries_f16, per_half);
  EXPECT_EQ(stats.entries_i8, per_half);
  EXPECT_EQ(stats.entries_f32, 0u);
}

TEST_F(CacheRpcClientTest, CompressedPutRejectedByLosslessNode) {
  CacheNodeOptions strict;
  strict.admit = quant::PrecisionMode::kLossless;
  CacheNode lossless_node(strict);
  TcpServer strict_server(lossless_node.Service());
  ASSERT_TRUE(strict_server.Start());

  model::NumericsConfig numerics = model::NumericsConfig::ForTests();
  numerics.num_steps = 1;
  model::DiffusionModel model(numerics);
  Client client("127.0.0.1", strict_server.port());
  PutRecordResult put = client.PutRecord(3, model.Register(3, false),
                                         quant::PrecisionMode::kF16);
  EXPECT_FALSE(put.transport_ok);
  // The node rejects the first put and hangs up, so the client observes
  // either the typed error frame or the hangup, depending on the race.
  EXPECT_TRUE(client.last_error() == WireError::kMalformedPayload ||
              client.last_error() == WireError::kConnectionClosed)
      << ToString(client.last_error());
  EXPECT_GE(lossless_node.Stats().precision_rejects, 1u);
  EXPECT_EQ(lossless_node.Stats().puts, 0u);
  strict_server.Stop();
}

TEST_F(CacheRpcClientTest, ConnectToDeadPortFailsAfterBoundedRetries) {
  server_->Stop();
  ClientOptions options;
  options.connect_attempts = 2;
  options.connect_backoff = std::chrono::milliseconds(1);
  Client client("127.0.0.1", server_->port(), options);
  FetchRecordResult fetched = client.FetchRecord(1, 1, 1, false);
  EXPECT_FALSE(fetched.transport_ok);
  EXPECT_EQ(client.last_error(), WireError::kConnectionClosed);
}

// --- one-member ring ------------------------------------------------------

class CacheRpcRemoteStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<TcpServer>(node_.Service());
    ASSERT_TRUE(server_->Start());
    numerics_ = model::NumericsConfig::ForTests();
    numerics_.num_steps = 2;
    model_ = std::make_unique<model::DiffusionModel>(numerics_);
  }
  void TearDown() override { server_->Stop(); }

  // One cache node is a one-member ring: replication (default 2) clamps
  // to 1, and read repair and failover have nothing to do.
  cache::ShardedStoreOptions StoreOptions() {
    cache::ShardedStoreOptions options;
    options.nodes = {{"127.0.0.1", server_->port()}};
    options.connect_attempts = 1;
    options.connect_backoff = std::chrono::milliseconds(1);
    return options;
  }

  CacheNode node_;
  std::unique_ptr<TcpServer> server_;
  model::NumericsConfig numerics_;
  std::unique_ptr<model::DiffusionModel> model_;
};

TEST_F(CacheRpcRemoteStoreTest, MissRegistersLocallyAndPublishes) {
  cache::ShardedRemoteStore store(StoreOptions());
  auto record = store.Acquire(*model_, 3, /*record_kv=*/false);
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(RecordsEqual(*record, model_->Register(3, false)));

  const cache::ShardedStoreStats stats = store.Stats();
  EXPECT_EQ(stats.remote_misses, 1u);
  EXPECT_EQ(stats.local_registrations, 1u);
  EXPECT_EQ(stats.puts_ok, 1u);
  EXPECT_EQ(stats.fallbacks, 0u);
  // The record is now resident on the node.
  EXPECT_EQ(node_.Stats().puts,
            static_cast<uint64_t>(numerics_.num_steps) * numerics_.num_blocks);
  EXPECT_EQ(node_.Stats().bytes_stored, stats.remote_bytes_put);
}

TEST_F(CacheRpcRemoteStoreTest, SecondStoreFetchesRemotelyBitwise) {
  cache::ShardedRemoteStore first(StoreOptions());
  auto published = first.Acquire(*model_, 3, false);

  // A fresh store (fresh LRU front) — like a new worker process joining.
  cache::ShardedRemoteStore second(StoreOptions());
  auto fetched = second.Acquire(*model_, 3, false);
  ASSERT_NE(fetched, nullptr);
  EXPECT_TRUE(RecordsEqual(*fetched, *published));

  const cache::ShardedStoreStats stats = second.Stats();
  EXPECT_EQ(stats.remote_hits, 1u);
  EXPECT_EQ(stats.remote_misses, 0u);
  EXPECT_EQ(stats.local_registrations, 0u);
  EXPECT_EQ(stats.remote_bytes_fetched, node_.Stats().bytes_served);
  // Lossless moves exactly what it decodes.
  EXPECT_EQ(stats.remote_wire_bytes_fetched, stats.remote_bytes_fetched);
  EXPECT_GT(stats.fetch_p99_us, 0.0);
}

TEST_F(CacheRpcRemoteStoreTest, Fp16StoreMovesFewerWireBytes) {
  cache::ShardedStoreOptions options = StoreOptions();
  options.precision = quant::PrecisionMode::kF16;
  cache::ShardedRemoteStore first(options);
  ASSERT_NE(first.Acquire(*model_, 3, false), nullptr);
  const cache::ShardedStoreStats cold = first.Stats();
  EXPECT_EQ(cold.remote_wire_bytes_put * 2, cold.remote_bytes_put);
  EXPECT_EQ(node_.Stats().bytes_stored, cold.remote_wire_bytes_put);

  cache::ShardedRemoteStore second(options);
  ASSERT_NE(second.Acquire(*model_, 3, false), nullptr);
  const cache::ShardedStoreStats warm = second.Stats();
  EXPECT_EQ(warm.remote_hits, 1u);
  EXPECT_EQ(warm.remote_wire_bytes_fetched * 2, warm.remote_bytes_fetched);

  const std::string json = second.MetricsJson();
  EXPECT_EQ(JsonCounter(json, "remote_wire_bytes_fetched"),
            warm.remote_wire_bytes_fetched);
  EXPECT_EQ(JsonCounter(json, "remote_wire_bytes_put"), 0u);
  EXPECT_NE(json.find("\"precision\":\"fp16\""), std::string::npos);
}

TEST_F(CacheRpcRemoteStoreTest, FrontHitCostsNoRpc) {
  cache::ShardedRemoteStore store(StoreOptions());
  auto first = store.Acquire(*model_, 3, false);
  const uint64_t fetches_after_first =
      node_.Stats().fetch_hits + node_.Stats().fetch_misses;
  auto second = store.Acquire(*model_, 3, false);
  EXPECT_EQ(first.get(), second.get());  // Same pinned record.
  EXPECT_EQ(store.Stats().front_hits, 1u);
  EXPECT_EQ(node_.Stats().fetch_hits + node_.Stats().fetch_misses,
            fetches_after_first);
}

TEST_F(CacheRpcRemoteStoreTest, SingleFlightCoalescesConcurrentAcquires) {
  cache::ShardedRemoteStore store(StoreOptions());
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const model::ActivationRecord>> records(
      kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&, i] { records[i] = store.Acquire(*model_, 11, false); });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(records[0].get(), records[i].get());
  }
  const cache::ShardedStoreStats stats = store.Stats();
  // Exactly one thread went remote; the rest either joined its flight or
  // hit the front after it completed.
  EXPECT_EQ(stats.remote_hits + stats.remote_misses, 1u);
  EXPECT_EQ(stats.front_hits + stats.singleflight_waits,
            static_cast<uint64_t>(kThreads - 1));
}

TEST_F(CacheRpcRemoteStoreTest, KvUpgradeReplacesYOnlyFrontEntry) {
  cache::ShardedRemoteStore store(StoreOptions());
  auto y_only = store.Acquire(*model_, 3, /*record_kv=*/false);
  EXPECT_FALSE(y_only->has_kv());
  auto with_kv = store.Acquire(*model_, 3, /*record_kv=*/true);
  EXPECT_TRUE(with_kv->has_kv());
  // And the upgraded record now satisfies Y-only acquires from the front.
  auto again = store.Acquire(*model_, 3, /*record_kv=*/false);
  EXPECT_EQ(again.get(), with_kv.get());
}

TEST_F(CacheRpcRemoteStoreTest, UnreachableNodeFallsBackLocally) {
  cache::ShardedStoreOptions options = StoreOptions();
  server_->Stop();  // Nothing listens on the port now.
  cache::ShardedRemoteStore store(options);
  auto record = store.Acquire(*model_, 3, false);
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(RecordsEqual(*record, model_->Register(3, false)));
  const cache::ShardedStoreStats stats = store.Stats();
  EXPECT_EQ(stats.fallbacks, 1u);
  EXPECT_EQ(stats.local_registrations, 1u);
  EXPECT_EQ(stats.remote_hits, 0u);
}

TEST_F(CacheRpcRemoteStoreTest, CircuitBreakerSkipsFetchWhileOpen) {
  cache::ShardedStoreOptions options = StoreOptions();
  options.max_consecutive_failures = 1;
  options.degrade_cooldown = std::chrono::hours(1);
  server_->Stop();
  cache::ShardedRemoteStore store(options);
  store.Acquire(*model_, 1, false);  // Trips the breaker.
  store.Acquire(*model_, 2, false);  // Served while the circuit is open.
  const cache::ShardedStoreStats stats = store.Stats();
  EXPECT_EQ(stats.degrade_trips, 1u);
  EXPECT_EQ(stats.fallbacks, 2u);
  EXPECT_EQ(stats.local_registrations, 2u);
}

// --- prefetch pipeline ----------------------------------------------------

// Polls until `done` holds or ~2 s pass; the prefetch pipeline completes in
// microseconds on loopback, so the deadline only bounds a broken build.
template <typename Predicate>
bool WaitFor(Predicate done,
             std::chrono::milliseconds timeout = std::chrono::seconds(2)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST_F(CacheRpcRemoteStoreTest, PrefetchWarmsStagingAndAcquireCoalesces) {
  // Publish template 3 so the prefetch hits remotely.
  Client publisher("127.0.0.1", server_->port());
  ASSERT_TRUE(
      publisher.PutRecord(3, model_->Register(3, false)).transport_ok);

  cache::ShardedStoreOptions options = StoreOptions();
  options.prefetch_workers = 1;
  cache::ShardedRemoteStore store(options);
  store.Prefetch(*model_, 3, /*record_kv=*/false);
  ASSERT_TRUE(WaitFor([&] { return store.Stats().prefetch_remote_hits == 1; }));

  const uint64_t node_fetches_before =
      node_.Stats().fetch_hits + node_.Stats().fetch_misses;
  auto record = store.Acquire(*model_, 3, false);
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(RecordsEqual(*record, model_->Register(3, false)));
  // The Acquire consumed the staged prefetch — no wire traffic of its own.
  EXPECT_EQ(node_.Stats().fetch_hits + node_.Stats().fetch_misses,
            node_fetches_before);
  const cache::ShardedStoreStats stats = store.Stats();
  EXPECT_EQ(stats.prefetch_issued, 1u);
  EXPECT_EQ(stats.prefetch_coalesced, 1u);
  EXPECT_EQ(stats.remote_hits, 0u);   // Foreground never fetched.
  EXPECT_EQ(stats.prefetch_staged, 0u);  // Consumed out of staging.
  EXPECT_GT(stats.prefetch_bytes_fetched, 0u);
  EXPECT_GT(stats.prefetch_p99_us, 0.0);
  // And the record now fronts like any other.
  auto again = store.Acquire(*model_, 3, false);
  EXPECT_EQ(again.get(), record.get());
  EXPECT_EQ(store.Stats().front_hits, 1u);
}

TEST_F(CacheRpcRemoteStoreTest, PrefetchRacingForegroundAcquireSingleFlights) {
  Client publisher("127.0.0.1", server_->port());
  const model::ActivationRecord published = model_->Register(7, false);
  ASSERT_TRUE(publisher.PutRecord(7, published).transport_ok);
  const uint64_t record_matrices =
      static_cast<uint64_t>(numerics_.num_steps) * numerics_.num_blocks;

  cache::ShardedStoreOptions options = StoreOptions();
  options.prefetch_workers = 1;
  cache::ShardedRemoteStore store(options);
  // The hint opens the flight synchronously, so the immediate foreground
  // Acquire joins it (or consumes its staged result) — never a second
  // fetch, no matter how the race lands.
  store.Prefetch(*model_, 7, /*record_kv=*/false);
  auto record = store.Acquire(*model_, 7, false);
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(RecordsEqual(*record, published));

  const cache::ShardedStoreStats stats = store.Stats();
  EXPECT_EQ(stats.prefetch_issued, 1u);
  EXPECT_EQ(stats.prefetch_coalesced, 1u);
  EXPECT_EQ(stats.remote_hits, 0u);
  EXPECT_EQ(stats.singleflight_waits, 0u);
  // The node served the record exactly once.
  EXPECT_EQ(node_.Stats().fetch_hits, record_matrices);
}

TEST_F(CacheRpcRemoteStoreTest, PrefetchMissResolvesEmptyAndForegroundLadders) {
  // Nothing resident: the prefetch job cannot register locally (it has no
  // model), so it resolves its flight empty and the foreground Acquire
  // runs the miss ladder itself — register + publish, never a null record.
  cache::ShardedStoreOptions options = StoreOptions();
  options.prefetch_workers = 1;
  cache::ShardedRemoteStore store(options);
  store.Prefetch(*model_, 4, /*record_kv=*/false);
  auto record = store.Acquire(*model_, 4, false);
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(RecordsEqual(*record, model_->Register(4, false)));

  ASSERT_TRUE(WaitFor([&] { return store.Stats().prefetch_remote_misses == 1; }));
  const cache::ShardedStoreStats stats = store.Stats();
  EXPECT_EQ(stats.prefetch_issued, 1u);
  EXPECT_EQ(stats.prefetch_coalesced, 0u);  // The empty flight coalesced nobody.
  EXPECT_EQ(stats.remote_misses, 1u);
  EXPECT_EQ(stats.local_registrations, 1u);
  EXPECT_EQ(stats.puts_ok, 1u);
}

TEST_F(CacheRpcRemoteStoreTest, KilledNodeWithPrefetchesInFlightNeverHangs) {
  cache::ShardedStoreOptions options = StoreOptions();
  options.prefetch_workers = 2;
  server_->Stop();  // The node dies before any prefetch lands.
  cache::ShardedRemoteStore store(options);
  constexpr int kTemplates = 4;
  for (int t = 0; t < kTemplates; ++t) {
    store.Prefetch(*model_, t, /*record_kv=*/false);
  }
  // Every Acquire still succeeds — dead prefetches resolve empty, the
  // foreground falls back to local registration (or rides the open
  // circuit straight there).
  for (int t = 0; t < kTemplates; ++t) {
    auto record = store.Acquire(*model_, t, false);
    ASSERT_NE(record, nullptr);
    EXPECT_TRUE(RecordsEqual(*record, model_->Register(t, false)));
  }
  const cache::ShardedStoreStats stats = store.Stats();
  EXPECT_EQ(stats.fallbacks, static_cast<uint64_t>(kTemplates));
  EXPECT_EQ(stats.local_registrations, static_cast<uint64_t>(kTemplates));
  EXPECT_EQ(stats.remote_hits, 0u);
  EXPECT_EQ(stats.prefetch_remote_hits, 0u);
  // Hints either died on the wire, were suppressed by the tripped
  // circuit, or were dropped/flushed — all of them are accounted for.
  EXPECT_EQ(stats.prefetch_issued + stats.prefetch_suppressed +
                stats.prefetch_dropped,
            static_cast<uint64_t>(kTemplates));
}

TEST_F(CacheRpcRemoteStoreTest, OpenCircuitSuppressesPrefetchAtIssue) {
  cache::ShardedStoreOptions options = StoreOptions();
  options.prefetch_workers = 1;
  options.max_consecutive_failures = 1;
  options.degrade_cooldown = std::chrono::hours(1);
  server_->Stop();
  cache::ShardedRemoteStore store(options);
  store.Acquire(*model_, 1, false);  // Trips the breaker.
  ASSERT_EQ(store.Stats().degrade_trips, 1u);
  store.Prefetch(*model_, 2, /*record_kv=*/false);
  const cache::ShardedStoreStats stats = store.Stats();
  EXPECT_EQ(stats.prefetch_suppressed, 1u);
  EXPECT_EQ(stats.prefetch_issued, 0u);
}

TEST_F(CacheRpcRemoteStoreTest, RedundantPrefetchHintsAreDeduped) {
  cache::ShardedStoreOptions options = StoreOptions();
  options.prefetch_workers = 1;
  cache::ShardedRemoteStore store(options);
  store.Acquire(*model_, 3, false);  // Front now holds template 3.
  store.Prefetch(*model_, 3, /*record_kv=*/false);
  const cache::ShardedStoreStats stats = store.Stats();
  EXPECT_EQ(stats.prefetch_redundant, 1u);
  EXPECT_EQ(stats.prefetch_issued, 0u);
}

TEST_F(CacheRpcRemoteStoreTest, MetricsJsonCarriesPrefetchCounters) {
  Client publisher("127.0.0.1", server_->port());
  ASSERT_TRUE(
      publisher.PutRecord(5, model_->Register(5, false)).transport_ok);
  cache::ShardedStoreOptions options = StoreOptions();
  options.prefetch_workers = 1;
  cache::ShardedRemoteStore store(options);
  store.Prefetch(*model_, 5, /*record_kv=*/false);
  ASSERT_TRUE(WaitFor([&] { return store.Stats().prefetch_remote_hits == 1; }));
  store.Acquire(*model_, 5, false);
  const std::string json = store.MetricsJson();
  EXPECT_EQ(JsonCounter(json, "prefetch_issued"), 1u);
  EXPECT_EQ(JsonCounter(json, "prefetch_coalesced"), 1u);
  EXPECT_EQ(JsonCounter(json, "prefetch_remote_hits"), 1u);
  EXPECT_EQ(JsonCounter(json, "prefetch_staged"), 0u);
  EXPECT_NE(json.find("\"prefetch_p99_us\":"), std::string::npos);
}

TEST_F(CacheRpcRemoteStoreTest, MetricsJsonCarriesTheLadderCounters) {
  cache::ShardedRemoteStore store(StoreOptions());
  store.Acquire(*model_, 3, false);  // remote miss -> register + publish
  store.Acquire(*model_, 3, false);  // front hit
  const std::string json = store.MetricsJson();
  EXPECT_EQ(JsonCounter(json, "front_hits"), 1u);
  EXPECT_EQ(JsonCounter(json, "remote_misses"), 1u);
  EXPECT_EQ(JsonCounter(json, "puts_ok"), 1u);
  EXPECT_EQ(JsonCounter(json, "front_size"), 1u);
  EXPECT_NE(json.find("\"kind\":\"sharded\""), std::string::npos);
}

}  // namespace
}  // namespace flashps::net
