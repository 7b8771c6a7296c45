#include "src/net/wire.h"

#include <bit>
#include <cstring>

namespace flashps::net {

namespace {

constexpr int32_t kMaxDenoiseSteps = 1000;

void AppendHeader(ByteWriter& w, FrameType type, uint64_t seq,
                  uint32_t payload_len) {
  w.U32(kWireMagic);
  w.U16(kWireVersion);
  w.U16(static_cast<uint16_t>(type));
  w.U64(seq);
  w.U32(payload_len);
}

bool ValidFrameType(uint16_t type) {
  return type >= static_cast<uint16_t>(FrameType::kSubmit) &&
         type <= static_cast<uint16_t>(FrameType::kAuthOk);
}

// Upper bound on either dimension of a matrix accepted off the wire.
// Generous next to real activation shapes (tokens <= kMaxGridSide^2 would
// overflow the frame cap long before this), but keeps rows*cols arithmetic
// safely inside 32 bits.
constexpr uint32_t kMaxMatrixSide = 1u << 20;

void AppendCacheKey(ByteWriter& w, const CacheKey& key) {
  w.I32(key.template_id);
  w.I32(key.step);
  w.I32(key.block);
  w.U8(key.kind);
}

CacheKey ReadCacheKey(ByteReader& r) {
  CacheKey key;
  key.template_id = r.I32();
  key.step = r.I32();
  key.block = r.I32();
  key.kind = r.U8();
  return key;
}

bool ValidCacheKey(const CacheKey& key, std::string* error) {
  if (key.template_id < 0 || key.step < 0 || key.block < 0) {
    if (error != nullptr) *error = "cache key field negative";
    return false;
  }
  if (key.kind > kCacheKindV) {
    if (error != nullptr) *error = "cache key kind out of range";
    return false;
  }
  return true;
}

// Checks the encoded body of a matrix whose shape header (rows, cols)
// was already consumed, where it lies: `out` gets the shape, the dtype
// and pointers to the scale bits and elements. Strict: an unknown dtype
// tag, a scale count other than the dtype's, and bytes short of the shape
// are rejected here, before any bytes are believed.
bool ViewMatrixBody(ByteReader& r, uint32_t rows, uint32_t cols,
                    CacheBodyView* out, std::string* error) {
  if (rows == 0 || cols == 0 || rows > kMaxMatrixSide ||
      cols > kMaxMatrixSide) {
    if (error != nullptr) *error = "matrix dimensions out of range";
    return false;
  }
  const uint8_t dtype_tag = r.U8();
  const uint32_t scale_count = r.U32();
  if (!r.ok()) {
    if (error != nullptr) *error = "matrix header shorter than declared";
    return false;
  }
  if (!quant::ValidDtypeTag(dtype_tag)) {
    if (error != nullptr) *error = "unknown matrix dtype tag";
    return false;
  }
  const auto dtype = static_cast<quant::Dtype>(dtype_tag);
  if (scale_count != quant::ScaleCount(dtype, static_cast<int>(rows))) {
    if (error != nullptr) *error = "scale count does not match dtype";
    return false;
  }
  if (static_cast<uint64_t>(scale_count) * sizeof(float) > r.remaining()) {
    if (error != nullptr) *error = "matrix scales truncated";
    return false;
  }
  out->scales = r.Skip(scale_count * sizeof(float));
  const uint64_t payload_bytes =
      static_cast<uint64_t>(rows) * cols * quant::DtypeBytes(dtype);
  if (payload_bytes > r.remaining()) {
    if (error != nullptr) *error = "matrix payload shorter than its shape";
    return false;
  }
  out->elements = r.Skip(payload_bytes);
  out->dtype = dtype;
  out->rows = static_cast<int>(rows);
  out->cols = static_cast<int>(cols);
  return true;
}

uint64_t ReadLe64(const uint8_t* p) {
  uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(v));
  } else {
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(p[i]) << (8 * i);
    }
  }
  return v;
}

uint32_t ReadLe32(const uint8_t* p) {
  uint32_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(v));
  } else {
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(p[i]) << (8 * i);
    }
  }
  return v;
}

// The XXH64 primes and lane round of the reference implementation.
constexpr uint64_t kXxhPrime1 = 0x9e3779b185ebca87ull;
constexpr uint64_t kXxhPrime2 = 0xc2b2ae3d27d4eb4full;
constexpr uint64_t kXxhPrime3 = 0x165667b19e3779f9ull;
constexpr uint64_t kXxhPrime4 = 0x85ebca77c2b2ae63ull;
constexpr uint64_t kXxhPrime5 = 0x27d4eb2f165667c5ull;

uint64_t XxhRound(uint64_t acc, uint64_t input) {
  return std::rotl(acc + input * kXxhPrime2, 31) * kXxhPrime1;
}

uint64_t XxhMerge(uint64_t hash, uint64_t lane) {
  return (hash ^ XxhRound(0, lane)) * kXxhPrime1 + kXxhPrime4;
}

// Checks `declared` against Xxh64 of the matrix body of a put or hit,
// hashed where it landed.
bool BodyChecksumMatches(const uint8_t* body, size_t size, uint64_t declared,
                         const char* what, std::string* error) {
  if (Xxh64(body, size) == declared) {
    return true;
  }
  if (error != nullptr) *error = std::string(what) + " checksum mismatch";
  return false;
}

// Starts a frame whose payload will be exactly `payload_len` bytes: the
// whole frame is reserved up front and its header written.
std::vector<uint8_t> BeginFrame(FrameType type, uint64_t seq,
                                size_t payload_len) {
  std::vector<uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload_len);
  ByteWriter w(out);
  AppendHeader(w, type, seq, static_cast<uint32_t>(payload_len));
  return out;
}

// Hashes the matrix body that ends the frame, from `body_at`, and writes
// the sum into the checksum slot just before it.
uint64_t SealCachePut(std::vector<uint8_t>& frame, size_t body_at) {
  const uint64_t sum = Xxh64(frame.data() + body_at, frame.size() - body_at);
  for (size_t i = 0; i < 8; ++i) {
    frame[body_at - 8 + i] = static_cast<uint8_t>(sum >> (8 * i));
  }
  return sum;
}

}  // namespace

std::string ToString(WireError error) {
  switch (error) {
    case WireError::kOk:
      return "ok";
    case WireError::kNeedMore:
      return "need-more";
    case WireError::kBadMagic:
      return "bad-magic";
    case WireError::kBadVersion:
      return "bad-version";
    case WireError::kBadType:
      return "bad-type";
    case WireError::kOversizedFrame:
      return "oversized-frame";
    case WireError::kMalformedPayload:
      return "malformed-payload";
    case WireError::kTruncatedFrame:
      return "truncated-frame";
    case WireError::kTimeout:
      return "timeout";
    case WireError::kConnectionClosed:
      return "connection-closed";
    case WireError::kUnauthorized:
      return "unauthorized";
  }
  return "?";
}

std::vector<uint8_t> EncodeFrame(FrameType type, uint64_t seq,
                                 const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload.size());
  ByteWriter w(out);
  AppendHeader(w, type, seq, static_cast<uint32_t>(payload.size()));
  w.Bytes(payload.data(), payload.size());
  return out;
}

std::vector<uint8_t> EncodeSubmit(uint64_t seq, const WireRequest& request) {
  std::vector<uint8_t> payload;
  ByteWriter w(payload);
  w.U8(request.engine_mode);
  w.I32(request.denoise_steps);
  runtime::AppendOnlineRequest(request.request, payload);
  return EncodeFrame(FrameType::kSubmit, seq, payload);
}

std::vector<uint8_t> EncodeSubmitResult(uint64_t seq,
                                        const WireResponse& response) {
  std::vector<uint8_t> payload;
  ByteWriter w(payload);
  w.U8(response.status);
  w.I32(response.worker_id);
  w.I64(response.estimated_wall_us);
  w.I64(response.queueing_us);
  w.I64(response.denoise_us);
  w.I64(response.post_us);
  w.I64(response.e2e_us);
  w.U64(response.latent_checksum);
  return EncodeFrame(FrameType::kSubmitResult, seq, payload);
}

std::vector<uint8_t> EncodeMetricsQuery(uint64_t seq) {
  return EncodeFrame(FrameType::kMetricsQuery, seq, {});
}

std::vector<uint8_t> EncodeMetricsReport(uint64_t seq,
                                         const std::string& json) {
  std::vector<uint8_t> payload(json.begin(), json.end());
  return EncodeFrame(FrameType::kMetricsReport, seq, payload);
}

std::vector<uint8_t> EncodeError(uint64_t seq, WireError code,
                                 const std::string& message) {
  std::vector<uint8_t> payload;
  ByteWriter w(payload);
  w.U8(static_cast<uint8_t>(code));
  w.String(message);
  return EncodeFrame(FrameType::kError, seq, payload);
}

WireError TryParseFrameHeader(const uint8_t* data, size_t size,
                              FrameHeader* out, size_t* consumed) {
  // Reject garbage as early as possible: the magic is checked the moment
  // four bytes exist, before waiting for a full header.
  if (size >= 4) {
    ByteReader magic_probe(data, size);
    if (magic_probe.U32() != kWireMagic) {
      return WireError::kBadMagic;
    }
  }
  if (size < kFrameHeaderBytes) {
    return WireError::kNeedMore;
  }
  ByteReader r(data, size);
  FrameHeader header;
  header.magic = r.U32();
  header.version = r.U16();
  header.type = r.U16();
  header.seq = r.U64();
  header.payload_len = r.U32();
  if (header.version < kMinWireVersion || header.version > kWireVersion) {
    return WireError::kBadVersion;
  }
  if (!ValidFrameType(header.type)) {
    return WireError::kBadType;
  }
  const auto type = static_cast<FrameType>(header.type);
  if (header.version < kCacheChecksumWireVersion &&
      (type == FrameType::kCachePut || type == FrameType::kCacheHit)) {
    return WireError::kBadVersion;
  }
  if (header.payload_len > kMaxPayloadBytes) {
    return WireError::kOversizedFrame;
  }
  if (size < kFrameHeaderBytes + header.payload_len) {
    return WireError::kNeedMore;
  }
  *out = header;
  *consumed = kFrameHeaderBytes + header.payload_len;
  return WireError::kOk;
}

WireError TryParseFrame(const uint8_t* data, size_t size, ParsedFrame* out,
                        size_t* consumed) {
  FrameHeader header;
  const WireError err = TryParseFrameHeader(data, size, &header, consumed);
  if (err == WireError::kOk) {
    out->header = header;
    out->payload.assign(data + kFrameHeaderBytes, data + *consumed);
  }
  return err;
}

bool DecodeSubmit(const ParsedFrame& frame, WireRequest* out,
                  std::string* error) {
  ByteReader r(frame.payload.data(), frame.payload.size());
  WireRequest request;
  request.engine_mode = r.U8();
  request.denoise_steps = r.I32();
  if (!r.ok()) {
    if (error != nullptr) *error = "submit payload shorter than its header";
    return false;
  }
  if (request.engine_mode > 1) {
    if (error != nullptr) *error = "unknown engine mode";
    return false;
  }
  if (request.denoise_steps <= 0 ||
      request.denoise_steps > kMaxDenoiseSteps) {
    if (error != nullptr) *error = "denoise step count out of range";
    return false;
  }
  if (!runtime::ReadOnlineRequest(
          r, &request.request, error,
          /*with_resolution=*/frame.header.version >= kResolutionWireVersion)) {
    return false;
  }
  if (r.remaining() != 0) {
    if (error != nullptr) *error = "trailing bytes after submit payload";
    return false;
  }
  *out = std::move(request);
  return true;
}

bool DecodeSubmitResult(const ParsedFrame& frame, WireResponse* out) {
  ByteReader r(frame.payload.data(), frame.payload.size());
  WireResponse response;
  response.status = r.U8();
  response.worker_id = r.I32();
  response.estimated_wall_us = r.I64();
  response.queueing_us = r.I64();
  response.denoise_us = r.I64();
  response.post_us = r.I64();
  response.e2e_us = r.I64();
  response.latent_checksum = r.U64();
  if (!r.ok() || r.remaining() != 0) {
    return false;
  }
  *out = response;
  return true;
}

bool DecodeError(const ParsedFrame& frame, WireErrorBody* out) {
  ByteReader r(frame.payload.data(), frame.payload.size());
  WireErrorBody body;
  body.code = r.U8();
  body.message = r.String();
  // The code must name a failure: kOk and kNeedMore never travel.
  if (!r.ok() || body.code < static_cast<uint8_t>(WireError::kBadMagic) ||
      body.code > static_cast<uint8_t>(WireError::kUnauthorized)) {
    return false;
  }
  *out = std::move(body);
  return true;
}

std::vector<uint8_t> EncodeCacheFetch(uint64_t seq, const CacheKey& key) {
  std::vector<uint8_t> payload;
  ByteWriter w(payload);
  AppendCacheKey(w, key);
  return EncodeFrame(FrameType::kCacheFetch, seq, payload);
}

std::vector<uint8_t> EncodeCachePut(uint64_t seq, const CacheKey& key,
                                    const Matrix& data, quant::Dtype dtype,
                                    uint64_t* checksum) {
  const size_t payload_len =
      CachePutPayloadBytes(data.rows(), data.cols(), dtype);
  std::vector<uint8_t> frame = BeginFrame(FrameType::kCachePut, seq,
                                          payload_len);
  ByteWriter w(frame);
  AppendCacheKey(w, key);
  w.U64(0);  // Filled in once the body it covers is written.
  const size_t body_at = w.size();
  const size_t scale_count = quant::ScaleCount(dtype, data.rows());
  w.U32(static_cast<uint32_t>(data.rows()));
  w.U32(static_cast<uint32_t>(data.cols()));
  w.U8(static_cast<uint8_t>(dtype));
  w.U32(static_cast<uint32_t>(scale_count));
  const size_t scales_at = frame.size();
  frame.resize(kFrameHeaderBytes + payload_len);
  quant::EncodeTo(data, dtype, frame.data() + scales_at,
                  frame.data() + scales_at + scale_count * sizeof(float));
  const uint64_t sum = SealCachePut(frame, body_at);
  if (checksum != nullptr) {
    *checksum = sum;
  }
  return frame;
}

std::vector<uint8_t> EncodeCachePutAck(uint64_t seq, const CacheKey& key,
                                       uint64_t checksum) {
  // Shape 0x0 and nothing else.
  std::vector<uint8_t> frame = EncodeCacheHitHead(seq, key, checksum, 8);
  ByteWriter w(frame);
  w.U32(0);
  w.U32(0);
  return frame;
}

std::vector<uint8_t> EncodeCacheHitHead(uint64_t seq, const CacheKey& key,
                                        uint64_t checksum, size_t body_size) {
  std::vector<uint8_t> frame = BeginFrame(
      FrameType::kCacheHit, seq,
      kCacheHitHeadBytes - kFrameHeaderBytes + body_size);
  ByteWriter w(frame);
  AppendCacheKey(w, key);
  w.U64(checksum);
  return frame;
}

size_t CachePutPayloadBytes(int rows, int cols, quant::Dtype dtype) {
  // Key (4+4+4+1) + checksum (8) + matrix header + scale bits + element
  // payload; must mirror EncodeCachePut exactly.
  return kCacheHitHeadBytes - kFrameHeaderBytes + kMatrixHeaderBytes +
         quant::ScaleCount(dtype, rows) * sizeof(float) +
         static_cast<size_t>(rows) * static_cast<size_t>(cols) *
             quant::DtypeBytes(dtype);
}

std::vector<uint8_t> EncodeCacheMiss(uint64_t seq, const CacheKey& key) {
  std::vector<uint8_t> payload;
  ByteWriter w(payload);
  AppendCacheKey(w, key);
  return EncodeFrame(FrameType::kCacheMiss, seq, payload);
}

bool DecodeCacheFetch(const ParsedFrame& frame, CacheFetchBody* out,
                      std::string* error) {
  ByteReader r(frame.payload.data(), frame.payload.size());
  CacheFetchBody body;
  body.key = ReadCacheKey(r);
  if (!r.ok() || r.remaining() != 0) {
    if (error != nullptr) *error = "cache fetch payload malformed";
    return false;
  }
  if (!ValidCacheKey(body.key, error)) {
    return false;
  }
  *out = body;
  return true;
}

bool ViewCachePut(const uint8_t* payload, size_t size, CacheBodyView* out,
                  std::string* error) {
  ByteReader r(payload, size);
  CacheBodyView view;
  view.key = ReadCacheKey(r);
  view.checksum = r.U64();
  if (!r.ok()) {
    if (error != nullptr) *error = "cache put payload shorter than its header";
    return false;
  }
  if (!ValidCacheKey(view.key, error)) {
    return false;
  }
  view.body = payload + r.offset();
  const uint32_t rows = r.U32();
  const uint32_t cols = r.U32();
  if (!r.ok()) {
    if (error != nullptr) *error = "matrix header shorter than declared";
    return false;
  }
  if (!ViewMatrixBody(r, rows, cols, &view, error)) {
    return false;
  }
  if (r.remaining() != 0) {
    if (error != nullptr) *error = "trailing bytes after cache put payload";
    return false;
  }
  view.body_size = static_cast<size_t>(payload + size - view.body);
  if (!BodyChecksumMatches(view.body, view.body_size, view.checksum,
                           "cache put", error)) {
    return false;
  }
  *out = view;
  return true;
}

bool ViewCacheHit(const uint8_t* payload, size_t size, CacheBodyView* out,
                  std::string* error) {
  ByteReader r(payload, size);
  CacheBodyView view;
  view.key = ReadCacheKey(r);
  view.checksum = r.U64();
  const uint8_t* body = payload + r.offset();
  const uint32_t rows = r.U32();
  const uint32_t cols = r.U32();
  if (!r.ok()) {
    if (error != nullptr) *error = "cache hit payload shorter than its header";
    return false;
  }
  if (!ValidCacheKey(view.key, error)) {
    return false;
  }
  if (rows == 0 && cols == 0) {
    // Put acknowledgement: no payload follows.
    if (r.remaining() != 0) {
      if (error != nullptr) *error = "trailing bytes after cache put ack";
      return false;
    }
    *out = view;
    return true;
  }
  if (!ViewMatrixBody(r, rows, cols, &view, error)) {
    return false;
  }
  if (r.remaining() != 0) {
    if (error != nullptr) *error = "trailing bytes after cache hit payload";
    return false;
  }
  view.body = body;
  view.body_size = static_cast<size_t>(payload + size - body);
  if (!BodyChecksumMatches(view.body, view.body_size, view.checksum,
                           "cache hit", error)) {
    return false;
  }
  *out = view;
  return true;
}

void DecodeBody(const CacheBodyView& view, Matrix* out) {
  quant::DecodeFrom(view.dtype, view.rows, view.cols, view.scales,
                    view.elements, out);
}

std::vector<uint8_t> EncodeAuth(uint64_t seq, const std::string& token) {
  std::vector<uint8_t> payload;
  ByteWriter w(payload);
  w.String(token);
  return EncodeFrame(FrameType::kAuth, seq, payload);
}

std::vector<uint8_t> EncodeAuthOk(uint64_t seq) {
  return EncodeFrame(FrameType::kAuthOk, seq, {});
}

bool DecodeAuth(const ParsedFrame& frame, AuthBody* out, std::string* error) {
  ByteReader r(frame.payload.data(), frame.payload.size());
  AuthBody body;
  body.token = r.String();
  if (!r.ok() || r.remaining() != 0) {
    if (error != nullptr) *error = "auth payload malformed";
    return false;
  }
  *out = std::move(body);
  return true;
}

bool DecodeCacheMiss(const ParsedFrame& frame, CacheMissBody* out) {
  ByteReader r(frame.payload.data(), frame.payload.size());
  CacheMissBody body;
  body.key = ReadCacheKey(r);
  if (!r.ok() || r.remaining() != 0) {
    return false;
  }
  *out = body;
  return true;
}

uint64_t Fnv1a64(const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t hash = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

uint64_t LatentChecksum(const Matrix& m) {
  uint64_t hash = 0xcbf29ce484222325ull;
  auto mix = [&hash](uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
      hash ^= static_cast<uint8_t>(v >> shift);
      hash *= 0x100000001b3ull;
    }
  };
  mix(static_cast<uint32_t>(m.rows()));
  mix(static_cast<uint32_t>(m.cols()));
  const size_t n = m.size();
  const float* data = m.data();
  for (size_t i = 0; i < n; ++i) {
    uint32_t bits;
    std::memcpy(&bits, &data[i], sizeof(bits));
    mix(bits);
  }
  return hash;
}

uint64_t Xxh64(const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const uint8_t* const end = p + size;
  uint64_t hash = kXxhPrime5;
  if (size >= 32) {
    // Four independent lanes, one 8-byte word each per 32-byte stripe.
    uint64_t v1 = kXxhPrime1 + kXxhPrime2;
    uint64_t v2 = kXxhPrime2;
    uint64_t v3 = 0;
    uint64_t v4 = 0 - kXxhPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = XxhRound(v1, ReadLe64(p));
      v2 = XxhRound(v2, ReadLe64(p + 8));
      v3 = XxhRound(v3, ReadLe64(p + 16));
      v4 = XxhRound(v4, ReadLe64(p + 24));
    }
    hash = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
           std::rotl(v4, 18);
    hash = XxhMerge(XxhMerge(XxhMerge(XxhMerge(hash, v1), v2), v3), v4);
  }
  hash += size;
  for (; end - p >= 8; p += 8) {
    hash = std::rotl(hash ^ XxhRound(0, ReadLe64(p)), 27) * kXxhPrime1 +
           kXxhPrime4;
  }
  if (end - p >= 4) {
    hash = std::rotl(hash ^ ReadLe32(p) * kXxhPrime1, 23) * kXxhPrime2 +
           kXxhPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    hash = std::rotl(hash ^ *p * kXxhPrime5, 11) * kXxhPrime1;
  }
  hash ^= hash >> 33;
  hash *= kXxhPrime2;
  hash ^= hash >> 29;
  hash *= kXxhPrime3;
  return hash ^ (hash >> 32);
}

}  // namespace flashps::net
