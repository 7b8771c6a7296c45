// The FlashPS wire protocol: length-prefixed binary frames over TCP.
//
// Every frame is a fixed 20-byte header followed by a typed payload, all
// integers explicit little-endian (src/common/bytes.h) — nothing is ever
// reinterpret_cast off a socket buffer:
//
//   offset  size  field
//        0     4  magic    "FPS1" (0x31535046 LE)
//        4     2  version  kWireVersion
//        6     2  type     FrameType
//        8     8  seq      correlation id, echoed verbatim in the reply
//       16     4  len      payload bytes, <= kMaxPayloadBytes
//
// Request pipelining works by seq: a client may have many frames in
// flight on one connection and match replies by correlation id — replies
// are written in completion order, not submission order. Frames failing
// any header check (magic, version, type, size cap) or any payload check
// are rejected with a distinct WireError; the peer receives a kError frame
// where possible and the connection is closed. The per-frame size cap
// bounds both decoder memory and read-buffer growth.
//
// Two services speak this protocol (one per daemon, both over TcpServer):
// the *serving* tier (submit / metrics frames, flashps_served) and the
// *cache* tier (cache fetch / put frames, flashps_cached) — the shared
// cache node that serves template activations to a whole worker fleet.
//
// Cache matrices have one encoded form, the wire form, built and read
// where it lies. A put frame is encoded whole into one buffer
// (EncodeCachePut: header with its known length, key, checksum slot, the
// matrix body encoded in place by quant::EncodeTo and hashed there); a
// node checks it where it landed (ViewCachePut), keeps the verified body
// span as it arrived, acks it (EncodeCachePutAck) and answers a fetch
// with a 41-byte head (EncodeCacheHitHead) followed by those stored
// bytes; a receiver checks a hit's body where it landed (ViewCacheHit)
// and decodes it once into its matrix (DecodeBody).
#ifndef FLASHPS_SRC_NET_WIRE_H_
#define FLASHPS_SRC_NET_WIRE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/gateway/gateway.h"
#include "src/runtime/serde.h"
#include "src/tensor/matrix.h"
#include "src/tensor/quant.h"

namespace flashps::net {

inline constexpr uint32_t kWireMagic = 0x31535046u;  // "FPS1" on the wire.
// v2: cache matrices travel encoded (self-describing dtype tag + per-row
// scale metadata, src/tensor/quant.h) instead of raw fp32.
// v3: submit payloads append the request's resolution (res_h/res_w i32,
// validated equal to the mask grid) for hybrid-resolution serving.
// v4: cache puts and hits carry XXH64 (seed 0) of the encoded-matrix body
// as it travels, in place of a byte-wise FNV-1a; every layout is
// unchanged.
inline constexpr uint16_t kWireVersion = 4;
// Oldest frame version this release still decodes: v2 submits carry no
// resolution fields and decode with resolution = mask grid; v3 and v4
// submits share one layout. Frames older than this (or newer than
// kWireVersion) are kBadVersion.
inline constexpr uint16_t kMinWireVersion = 2;
// First version whose submit payload carries the resolution fields.
inline constexpr uint16_t kResolutionWireVersion = 3;
// First version whose cache puts and hits carry the XXH64 checksum. A put
// or hit below it is kBadVersion: its checksum means something else, and
// a v3 peer rejects every v4 reply anyway, so no older cache exchange can
// complete.
inline constexpr uint16_t kCacheChecksumWireVersion = 4;
inline constexpr size_t kFrameHeaderBytes = 20;
// An encoded matrix body opens with rows, cols, the dtype tag and the
// scale count (4 + 4 + 1 + 4 bytes); scale bits and elements follow.
inline constexpr size_t kMatrixHeaderBytes = 13;
// A cache hit's frame up to its matrix body: header, key (4 + 4 + 4 + 1)
// and checksum (8).
inline constexpr size_t kCacheHitHeadBytes = kFrameHeaderBytes + 13 + 8;
// Hard cap on one frame's payload: bounds decoder allocations and makes
// oversized/garbage length fields detectable before any buffering happens.
inline constexpr uint32_t kMaxPayloadBytes = 4u << 20;

// Every frame type, each documented with its direction and payload. "client"
// is whichever peer opened the connection; "server" is the daemon behind
// TcpServer (a serving gateway or a cache node).
enum class FrameType : uint16_t {
  // client -> server: one editing request (WireRequest: engine mode, step
  // count, and the serialized runtime::OnlineRequest). Answered by exactly
  // one kSubmitResult carrying the same seq.
  kSubmit = 1,
  // server -> client: the outcome of one kSubmit (WireResponse: admission
  // status, worker id, per-stage latencies, output latent checksum).
  // Written in completion order, not submission order.
  kSubmitResult = 2,
  // client -> server: empty payload; asks the daemon for its metrics JSON.
  kMetricsQuery = 3,
  // server -> client: MetricsJson() bytes of the daemon (gateway registry
  // for flashps_served, cache-node counters for flashps_cached).
  kMetricsReport = 4,
  // server -> client: WireErrorBody naming the distinct WireError that
  // doomed the connection; the server closes after flushing it.
  kError = 5,
  // client -> cache node: CacheFetchBody — one content-addressed activation
  // matrix, keyed by (template_id, step, block, kind). Answered by
  // kCacheHit (payload attached) or kCacheMiss.
  kCacheFetch = 6,
  // client -> cache node: CacheBodyView — stores one activation matrix under
  // its content address, XXH64 checksum verified server-side before the
  // entry is admitted. Acknowledged by a payload-less kCacheHit echoing the
  // key and the stored checksum.
  kCachePut = 7,
  // cache node -> client: CacheBodyView. Reply to a kCacheFetch that found
  // the entry (matrix payload attached) or to a kCachePut that stored it
  // (no payload; rows == cols == 0). Always carries the entry's checksum.
  kCacheHit = 8,
  // cache node -> client: CacheMissBody — the fetched key is not resident.
  // The worker falls back to local registration (and usually puts the
  // freshly computed record so the next worker hits).
  kCacheMiss = 9,
  // client -> server: AuthBody carrying the cluster's shared secret. When
  // a daemon is started with --auth-token, this MUST be the first frame on
  // every connection; anything else (or a wrong token) is answered with a
  // kError(kUnauthorized) and the connection closes. Daemons without a
  // token still ack the frame, so a uniformly configured client fleet
  // works against both.
  kAuth = 10,
  // server -> client: empty payload acknowledging a kAuth; the session is
  // authenticated from here on.
  kAuthOk = 11,
};

// Every way a frame or a call can fail, each distinct, each produced by
// exactly the condition documented here. kNeedMore is the one non-error:
// the stream decoder has a plausible prefix and wants more bytes.
enum class WireError : uint8_t {
  // No failure; the parse/call succeeded.
  kOk = 0,
  // Stream decoder: the buffered prefix is valid but shorter than one whole
  // frame — read more bytes and retry. Never sent on the wire.
  kNeedMore = 1,
  // The first four bytes are not "FPS1": the peer is not speaking this
  // protocol (or the stream desynchronized). Checked the moment four bytes
  // exist, before waiting for a full header.
  kBadMagic = 2,
  // Header version field outside [kMinWireVersion, kWireVersion], or a
  // cache put or hit below kCacheChecksumWireVersion: an incompatible peer
  // release.
  kBadVersion = 3,
  // Header type field names no FrameType, or a structurally valid type
  // arrived in the wrong direction (e.g. a kSubmitResult sent *to* a
  // server, or a cache frame sent to a daemon with no cache service).
  kBadType = 4,
  // Header length field exceeds kMaxPayloadBytes: rejected before any
  // payload buffering happens (bounds decoder memory against garbage).
  kOversizedFrame = 5,
  // The frame parsed but its payload failed a typed decode — short fields,
  // out-of-range values, trailing bytes, or a cache-put whose payload bytes
  // do not hash to the checksum it declared.
  kMalformedPayload = 6,
  // Peer closed the connection with a partial frame still buffered: those
  // bytes can never complete. Counted server-side.
  kTruncatedFrame = 7,
  // Client-side: the per-call deadline lapsed before the matching reply
  // arrived.
  kTimeout = 8,
  // Client-side: the socket is gone — connect failed after its bounded
  // retries, the peer hung up, or a send hit a dead connection.
  kConnectionClosed = 9,
  // The daemon requires a shared-secret handshake (--auth-token) and this
  // session either skipped it or presented the wrong token. The frame that
  // triggered it is never dispatched.
  kUnauthorized = 10,
};

std::string ToString(WireError error);

struct FrameHeader {
  uint32_t magic = kWireMagic;
  uint16_t version = kWireVersion;
  uint16_t type = 0;
  uint64_t seq = 0;
  uint32_t payload_len = 0;
};

struct ParsedFrame {
  FrameHeader header;
  std::vector<uint8_t> payload;

  FrameType type() const { return static_cast<FrameType>(header.type); }
};

// One editing request as it travels: the runtime request (template id,
// mask, relative SLO — see src/runtime/serde.h for its layout) plus two
// advisory fields the serving side validates but does not obey (the
// daemon's gateway configuration is authoritative for both).
struct WireRequest {
  uint8_t engine_mode = 1;  // 0 = full recompute, 1 = mask-aware.
  int32_t denoise_steps = 50;
  runtime::OnlineRequest request;
  // Never on the wire. The TcpServer that accepted the request sets it
  // before WireFrontend::Submit; the backend calls it once the request's
  // completion is Ready() (from any thread), which wakes the server to
  // send the reply. A wrapper that forwards the request forwards it too.
  // Calling it after the server stopped, or was destroyed, does nothing.
  std::function<void()> notify_ready;
};

// The reply to one WireRequest: the gateway's admission outcome, the
// worker it ran on, per-stage latencies, and a checksum of the output
// latent image so remote callers can assert end-to-end bit-equality
// without shipping the pixels.
struct WireResponse {
  uint8_t status = 0;  // gateway::SubmitStatus.
  int32_t worker_id = -1;
  int64_t estimated_wall_us = 0;
  int64_t queueing_us = 0;
  int64_t denoise_us = 0;
  int64_t post_us = 0;
  int64_t e2e_us = 0;
  uint64_t latent_checksum = 0;

  gateway::SubmitStatus submit_status() const {
    return static_cast<gateway::SubmitStatus>(status);
  }
  bool accepted() const {
    return submit_status() == gateway::SubmitStatus::kAccepted;
  }
};

struct WireErrorBody {
  uint8_t code = 0;  // WireError.
  std::string message;
};

// Payload of kAuth: the shared secret, verbatim. (The reproduction's
// transport is plaintext TCP; the handshake gates access, it does not
// hide the token from the wire — TLS is out of scope here.)
struct AuthBody {
  std::string token;
};

// --- cache-tier frames ----------------------------------------------------

// The content address of one cached activation matrix: which template, which
// denoising step, which transformer block, and which of the per-block
// matrices (the paper's §3 cache holds the Y output per (step, block); the
// Fig. 7 KV alternative additionally holds K and V). One address maps to
// exactly one matrix in model::ActivationRecord:
//   kind 0 -> record.steps[step].y[block]
//   kind 1 -> record.steps[step].k[block]
//   kind 2 -> record.steps[step].v[block]
struct CacheKey {
  int32_t template_id = 0;
  int32_t step = 0;
  int32_t block = 0;
  uint8_t kind = 0;  // 0 = Y, 1 = K, 2 = V.

  bool operator==(const CacheKey& o) const {
    return template_id == o.template_id && step == o.step &&
           block == o.block && kind == o.kind;
  }
  bool operator<(const CacheKey& o) const {
    if (template_id != o.template_id) return template_id < o.template_id;
    if (step != o.step) return step < o.step;
    if (block != o.block) return block < o.block;
    return kind < o.kind;
  }
};

inline constexpr uint8_t kCacheKindY = 0;
inline constexpr uint8_t kCacheKindK = 1;
inline constexpr uint8_t kCacheKindV = 2;

// Payload of kCacheFetch: just the key.
struct CacheFetchBody {
  CacheKey key;
};

// Payload of kCacheMiss: the key that was not resident.
struct CacheMissBody {
  CacheKey key;
};

// A kCachePut or kCacheHit payload checked where it lies (ViewCachePut /
// ViewCacheHit), nothing copied: the key, the checksum and the *encoded*
// matrix body (shape, dtype tag, scale count, scale bits, element bytes;
// src/tensor/quant.h). The checksum is XXH64 of that body exactly as it
// travels, rows through the last element byte. The node hashes that span
// of the received frame and rejects a mismatch as kMalformedPayload, so a
// bit flipped in flight can never become a resident cache entry, and it
// never decodes to verify, so lossy entries rest exactly as they
// traveled. A hit's checksum describes the entry as resident on the node,
// so the client verifies the bytes it received (or confirms what it
// stored) end to end. Every pointer aims into the payload, which must
// outlive the view.
struct CacheBodyView {
  CacheKey key;
  uint64_t checksum = 0;
  quant::Dtype dtype = quant::Dtype::kF32;
  int rows = 0;  // 0 x 0 for a put acknowledgement: no body follows.
  int cols = 0;
  // The span the checksum covers: rows through the last element byte.
  const uint8_t* body = nullptr;
  size_t body_size = 0;
  const uint8_t* scales = nullptr;    // ScaleCount little-endian f32 bits.
  const uint8_t* elements = nullptr;  // rows * cols * DtypeBytes bytes.

  bool has_payload() const { return rows > 0 && cols > 0; }
  // Scale plus element bytes: the unit of a cache node's byte cap and of
  // its stored and served byte counters.
  size_t StoredBytes() const {
    return has_payload() ? body_size - kMatrixHeaderBytes : 0;
  }
};

// --- frame assembly -------------------------------------------------------

std::vector<uint8_t> EncodeFrame(FrameType type, uint64_t seq,
                                 const std::vector<uint8_t>& payload);
std::vector<uint8_t> EncodeSubmit(uint64_t seq, const WireRequest& request);
std::vector<uint8_t> EncodeSubmitResult(uint64_t seq,
                                        const WireResponse& response);
std::vector<uint8_t> EncodeMetricsQuery(uint64_t seq);
std::vector<uint8_t> EncodeMetricsReport(uint64_t seq,
                                         const std::string& json);
std::vector<uint8_t> EncodeError(uint64_t seq, WireError code,
                                 const std::string& message);
std::vector<uint8_t> EncodeCacheFetch(uint64_t seq, const CacheKey& key);
// Encodes `data` at `dtype` straight into the put frame (quant::EncodeTo)
// and hashes the body where it lies. When `checksum` is non-null, stores
// that hash there for the caller to check the ack against.
std::vector<uint8_t> EncodeCachePut(uint64_t seq, const CacheKey& key,
                                    const Matrix& data, quant::Dtype dtype,
                                    uint64_t* checksum);
// A node's acknowledgement of a stored put: a payload-less kCacheHit
// (shape 0x0) echoing the key and the checksum now resident.
std::vector<uint8_t> EncodeCachePutAck(uint64_t seq, const CacheKey& key,
                                       uint64_t checksum);
// The first kCacheHitHeadBytes of a hit whose matrix body (the span its
// checksum covers) is `body_size` bytes; the body follows it as stored.
// `checksum` is sent as given: a node serves the one it verified at put.
std::vector<uint8_t> EncodeCacheHitHead(uint64_t seq, const CacheKey& key,
                                        uint64_t checksum, size_t body_size);
std::vector<uint8_t> EncodeCacheMiss(uint64_t seq, const CacheKey& key);
std::vector<uint8_t> EncodeAuth(uint64_t seq, const std::string& token);
std::vector<uint8_t> EncodeAuthOk(uint64_t seq);

// Exact payload size of the kCachePut frame EncodeCachePut would build for
// a rows x cols matrix at `dtype` — lets a client refuse an oversized put
// (> kMaxPayloadBytes) before any bytes hit the socket, instead of
// desyncing server-side.
size_t CachePutPayloadBytes(int rows, int cols, quant::Dtype dtype);

// Incremental stream decode: inspects the prefix of [data, data+size).
// Returns kOk with `*out` and `*consumed` filled when one whole valid
// frame is available; kNeedMore when the prefix is valid but incomplete;
// a distinct error as soon as the header is provably bad (nothing is
// consumed on error — the connection is unrecoverable and must close).
WireError TryParseFrame(const uint8_t* data, size_t size, ParsedFrame* out,
                        size_t* consumed);
// TryParseFrame without the payload copy: the same checks and results,
// filling only the header; the payload is the `*consumed -
// kFrameHeaderBytes` bytes after it, where they lie.
WireError TryParseFrameHeader(const uint8_t* data, size_t size,
                              FrameHeader* out, size_t* consumed);

// --- payload decode -------------------------------------------------------

// Each returns false on malformed payloads (and fills `error` when
// non-null); the frame-level result is then kMalformedPayload.
bool DecodeSubmit(const ParsedFrame& frame, WireRequest* out,
                  std::string* error);
bool DecodeSubmitResult(const ParsedFrame& frame, WireResponse* out);
bool DecodeError(const ParsedFrame& frame, WireErrorBody* out);
bool DecodeCacheFetch(const ParsedFrame& frame, CacheFetchBody* out,
                      std::string* error);
bool DecodeCacheMiss(const ParsedFrame& frame, CacheMissBody* out);
// Check a put or hit payload of `size` bytes where it lies. Both hash the
// received matrix body in place and check it against the declared
// checksum; a mismatch is a malformed payload (it means corruption in
// flight). A put acknowledgement carries no body and is not checked here:
// the client compares its checksum with the one it sent.
bool ViewCachePut(const uint8_t* payload, size_t size, CacheBodyView* out,
                  std::string* error);
bool ViewCacheHit(const uint8_t* payload, size_t size, CacheBodyView* out,
                  std::string* error);
// Decodes a viewed matrix body into `out` (quant::DecodeFrom): the one
// copy a received hit costs. `view` must have a payload.
void DecodeBody(const CacheBodyView& view, Matrix* out);
bool DecodeAuth(const ParsedFrame& frame, AuthBody* out, std::string* error);

// --- checksums ------------------------------------------------------------

// FNV-1a over arbitrary bytes; stable across hosts. Places cache keys and
// members on the ring (src/cache/ring).
uint64_t Fnv1a64(const void* data, size_t size);
// XXH64 with seed 0 over arbitrary bytes, each 8-byte word read
// little-endian on every host. Byte for byte the reference algorithm:
// four 64-bit lanes over 32-byte stripes, so it runs at memory speed
// where FNV-1a takes one multiply per byte.
uint64_t Xxh64(const void* data, size_t size);
// Checksum of a latent/image matrix: shape plus the float bit patterns,
// each float hashed as its little-endian IEEE-754 encoding. Used where a
// *decoded* matrix is attested: submit-result latents. (A cache matrix is
// attested by Xxh64 of its wire body, hashed in the frame itself; for an
// f32 encoding that covers every float bit pattern, so lossless mode keeps
// end-to-end bit attestation.)
uint64_t LatentChecksum(const Matrix& m);

}  // namespace flashps::net

#endif  // FLASHPS_SRC_NET_WIRE_H_
