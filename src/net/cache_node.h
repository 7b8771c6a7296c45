// The shared cache node: the server side of the cache tier.
//
// A CacheNode is a thread-safe content-addressed store of activation
// matrices, keyed by CacheKey (template, step, block, kind) — the unit the
// paper's §3 cache is indexed by. It answers the cache-tier wire frames:
//
//   kCacheFetch  -> kCacheHit (matrix + checksum) or kCacheMiss
//   kCachePut    -> checksum-verified store, acked by a payload-less
//                   kCacheHit; a put whose bytes fail their declared
//                   XXH64 checksum, or that alone exceeds the byte cap,
//                   is rejected as kMalformedPayload
//   kMetricsQuery-> kMetricsReport carrying MetricsJson()
//   anything else-> kError(kBadType): a cache node serves no submits
//
// Service() is the node's one entry: TcpServer's InlineService, so
// flashps_cached reuses the whole serving frontier (poll loop,
// back-pressure, drain, error taxonomy) with memcpy-scale handlers.
//
// Capacity: `max_bytes` (0 = unbounded) bounds resident payload bytes with
// LRU eviction — fetch hits and put upserts both refresh recency, so a hot
// fleet's working set stays resident while one-shot templates age out.
//
// Storage and hits: a put is checked where it lies in the received frame
// (ViewCachePut: structure, key, XXH64 of the body) and never decoded.
// Its verified body — exactly the span the checksum covers — is copied
// once into an immutable, exact-size buffer that the entry shares. A
// fetch hit is answered with a 41-byte head plus that shared buffer,
// which TcpServer hands to sendmsg() as a second segment, so serving a
// hit copies no payload bytes in user space. A later put of the same key
// or an eviction only drops the entry's reference: a hit still queued to
// a slow reader keeps, and sends, the bytes it was answered with. The
// node hashes a matrix once, when it arrives.
#ifndef FLASHPS_SRC_NET_CACHE_NODE_H_
#define FLASHPS_SRC_NET_CACHE_NODE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/net/tcp_server.h"
#include "src/net/wire.h"
#include "src/tensor/matrix.h"
#include "src/tensor/quant.h"

namespace flashps::net {

struct CacheNodeOptions {
  // Resident payload-byte cap; 0 = unbounded. Exceeding it evicts the
  // least-recently-used entries until the new entry fits; a put larger
  // than the whole cap is refused before anything is evicted. Entries
  // rest in their *encoded* (wire) form, so the cap counts compressed
  // bytes — a staged-precision fleet fits ~2-4x more templates per node.
  size_t max_bytes = 0;
  // Laxest encoding this node admits: kLossless accepts only f32 puts,
  // kF16 adds f16, kStaged (the default) accepts everything. An operator
  // running a lossless (bitwise-attested) fleet sets this down so a
  // misconfigured lossy worker is rejected loudly instead of silently
  // polluting the cache.
  quant::PrecisionMode admit = quant::PrecisionMode::kStaged;
};

// Monotonic counters plus the current residency snapshot. Byte counters
// are over the encoded (wire) representation — the bytes that actually
// crossed the socket and sit resident.
struct CacheNodeStats {
  uint64_t fetch_hits = 0;
  uint64_t fetch_misses = 0;
  uint64_t puts = 0;          // Admitted puts (including overwrites).
  uint64_t put_overwrites = 0;
  uint64_t bad_frames = 0;    // Malformed payloads + wrong-direction types.
  uint64_t precision_rejects = 0;  // Puts refused by the admit policy.
  uint64_t oversized_puts = 0;     // Puts larger than max_bytes, refused.
  uint64_t bytes_served = 0;  // Encoded payload bytes shipped in fetch hits.
  uint64_t bytes_stored = 0;  // Encoded payload bytes admitted by puts.
  uint64_t evictions = 0;
  uint64_t entries = 0;        // Resident entries right now.
  uint64_t resident_bytes = 0;  // Resident encoded bytes right now.
  uint64_t entries_f32 = 0;    // Residency split by dtype (gauges).
  uint64_t entries_f16 = 0;
  uint64_t entries_i8 = 0;
};

class CacheNode {
 public:
  explicit CacheNode(CacheNodeOptions options = {});

  CacheNode(const CacheNode&) = delete;
  CacheNode& operator=(const CacheNode&) = delete;

  // TcpServer's service mode: answers one parsed frame (any thread) with
  // one reply frame. A hit's stored body is left in InlineReply::body,
  // which TcpServer sends after the head without a copy. The reply's close
  // flag is set exactly when the reply is a kError frame. The node must
  // outlive the server.
  InlineService Service();

  // Direct (non-wire) accessors for tests and the daemon's final dump.
  bool Contains(const CacheKey& key) const;
  CacheNodeStats Stats() const;
  // Flat JSON of Stats(), served to kMetricsQuery.
  std::string MetricsJson() const;

 private:
  struct Entry {
    // The encoded matrix body exactly as it traveled (rows through the
    // last element byte), never written after the put.
    std::shared_ptr<const std::vector<uint8_t>> body;
    uint64_t checksum = 0;
    quant::Dtype dtype = quant::Dtype::kF32;
    std::list<CacheKey>::iterator lru_it;

    // Scale plus element bytes: the unit of the byte counters and the cap.
    size_t StoredBytes() const;
  };

  // The reply Service() returns.
  InlineReply Serve(const ParsedFrame& frame);

  // All under mu_. Touch() moves a key to the LRU front; EvictToFit()
  // drops tail entries until `incoming` more bytes fit under max_bytes.
  void Touch(Entry& entry);
  void EvictToFit(size_t incoming);

  CacheNodeOptions options_;
  mutable std::mutex mu_;
  std::map<CacheKey, Entry> entries_;
  std::list<CacheKey> lru_;  // Front = most recently used.
  size_t resident_bytes_ = 0;
  CacheNodeStats stats_;
};

}  // namespace flashps::net

#endif  // FLASHPS_SRC_NET_CACHE_NODE_H_
