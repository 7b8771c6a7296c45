// Cache-tier frames as a client and a node send them, for the suites that
// check the node, the wire decoders and the client against one another: a
// lossless put, a node's whole reply (a hit's stored body joined to its
// head, as TcpServer sends them) and the hit a node answers a fetch with
// (the 41-byte head, then the body of the put that stored the matrix, as
// it arrived).
#ifndef FLASHPS_TESTS_CACHE_FRAMES_H_
#define FLASHPS_TESTS_CACHE_FRAMES_H_

#include <cstdint>
#include <vector>

#include "src/net/tcp_server.h"
#include "src/net/wire.h"
#include "src/tensor/matrix.h"
#include "src/tensor/quant.h"

namespace flashps::net {

// `reply` as one whole frame, the bytes TcpServer sends: a hit's stored
// body joined to its head.
inline InlineReply Whole(InlineReply reply) {
  if (reply.body != nullptr) {
    reply.frame.insert(reply.frame.end(), reply.body->begin(),
                       reply.body->end());
    reply.body.reset();
  }
  return reply;
}

// A lossless put of `m`: the frame a client sends to store it as f32.
inline std::vector<uint8_t> LosslessPut(uint64_t seq, const CacheKey& key,
                                        const Matrix& m) {
  return EncodeCachePut(seq, key, m, quant::Dtype::kF32, nullptr);
}

// The matrix body (rows through the last element byte) a put of `m` at
// `dtype` carries: what a node stores, serves and checksums. A put's
// head (header, key, checksum) is as long as a hit's.
inline std::vector<uint8_t> PutBody(const Matrix& m, quant::Dtype dtype) {
  const std::vector<uint8_t> put =
      EncodeCachePut(0, CacheKey{}, m, dtype, nullptr);
  return std::vector<uint8_t>(put.begin() + kCacheHitHeadBytes, put.end());
}

// The hit a node answers a fetch of `key` with once a put stored `m` at
// `dtype` under it: EncodeCacheHitHead, then the stored put body.
inline std::vector<uint8_t> NodeHit(uint64_t seq, const CacheKey& key,
                                    const Matrix& m, quant::Dtype dtype) {
  const std::vector<uint8_t> body = PutBody(m, dtype);
  std::vector<uint8_t> hit = EncodeCacheHitHead(
      seq, key, Xxh64(body.data(), body.size()), body.size());
  hit.insert(hit.end(), body.begin(), body.end());
  return hit;
}

}  // namespace flashps::net

#endif  // FLASHPS_TESTS_CACHE_FRAMES_H_
