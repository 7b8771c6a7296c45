// Shared by the wire fuzz suites: a seeded mutator of wire frames (bit
// flips, truncation, length fields that lie, type and seq swaps, and
// spliced frames), the split of a byte stream into the frames a server
// would dispatch, and the bitwise record comparison their checks use.
// Every mutation is drawn from one Rng, so a case replays from its seed
// alone.
#ifndef FLASHPS_TESTS_WIRE_FUZZ_H_
#define FLASHPS_TESTS_WIRE_FUZZ_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/model/diffusion_model.h"
#include "src/net/wire.h"

namespace flashps::net::fuzz {

enum class Mutation {
  kBitFlip,
  kTruncate,
  kLengthLie,
  kTypeSwap,
  kSeqSwap,
  kSplice,
  kCount
};

// Frame header offsets (see wire.h).
inline constexpr size_t kVersionAt = 4;
inline constexpr size_t kTypeAt = 6;
inline constexpr size_t kSeqAt = 8;
inline constexpr size_t kLenAt = 16;

inline void SetLe(std::vector<uint8_t>& bytes, size_t at, uint64_t value,
                  size_t width) {
  for (size_t i = 0; i < width && at + i < bytes.size(); ++i) {
    bytes[at + i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

inline uint64_t GetLe(const std::vector<uint8_t>& bytes, size_t at,
                      size_t width) {
  uint64_t value = 0;
  for (size_t i = 0; i < width && at + i < bytes.size(); ++i) {
    value |= static_cast<uint64_t>(bytes[at + i]) << (8 * i);
  }
  return value;
}

// `frame` mutated by `mutation`. Both `frame` and `other` are whole
// well-formed frames; a splice mixes `other` in.
inline std::vector<uint8_t> Mutate(std::vector<uint8_t> frame,
                                   const std::vector<uint8_t>& other,
                                   Mutation mutation, Rng& rng) {
  switch (mutation) {
    case Mutation::kBitFlip:
      // One flip half the time, else two or three. Half the flips land in
      // the payload, past the header checks that catch most header flips
      // outright.
      for (uint64_t n = rng.NextBelow(2) == 0 ? 1 : 2 + rng.NextBelow(2);
           n > 0; --n) {
        const size_t from =
            rng.NextBelow(2) == 0 || frame.size() == kFrameHeaderBytes
                ? 0
                : kFrameHeaderBytes;
        const uint64_t bit = from * 8 + rng.NextBelow((frame.size() - from) * 8);
        frame[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      }
      return frame;
    case Mutation::kTruncate:
      frame.resize(rng.NextBelow(frame.size()));
      return frame;
    case Mutation::kLengthLie: {
      const uint64_t len = frame.size() - kFrameHeaderBytes;
      const uint64_t lies[] = {0, len - 1, len + 1 + rng.NextBelow(64),
                               kMaxPayloadBytes + 1ull, rng.NextU64()};
      SetLe(frame, kLenAt, lies[rng.NextBelow(5)], 4);
      return frame;
    }
    case Mutation::kTypeSwap: {
      const uint64_t types[] = {2, 4, 5, 8, 9, 11, rng.NextBelow(16)};
      SetLe(frame, kTypeAt, types[rng.NextBelow(7)], 2);
      return frame;
    }
    case Mutation::kSeqSwap: {
      // A neighbour's seq is another outstanding request of a pipelined
      // call.
      const uint64_t seq = GetLe(frame, kSeqAt, 8);
      const uint64_t seqs[] = {seq - 1, seq + 1, 0, rng.NextU64()};
      SetLe(frame, kSeqAt, seqs[rng.NextBelow(4)], 8);
      return frame;
    }
    case Mutation::kSplice:
    case Mutation::kCount:
      break;
  }
  switch (rng.NextBelow(4)) {
    case 0:  // An extra frame after this one.
      frame.insert(frame.end(), other.begin(), other.end());
      return frame;
    case 1: {  // An extra frame before it.
      std::vector<uint8_t> out = other;
      out.insert(out.end(), frame.begin(), frame.end());
      return out;
    }
    case 2: {  // One frame's header on the other's payload.
      std::vector<uint8_t> out(other.begin(),
                               other.begin() + kFrameHeaderBytes);
      out.insert(out.end(), frame.begin() + kFrameHeaderBytes, frame.end());
      return out;
    }
    default: {  // This frame cut into the tail of the other.
      frame.resize(rng.NextBelow(frame.size()));
      frame.insert(frame.end(),
                   other.begin() + static_cast<ptrdiff_t>(
                                       rng.NextBelow(other.size())),
                   other.end());
      return frame;
    }
  }
}

// Splits `stream` into the whole frames a server would dispatch, in
// order. `*error` is the header error that stops the stream (kOk when it
// ends cleanly or on a partial frame).
inline std::vector<ParsedFrame> Frames(const std::vector<uint8_t>& stream,
                                       WireError* error) {
  std::vector<ParsedFrame> frames;
  size_t offset = 0;
  for (;;) {
    ParsedFrame frame;
    size_t consumed = 0;
    const WireError err = TryParseFrame(stream.data() + offset,
                                        stream.size() - offset, &frame,
                                        &consumed);
    if (err != WireError::kOk) {
      *error = err == WireError::kNeedMore ? WireError::kOk : err;
      return frames;
    }
    offset += consumed;
    frames.push_back(std::move(frame));
  }
}

inline bool SameBits(const std::vector<Matrix>& a,
                     const std::vector<Matrix>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].rows() != b[i].rows() || a[i].cols() != b[i].cols() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].bytes()) != 0) {
      return false;
    }
  }
  return true;
}

// True when both records hold the same matrices, bit for bit.
inline bool SameRecord(const model::ActivationRecord& a,
                       const model::ActivationRecord& b) {
  if (a.steps.size() != b.steps.size()) {
    return false;
  }
  for (size_t s = 0; s < a.steps.size(); ++s) {
    if (!SameBits(a.steps[s].y, b.steps[s].y) ||
        !SameBits(a.steps[s].k, b.steps[s].k) ||
        !SameBits(a.steps[s].v, b.steps[s].v)) {
      return false;
    }
  }
  return true;
}

}  // namespace flashps::net::fuzz

#endif  // FLASHPS_TESTS_WIRE_FUZZ_H_
