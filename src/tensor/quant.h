// Stage-wise multi-precision codec for cached activations.
//
// Cache-tier bytes, not compute, bound fleet scale: a template's
// ActivationRecord is steps x blocks fp32 matrices, and both the cache
// node's residency cap and the wire fetch cost are proportional to those
// bytes. Following MASQ's observation (PAPERS.md) that late diffusion
// steps tolerate reduced precision, each cached matrix can travel and
// rest as one of three encodings:
//
//   kF32 — raw IEEE-754 bit patterns; decode(encode(m)) is bitwise m.
//          The default, so bitwise-equivalence gates stay intact.
//   kF16 — IEEE-754 half precision, round-to-nearest-even. 2x smaller;
//          every half-representable value round-trips exactly.
//   kI8  — symmetric per-row int8: scale = maxabs/127 per row,
//          q = clamp(round(x/scale), -127, 127), decode = q*scale.
//          ~4x smaller (+ one f32 scale per row); per-element error is
//          bounded by scale/2.
//
// The *policy* maps a diffusion step to a dtype. Early steps shape the
// global structure of the denoise trajectory (errors there compound
// through every later step), late steps refine detail — so `kStaged`
// keeps the first half of the steps at f16 and drops the second half to
// int8, the stage-wise schedule that cuts record bytes ~2.6x while the
// quality harness (SSIM/FID/CLIP-proxy) keeps the Table-2 orderings.
//
// This layer is pure math + bytes: no wire framing, no checksums (the
// wire layer checksums the *encoded* form so nodes verify without
// decoding). It lives in flashps_tensor because every higher layer —
// net, cache, cache/ring — needs it. An encoded matrix has one form, the
// wire form: EncodeTo() writes it into a cache frame's send buffer and
// DecodeFrom() reads it out of a receive buffer, where it lies.
#ifndef FLASHPS_SRC_TENSOR_QUANT_H_
#define FLASHPS_SRC_TENSOR_QUANT_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/tensor/matrix.h"

namespace flashps::quant {

// Wire-stable dtype tags; never renumber.
enum class Dtype : uint8_t {
  kF32 = 0,
  kF16 = 1,
  kI8 = 2,
};

std::string ToString(Dtype dtype);
// Bytes per element on the wire/in residence.
size_t DtypeBytes(Dtype dtype);
// True iff `tag` names a Dtype (strict decoders reject anything else).
bool ValidDtypeTag(uint8_t tag);

// IEEE-754 binary32 <-> binary16, explicit bit manipulation (no FP16
// hardware assumed). F32ToF16 rounds to nearest-even and overflows to
// infinity; F16ToF32 is exact for every half value including subnormals.
uint16_t F32ToF16(float f);
float F16ToF32(uint16_t h);

// Per-row scales an encoding of `rows` rows carries: `rows` for kI8, else 0.
size_t ScaleCount(Dtype dtype, int rows);

// Encodes `m` at `dtype` into caller-sized wire-form buffers: `scales`
// receives ScaleCount() per-row scales as little-endian f32 bit patterns
// (kI8 only: scale = maxabs/127 of the row), `payload` the
// rows*cols*DtypeBytes little-endian element bytes. Never fails: any
// shape (including empty) has a valid encoding; an all-zero row
// quantizes with scale 0.
void EncodeTo(const Matrix& m, Dtype dtype, uint8_t* scales,
              uint8_t* payload);

// Decodes a rows x cols encoding from wire-form bytes where they lie (the
// layout EncodeTo() writes), in one pass. Every element is written, so an
// `out` that already has this shape is filled in place, its storage
// reused; any other is replaced. The caller has validated the dtype and
// lengths (the wire decoders do: net::ViewCachePut / ViewCacheHit).
void DecodeFrom(Dtype dtype, int rows, int cols, const uint8_t* scales,
                const uint8_t* payload, Matrix* out);

// --- stage policy ---------------------------------------------------------

enum class PrecisionMode : uint8_t {
  kLossless = 0,  // Every step f32; bitwise round-trip.
  kF16 = 1,       // Every step f16.
  kStaged = 2,    // First half of steps f16, second half int8 (MASQ).
};

std::string ToString(PrecisionMode mode);
// Parses the --cache-precision flag values: "lossless" | "fp16" | "staged".
bool ParsePrecisionMode(const std::string& text, PrecisionMode* out);

// The dtype that encodes step `step` of a `num_steps`-step record under
// `mode`. Steps outside [0, num_steps) clamp to the nearest stage.
Dtype DtypeForStep(PrecisionMode mode, int step, int num_steps);

}  // namespace flashps::quant

#endif  // FLASHPS_SRC_TENSOR_QUANT_H_
