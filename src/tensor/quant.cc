#include "src/tensor/quant.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

namespace flashps::quant {

namespace {

// Largest finite magnitude a half can hold; beyond it F32ToF16 overflows
// to infinity by design.
constexpr uint32_t kF32ExpMask = 0xffu;

uint32_t F32Bits(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

float BitsToF32(uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

}  // namespace

std::string ToString(Dtype dtype) {
  switch (dtype) {
    case Dtype::kF32:
      return "f32";
    case Dtype::kF16:
      return "f16";
    case Dtype::kI8:
      return "i8";
  }
  return "?";
}

size_t DtypeBytes(Dtype dtype) {
  switch (dtype) {
    case Dtype::kF32:
      return 4;
    case Dtype::kF16:
      return 2;
    case Dtype::kI8:
      return 1;
  }
  return 0;
}

bool ValidDtypeTag(uint8_t tag) {
  return tag <= static_cast<uint8_t>(Dtype::kI8);
}

uint16_t F32ToF16(float f) {
  const uint32_t x = F32Bits(f);
  const uint16_t sign = static_cast<uint16_t>((x >> 16) & 0x8000u);
  const uint32_t exp32 = (x >> 23) & kF32ExpMask;
  uint32_t mant = x & 0x007fffffu;
  if (exp32 == kF32ExpMask) {
    // Inf / NaN: preserve NaN-ness (a NaN payload truncated to zero would
    // silently become infinity, so force the quiet bit).
    if (mant != 0) {
      return static_cast<uint16_t>(sign | 0x7c00u | 0x0200u | (mant >> 13));
    }
    return static_cast<uint16_t>(sign | 0x7c00u);
  }
  const int32_t exp = static_cast<int32_t>(exp32) - 127 + 15;
  if (exp >= 31) {
    return static_cast<uint16_t>(sign | 0x7c00u);  // Overflow to infinity.
  }
  if (exp <= 0) {
    if (exp < -10) {
      return sign;  // Underflows past the smallest subnormal: signed zero.
    }
    // Subnormal half: shift the (implicit-1) mantissa into place with
    // round-to-nearest-even on the bits shifted out.
    mant |= 0x00800000u;
    const uint32_t shift = static_cast<uint32_t>(14 - exp);
    uint16_t half = static_cast<uint16_t>(mant >> shift);
    const uint32_t rem = mant & ((1u << shift) - 1u);
    const uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half & 1u))) {
      ++half;  // May carry into the exponent field; that is the correct
               // subnormal->normal promotion.
    }
    return static_cast<uint16_t>(sign | half);
  }
  uint16_t half = static_cast<uint16_t>(
      sign | (static_cast<uint32_t>(exp) << 10) | (mant >> 13));
  const uint32_t rem = mant & 0x1fffu;
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1u))) {
    ++half;  // Carry may roll into infinity; that rounds correctly too.
  }
  return half;
}

float F16ToF32(uint16_t h) {
  const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  const uint32_t exp = (h >> 10) & 0x1fu;
  uint32_t mant = h & 0x03ffu;
  if (exp == 0) {
    if (mant == 0) {
      return BitsToF32(sign);  // Signed zero.
    }
    // Subnormal half: normalize into a f32 normal.
    int e = 0;
    while ((mant & 0x0400u) == 0) {
      mant <<= 1;
      ++e;
    }
    mant &= 0x03ffu;
    const uint32_t exp32 = static_cast<uint32_t>(127 - 15 - e + 1);
    return BitsToF32(sign | (exp32 << 23) | (mant << 13));
  }
  if (exp == 31) {
    return BitsToF32(sign | 0x7f800000u | (mant << 13));  // Inf / NaN.
  }
  return BitsToF32(sign | ((exp - 15 + 127) << 23) | (mant << 13));
}

namespace {

void StoreLe32(uint32_t v, uint8_t* out) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &v, sizeof(v));
  } else {
    for (int b = 0; b < 4; ++b) {
      out[b] = static_cast<uint8_t>(v >> (8 * b));
    }
  }
}

uint32_t LoadLe32(const uint8_t* in) {
  uint32_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, in, sizeof(v));
  } else {
    for (int b = 0; b < 4; ++b) {
      v |= static_cast<uint32_t>(in[b]) << (8 * b);
    }
  }
  return v;
}

// Writes the element bytes of `m` at `dtype` to `payload`, handing each
// kI8 row's scale to `put_scale(row, scale)`: the encoder behind
// EncodeTo().
template <typename PutScale>
void EncodeElements(const Matrix& m, Dtype dtype, uint8_t* payload,
                    PutScale put_scale) {
  const size_t n = m.size();
  const float* data = m.data();
  switch (dtype) {
    case Dtype::kF32: {
      if constexpr (std::endian::native == std::endian::little) {
        // The host already holds each float in wire order.
        if (n > 0) std::memcpy(payload, data, n * 4);
      } else {
        for (size_t i = 0; i < n; ++i) {
          StoreLe32(F32Bits(data[i]), payload + i * 4);
        }
      }
      return;
    }
    case Dtype::kF16: {
      for (size_t i = 0; i < n; ++i) {
        const uint16_t half = F32ToF16(data[i]);
        payload[i * 2 + 0] = static_cast<uint8_t>(half);
        payload[i * 2 + 1] = static_cast<uint8_t>(half >> 8);
      }
      return;
    }
    case Dtype::kI8: {
      const size_t cols = static_cast<size_t>(m.cols());
      for (int r = 0; r < m.rows(); ++r) {
        const float* row = m.row(r);
        float maxabs = 0.0f;
        for (size_t c = 0; c < cols; ++c) {
          maxabs = std::max(maxabs, std::fabs(row[c]));
        }
        const float scale = maxabs / 127.0f;
        put_scale(r, scale);
        uint8_t* out = payload + static_cast<size_t>(r) * cols;
        if (scale == 0.0f || !std::isfinite(scale)) {
          // All-zero row (or non-finite garbage): quantize to zeros rather
          // than divide by zero / propagate NaN into the int domain.
          std::memset(out, 0, cols);
          continue;
        }
        for (size_t c = 0; c < cols; ++c) {
          const float q = std::nearbyint(row[c] / scale);
          const int32_t clamped =
              std::clamp(static_cast<int32_t>(q), -127, 127);
          out[c] = static_cast<uint8_t>(static_cast<int8_t>(clamped));
        }
      }
      return;
    }
  }
}

// Decodes element bytes at `dtype` into `m` (already shaped), taking each
// kI8 row's scale from `scale_of(row)`: the decoder behind DecodeFrom().
template <typename ScaleOf>
void DecodeElements(Dtype dtype, const uint8_t* payload, ScaleOf scale_of,
                    Matrix& m) {
  const size_t n = m.size();
  float* data = m.data();
  switch (dtype) {
    case Dtype::kF32: {
      if constexpr (std::endian::native == std::endian::little) {
        if (n > 0) std::memcpy(data, payload, n * 4);
      } else {
        for (size_t i = 0; i < n; ++i) {
          data[i] = BitsToF32(LoadLe32(payload + i * 4));
        }
      }
      return;
    }
    case Dtype::kF16: {
      for (size_t i = 0; i < n; ++i) {
        const uint16_t half = static_cast<uint16_t>(payload[i * 2]) |
                              static_cast<uint16_t>(payload[i * 2 + 1]) << 8;
        data[i] = F16ToF32(half);
      }
      return;
    }
    case Dtype::kI8: {
      const size_t cols = static_cast<size_t>(m.cols());
      for (int r = 0; r < m.rows(); ++r) {
        const float scale = scale_of(r);
        const uint8_t* in = payload + static_cast<size_t>(r) * cols;
        float* row = m.row(r);
        for (size_t c = 0; c < cols; ++c) {
          row[c] = static_cast<float>(static_cast<int8_t>(in[c])) * scale;
        }
      }
      return;
    }
  }
}

}  // namespace

size_t ScaleCount(Dtype dtype, int rows) {
  return dtype == Dtype::kI8 ? static_cast<size_t>(std::max(rows, 0)) : 0;
}

void EncodeTo(const Matrix& m, Dtype dtype, uint8_t* scales,
              uint8_t* payload) {
  EncodeElements(m, dtype, payload, [scales](int r, float scale) {
    StoreLe32(F32Bits(scale), scales + static_cast<size_t>(r) * 4);
  });
}

void DecodeFrom(Dtype dtype, int rows, int cols, const uint8_t* scales,
                const uint8_t* payload, Matrix* out) {
  if (out->rows() != rows || out->cols() != cols) {
    *out = Matrix(rows, cols);
  }
  DecodeElements(dtype, payload, [scales](int r) {
    return BitsToF32(LoadLe32(scales + static_cast<size_t>(r) * 4));
  }, *out);
}

std::string ToString(PrecisionMode mode) {
  switch (mode) {
    case PrecisionMode::kLossless:
      return "lossless";
    case PrecisionMode::kF16:
      return "fp16";
    case PrecisionMode::kStaged:
      return "staged";
  }
  return "?";
}

bool ParsePrecisionMode(const std::string& text, PrecisionMode* out) {
  if (text == "lossless") {
    *out = PrecisionMode::kLossless;
  } else if (text == "fp16") {
    *out = PrecisionMode::kF16;
  } else if (text == "staged") {
    *out = PrecisionMode::kStaged;
  } else {
    return false;
  }
  return true;
}

Dtype DtypeForStep(PrecisionMode mode, int step, int num_steps) {
  switch (mode) {
    case PrecisionMode::kLossless:
      return Dtype::kF32;
    case PrecisionMode::kF16:
      return Dtype::kF16;
    case PrecisionMode::kStaged: {
      // First half (rounding up) f16, second half int8: early steps set
      // the denoise trajectory, late steps only refine detail.
      const int cutover = (std::max(1, num_steps) + 1) / 2;
      return step < cutover ? Dtype::kF16 : Dtype::kI8;
    }
  }
  return Dtype::kF32;
}

}  // namespace flashps::quant
