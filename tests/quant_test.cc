// Properties of the multi-precision activation codec (src/tensor/quant),
// through its wire-form entries EncodeTo / DecodeFrom: f32 is bitwise,
// f16 is IEEE round-to-nearest-even with exhaustively verified bit
// patterns, int8 honours its per-row half-scale error bound, and
// degenerate shapes survive every dtype. (The wire decoders that reject
// malformed dtype/length combinations before DecodeFrom sees them are
// tested in tests/cache_rpc_test.cc.)
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/tensor/matrix.h"
#include "src/tensor/quant.h"

namespace flashps::quant {
namespace {

Matrix TestMatrix(int rows, int cols, uint64_t seed, float scale = 1.0f) {
  Matrix m(rows, cols);
  Rng rng(seed);
  m.FillNormal(rng, scale);
  return m;
}

uint32_t FloatToBits(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

// A matrix in its one encoded form, the wire form EncodeTo() writes: each
// row's scale as little-endian f32 bits (kI8 only), then the elements.
struct WireForm {
  std::vector<uint8_t> scales;
  std::vector<uint8_t> elements;

  size_t StoredBytes() const { return scales.size() + elements.size(); }
  float Scale(int row) const {
    uint32_t bits = 0;
    for (size_t b = 0; b < 4; ++b) {
      bits |= static_cast<uint32_t>(scales[static_cast<size_t>(row) * 4 + b])
              << (8 * b);
    }
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
  }
};

WireForm EncodeWire(const Matrix& m, Dtype dtype) {
  WireForm w;
  w.scales.resize(ScaleCount(dtype, m.rows()) * sizeof(float));
  w.elements.resize(m.size() * DtypeBytes(dtype));
  EncodeTo(m, dtype, w.scales.data(), w.elements.data());
  return w;
}

Matrix DecodeWire(const WireForm& w, Dtype dtype, int rows, int cols) {
  Matrix out;
  DecodeFrom(dtype, rows, cols, w.scales.data(), w.elements.data(), &out);
  return out;
}

// --- f16 conversion -------------------------------------------------------

TEST(QuantF16Test, AllFiniteHalfBitPatternsRoundTripExactly) {
  // Every finite half value is exactly representable in f32, so
  // half -> f32 -> half must reproduce the identical bit pattern. This
  // covers normals, subnormals, both zeros, and both infinities.
  for (uint32_t bits = 0; bits <= 0xffff; ++bits) {
    const uint16_t h = static_cast<uint16_t>(bits);
    const bool is_nan = (h & 0x7c00) == 0x7c00 && (h & 0x03ff) != 0;
    const float f = F16ToF32(h);
    if (is_nan) {
      EXPECT_TRUE(std::isnan(f)) << std::hex << bits;
      continue;
    }
    EXPECT_EQ(F32ToF16(f), h) << std::hex << bits;
  }
}

TEST(QuantF16Test, KnownValuesConvertExactly) {
  EXPECT_EQ(F32ToF16(0.0f), 0x0000);
  EXPECT_EQ(F32ToF16(-0.0f), 0x8000);
  EXPECT_EQ(F32ToF16(1.0f), 0x3c00);
  EXPECT_EQ(F32ToF16(-2.0f), 0xc000);
  EXPECT_EQ(F32ToF16(65504.0f), 0x7bff);  // Largest finite half.
  EXPECT_EQ(F32ToF16(65536.0f), 0x7c00);  // Overflows to +inf.
  EXPECT_EQ(F32ToF16(std::numeric_limits<float>::infinity()), 0x7c00);
  EXPECT_EQ(F32ToF16(std::ldexp(1.0f, -24)), 0x0001);  // Smallest subnormal.
  EXPECT_EQ(F32ToF16(std::ldexp(1.0f, -25)), 0x0000);  // Ties to even: zero.
  EXPECT_TRUE(std::isnan(F16ToF32(F32ToF16(
      std::numeric_limits<float>::quiet_NaN()))));
}

TEST(QuantF16Test, RoundsToNearestEven) {
  // 1 + 2^-11 sits exactly between half(1.0) and the next half up
  // (1 + 2^-10); round-to-even keeps the even significand, 1.0.
  EXPECT_EQ(F32ToF16(1.0f + std::ldexp(1.0f, -11)), 0x3c00);
  // 1 + 3*2^-11 sits between 1+2^-10 and 1+2^-9; even is 1+2^-9.
  EXPECT_EQ(F32ToF16(1.0f + 3 * std::ldexp(1.0f, -11)), 0x3c02);
  // Anything past the midpoint rounds up.
  EXPECT_EQ(F32ToF16(1.0f + std::ldexp(1.0f, -11) + std::ldexp(1.0f, -18)),
            0x3c01);
}

TEST(QuantF16Test, RelativeErrorBoundedForNormals) {
  const Matrix m = TestMatrix(32, 32, 21, 8.0f);
  for (size_t i = 0; i < m.size(); ++i) {
    const float x = m.data()[i];
    const float back = F16ToF32(F32ToF16(x));
    // Half a ulp of a normal half value: 2^-11 relative.
    EXPECT_LE(std::abs(back - x),
              std::max(std::abs(x) * std::ldexp(1.0f, -11),
                       std::ldexp(1.0f, -24)))
        << x;
  }
}

// --- EncodeTo/DecodeFrom round trips --------------------------------------

TEST(QuantCodecTest, F32RoundTripIsBitwise) {
  Matrix m = TestMatrix(7, 5, 22);
  // Splice in the awkward bit patterns a fill never produces.
  m.data()[0] = -0.0f;
  m.data()[1] = std::numeric_limits<float>::denorm_min();
  m.data()[2] = -std::numeric_limits<float>::max();
  const WireForm encoded = EncodeWire(m, Dtype::kF32);
  EXPECT_EQ(encoded.StoredBytes(), m.bytes());
  EXPECT_TRUE(encoded.scales.empty());
  const Matrix back = DecodeWire(encoded, Dtype::kF32, m.rows(), m.cols());
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.cols(), m.cols());
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(FloatToBits(back.data()[i]), FloatToBits(m.data()[i])) << i;
  }
}

TEST(QuantCodecTest, F32EncodesLittleEndianBytes) {
  // The wire order, whatever the host's: 1.0f is 0x3f800000.
  Matrix m(1, 1);
  m.data()[0] = 1.0f;
  const WireForm encoded = EncodeWire(m, Dtype::kF32);
  EXPECT_EQ(encoded.elements, (std::vector<uint8_t>{0x00, 0x00, 0x80, 0x3f}));
}

TEST(QuantCodecTest, F16RoundTripHalvesBytes) {
  const Matrix m = TestMatrix(9, 6, 23);
  const WireForm encoded = EncodeWire(m, Dtype::kF16);
  EXPECT_EQ(encoded.StoredBytes(), m.bytes() / 2);
  const Matrix back = DecodeWire(encoded, Dtype::kF16, m.rows(), m.cols());
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(back.data()[i], F16ToF32(F32ToF16(m.data()[i]))) << i;
  }
}

TEST(QuantCodecTest, I8RoundTripHonoursPerRowErrorBound) {
  // Rows of wildly different magnitude: per-row scaling must bound each
  // row's absolute error by half its own scale, not the matrix max.
  Matrix m(4, 64);
  for (int r = 0; r < m.rows(); ++r) {
    const float row_scale = std::ldexp(1.0f, 4 * r - 6);  // 2^-6 .. 2^6.
    Rng rng(24 + static_cast<uint64_t>(r));
    for (int c = 0; c < m.cols(); ++c) {
      m.at(r, c) =
          row_scale * static_cast<float>(rng.Uniform(-0.5, 0.5));
    }
  }
  const WireForm encoded = EncodeWire(m, Dtype::kI8);
  EXPECT_EQ(encoded.StoredBytes(),
            m.size() + static_cast<size_t>(m.rows()) * sizeof(float));
  ASSERT_EQ(encoded.scales.size(), static_cast<size_t>(m.rows()) * 4);
  const Matrix back = DecodeWire(encoded, Dtype::kI8, m.rows(), m.cols());
  for (int r = 0; r < m.rows(); ++r) {
    float max_abs = 0.0f;
    for (int c = 0; c < m.cols(); ++c) {
      max_abs = std::max(max_abs, std::abs(m.at(r, c)));
    }
    const float bound = encoded.Scale(r) * 0.5f;
    EXPECT_GE(bound, 0.0f);
    EXPECT_LE(encoded.Scale(r) * 127.0f, max_abs * 1.0001f);
    for (int c = 0; c < m.cols(); ++c) {
      EXPECT_LE(std::abs(back.at(r, c) - m.at(r, c)), bound + 1e-12f)
          << r << "," << c;
    }
  }
}

TEST(QuantCodecTest, I8AllZeroRowEncodesToZeros) {
  Matrix m(2, 8);  // Zero-initialised.
  m.at(1, 3) = 0.5f;  // One live row, one all-zero row.
  const WireForm encoded = EncodeWire(m, Dtype::kI8);
  EXPECT_EQ(encoded.Scale(0), 0.0f);
  const Matrix back = DecodeWire(encoded, Dtype::kI8, m.rows(), m.cols());
  for (int c = 0; c < m.cols(); ++c) {
    EXPECT_EQ(back.at(0, c), 0.0f);
  }
  EXPECT_NEAR(back.at(1, 3), 0.5f, 0.5f / 127.0f);
}

TEST(QuantCodecTest, DegenerateShapesSurviveEveryDtype) {
  for (const Dtype dtype : {Dtype::kF32, Dtype::kF16, Dtype::kI8}) {
    for (const auto& [rows, cols] :
         std::vector<std::pair<int, int>>{{0, 0}, {1, 1}, {1, 7}, {5, 1}}) {
      SCOPED_TRACE(testing::Message() << ToString(dtype) << " " << rows << "x"
                                      << cols);
      const Matrix m = TestMatrix(rows, cols, 25);
      const Matrix back = DecodeWire(EncodeWire(m, dtype), dtype, rows, cols);
      EXPECT_EQ(back.rows(), rows);
      EXPECT_EQ(back.cols(), cols);
    }
  }
}

// --- policy ---------------------------------------------------------------

TEST(QuantPolicyTest, ParsePrecisionModeAcceptsTheFlagSpellings) {
  PrecisionMode mode;
  EXPECT_TRUE(ParsePrecisionMode("lossless", &mode));
  EXPECT_EQ(mode, PrecisionMode::kLossless);
  EXPECT_TRUE(ParsePrecisionMode("fp16", &mode));
  EXPECT_EQ(mode, PrecisionMode::kF16);
  EXPECT_TRUE(ParsePrecisionMode("staged", &mode));
  EXPECT_EQ(mode, PrecisionMode::kStaged);
  EXPECT_FALSE(ParsePrecisionMode("int8", &mode));
  EXPECT_FALSE(ParsePrecisionMode("", &mode));
}

TEST(QuantPolicyTest, DtypeForStepMatchesTheStagePolicy) {
  // Lossless and fp16 ignore the step entirely.
  for (int step = 0; step < 8; ++step) {
    EXPECT_EQ(DtypeForStep(PrecisionMode::kLossless, step, 8), Dtype::kF32);
    EXPECT_EQ(DtypeForStep(PrecisionMode::kF16, step, 8), Dtype::kF16);
  }
  // Staged: f16 while structure forms (first half, rounded up), i8 for
  // the refinement tail.
  EXPECT_EQ(DtypeForStep(PrecisionMode::kStaged, 0, 4), Dtype::kF16);
  EXPECT_EQ(DtypeForStep(PrecisionMode::kStaged, 1, 4), Dtype::kF16);
  EXPECT_EQ(DtypeForStep(PrecisionMode::kStaged, 2, 4), Dtype::kI8);
  EXPECT_EQ(DtypeForStep(PrecisionMode::kStaged, 3, 4), Dtype::kI8);
  // Odd step counts round the f16 prefix up; one step is still f16.
  EXPECT_EQ(DtypeForStep(PrecisionMode::kStaged, 2, 5), Dtype::kF16);
  EXPECT_EQ(DtypeForStep(PrecisionMode::kStaged, 3, 5), Dtype::kI8);
  EXPECT_EQ(DtypeForStep(PrecisionMode::kStaged, 0, 1), Dtype::kF16);
}

}  // namespace
}  // namespace flashps::quant
