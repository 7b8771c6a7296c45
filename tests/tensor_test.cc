#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "src/common/rng.h"
#include "src/tensor/fast_exp.h"
#include "src/tensor/fast_tanh.h"
#include "src/tensor/matrix.h"

namespace flashps {
namespace {

Matrix MakeSequential(int rows, int cols) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      m.at(r, c) = static_cast<float>(r * cols + c + 1);
    }
  }
  return m;
}

// Naive triple-loop reference for verifying the streaming implementation.
Matrix MatMulReference(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (int p = 0; p < a.cols(); ++p) {
        acc += a.at(i, p) * b.at(p, j);
      }
      out.at(i, j) = acc;
    }
  }
  return out;
}

TEST(MatrixTest, BasicAccessors) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_EQ(m.bytes(), 48u);
  m.at(2, 3) = 5.0f;
  EXPECT_EQ(m.at(2, 3), 5.0f);
  EXPECT_EQ(m.row(2)[3], 5.0f);
}

TEST(MatrixTest, MatMulSmallKnown) {
  Matrix a = MakeSequential(2, 3);  // [1 2 3; 4 5 6]
  Matrix b = MakeSequential(3, 2);  // [1 2; 3 4; 5 6]
  Matrix c = MatMul(a, b);
  EXPECT_EQ(c.at(0, 0), 22.0f);
  EXPECT_EQ(c.at(0, 1), 28.0f);
  EXPECT_EQ(c.at(1, 0), 49.0f);
  EXPECT_EQ(c.at(1, 1), 64.0f);
}

TEST(MatrixTest, MatMulMatchesReferenceOnRandom) {
  Rng rng(5);
  Matrix a(17, 23);
  Matrix b(23, 11);
  a.FillNormal(rng, 1.0f);
  b.FillNormal(rng, 1.0f);
  const Matrix got = MatMul(a, b);
  const Matrix want = MatMulReference(a, b);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], want.data()[i], 1e-4f);
  }
}

TEST(MatrixTest, MatMulTransposedMatchesMatMul) {
  Rng rng(6);
  Matrix a(9, 14);
  Matrix b(12, 14);
  a.FillNormal(rng, 1.0f);
  b.FillNormal(rng, 1.0f);
  // b^T explicitly.
  Matrix bt(14, 12);
  for (int r = 0; r < b.rows(); ++r) {
    for (int c = 0; c < b.cols(); ++c) {
      bt.at(c, r) = b.at(r, c);
    }
  }
  const Matrix got = MatMulTransposed(a, b);
  const Matrix want = MatMul(a, bt);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], want.data()[i], 1e-4f);
  }
}

TEST(MatrixTest, SoftmaxRowsSumToOne) {
  Rng rng(7);
  Matrix m(8, 16);
  m.FillNormal(rng, 3.0f);
  SoftmaxRows(m);
  for (int r = 0; r < m.rows(); ++r) {
    float sum = 0.0f;
    for (int c = 0; c < m.cols(); ++c) {
      EXPECT_GE(m.at(r, c), 0.0f);
      sum += m.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(MatrixTest, SoftmaxIsShiftInvariantAndStable) {
  Matrix a(1, 3);
  a.at(0, 0) = 1000.0f;
  a.at(0, 1) = 1001.0f;
  a.at(0, 2) = 1002.0f;
  SoftmaxRows(a);
  Matrix b(1, 3);
  b.at(0, 0) = 0.0f;
  b.at(0, 1) = 1.0f;
  b.at(0, 2) = 2.0f;
  SoftmaxRows(b);
  for (int c = 0; c < 3; ++c) {
    EXPECT_TRUE(std::isfinite(a.at(0, c)));
    EXPECT_NEAR(a.at(0, c), b.at(0, c), 1e-6f);
  }
}

TEST(MatrixTest, LayerNormRowStats) {
  Rng rng(8);
  Matrix m(5, 64);
  m.FillNormal(rng, 4.0f);
  std::vector<float> gamma(64, 1.0f);
  std::vector<float> beta(64, 0.0f);
  const Matrix out = LayerNorm(m, gamma, beta);
  for (int r = 0; r < out.rows(); ++r) {
    double mean = 0.0;
    double var = 0.0;
    for (int c = 0; c < out.cols(); ++c) {
      mean += out.at(r, c);
    }
    mean /= out.cols();
    for (int c = 0; c < out.cols(); ++c) {
      var += (out.at(r, c) - mean) * (out.at(r, c) - mean);
    }
    var /= out.cols();
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(MatrixTest, LayerNormAppliesGainAndBias) {
  Matrix m(1, 4);
  m.at(0, 0) = 1.0f;
  m.at(0, 1) = 2.0f;
  m.at(0, 2) = 3.0f;
  m.at(0, 3) = 4.0f;
  std::vector<float> gamma(4, 2.0f);
  std::vector<float> beta(4, 5.0f);
  const Matrix out = LayerNorm(m, gamma, beta);
  double mean = 0.0;
  for (int c = 0; c < 4; ++c) {
    mean += out.at(0, c);
  }
  EXPECT_NEAR(mean / 4.0, 5.0, 1e-4);  // Bias shifts the mean.
}

TEST(MatrixTest, GeluKnownValues) {
  Matrix m(1, 3);
  m.at(0, 0) = 0.0f;
  m.at(0, 1) = 10.0f;
  m.at(0, 2) = -10.0f;
  GeluInPlace(m);
  EXPECT_NEAR(m.at(0, 0), 0.0f, 1e-6f);
  EXPECT_NEAR(m.at(0, 1), 10.0f, 1e-3f);
  EXPECT_NEAR(m.at(0, 2), 0.0f, 1e-3f);
}

// The GELU kernels use the rational FastTanh fit instead of libm's tanh;
// this pins its error bound over the clamp range and saturation outside.
// The worst case (~4 ULPs of 1.0) is near the saturation knee |x| ~ 9.
TEST(MatrixTest, FastTanhMatchesLibmWithinTolerance) {
  for (float x = -12.0f; x <= 12.0f; x += 1e-3f) {
    EXPECT_NEAR(FastTanh(x), std::tanh(x), 5e-7f) << "x=" << x;
  }
  EXPECT_EQ(FastTanh(100.0f), FastTanh(9.0f));
  EXPECT_EQ(FastTanh(-100.0f), FastTanh(-9.0f));
}

// Distance in representable floats between two finite floats of one sign.
int64_t UlpDistance(float a, float b) {
  int32_t ia = 0;
  int32_t ib = 0;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  return std::abs(static_cast<int64_t>(ia) - ib);
}

// Softmax's polynomial exp against the correctly rounded exp (libm's double
// exp rounded to float): at most 1 ULP on [-87.3, 0] (an exhaustive sweep
// of that range passes; this samples ~10^6 points of it), exactly 0 below
// ln(FLT_MIN) and for -inf, exactly 1 at 0. This build runs it without FMA,
// as the row-wise kernels do at every ISA level.
TEST(MatrixTest, FastExpWithinOneUlpOfCorrectlyRounded) {
  constexpr int kSamples = 1 << 20;
  int off_by_one = 0;
  for (int i = 0; i <= kSamples; ++i) {
    const float x = static_cast<float>(-87.3 * i / kSamples);
    const float want = static_cast<float>(std::exp(static_cast<double>(x)));
    const float got = FastExpNonPositive(x);
    ASSERT_LE(UlpDistance(got, want), 1) << "x=" << x;
    off_by_one += got != want ? 1 : 0;
  }
  // Not just close: about 90% of these are the correctly rounded result.
  EXPECT_LT(off_by_one, kSamples / 5);
  EXPECT_EQ(FastExpNonPositive(0.0f), 1.0f);
  EXPECT_EQ(FastExpNonPositive(-0.0f), 1.0f);
  EXPECT_EQ(FastExpNonPositive(-87.4f), 0.0f);
  EXPECT_EQ(FastExpNonPositive(-1000.0f), 0.0f);
  EXPECT_EQ(FastExpNonPositive(-std::numeric_limits<float>::infinity()), 0.0f);
}

TEST(MatrixTest, GatherScatterRoundTrip) {
  Matrix m = MakeSequential(6, 3);
  const std::vector<int> idx = {1, 3, 5};
  Matrix g = GatherRows(m, idx);
  EXPECT_EQ(g.rows(), 3);
  EXPECT_EQ(g.at(0, 0), m.at(1, 0));
  EXPECT_EQ(g.at(2, 2), m.at(5, 2));

  Matrix dst(6, 3);
  ScatterRows(dst, g, idx);
  for (const int r : idx) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(dst.at(r, c), m.at(r, c));
    }
  }
  EXPECT_EQ(dst.at(0, 0), 0.0f);  // Untouched rows stay zero.
}

TEST(MatrixTest, CosineSimilarityProperties) {
  Matrix m(3, 4);
  for (int c = 0; c < 4; ++c) {
    m.at(0, c) = static_cast<float>(c + 1);
    m.at(1, c) = 2.0f * static_cast<float>(c + 1);  // Parallel to row 0.
    m.at(2, c) = 0.0f;
  }
  m.at(2, 0) = 1.0f;
  EXPECT_NEAR(CosineSimilarity(m, 0, m, 1), 1.0, 1e-6);
  EXPECT_NEAR(CosineSimilarity(m, 0, m, 0), 1.0, 1e-6);
  EXPECT_LT(CosineSimilarity(m, 0, m, 2), 0.5);
}

TEST(MatrixTest, MeanAbsDiffAndNorm) {
  Matrix a(2, 2);
  Matrix b(2, 2);
  a.FillConstant(1.0f);
  b.FillConstant(3.0f);
  EXPECT_DOUBLE_EQ(MeanAbsDiff(a, b), 2.0);
  EXPECT_DOUBLE_EQ(FrobeniusNorm(a), 2.0);
}

TEST(MatrixTest, AddOps) {
  Matrix a(2, 2);
  Matrix b(2, 2);
  a.FillConstant(1.0f);
  b.FillConstant(2.0f);
  const Matrix c = Add(a, b);
  EXPECT_EQ(c.at(1, 1), 3.0f);
  AddInPlace(a, b);
  EXPECT_EQ(a.at(0, 0), 3.0f);
}

// A GEMM's B supplied row by row from two source matrices lands on the
// bits of the same B materialized as one matrix, in both orientations, at
// ragged and full panel widths of every ISA level (2W = 8, 16, 32), over
// one and two k-blocks, for every tile height up to 2·MR + 1 (MR = 12 at
// v4), with A read and C written through row lists.
TEST(MatrixTest, RowSourceBMatchesMaterializedB) {
  Rng rng(0x50CE);
  for (const bool transposed : {false, true}) {
    for (const int n : {1, 7, 16, 33, 64}) {
      for (const int k : {3, 64, 530}) {
        const int count = transposed ? n : k;
        const int cols = transposed ? k : n;
        Matrix s0(count, cols);
        Matrix s1(count, cols);
        s0.FillNormal(rng, 1.0f);
        s1.FillNormal(rng, 1.0f);
        // Row r of B is a random row of a random source.
        std::vector<const float*> rows(static_cast<size_t>(count));
        Matrix b(count, cols);
        for (int r = 0; r < count; ++r) {
          const Matrix& src = rng.Uniform(0.0, 1.0) < 0.5 ? s0 : s1;
          const int from = static_cast<int>(rng.Uniform(0.0, count)) % count;
          rows[static_cast<size_t>(r)] = src.row(from);
          std::memcpy(b.row(r), src.row(from), sizeof(float) * cols);
        }
        const RowSource source{rows.data(), count, cols};
        for (int m = 1; m <= 25; ++m) {
          Matrix a(m + 3, k);
          a.FillNormal(rng, 1.0f);
          std::vector<int> a_rows(static_cast<size_t>(m));
          std::vector<int> out_rows(static_cast<size_t>(m));
          for (int i = 0; i < m; ++i) {
            a_rows[static_cast<size_t>(i)] = m + 2 - i;
            out_rows[static_cast<size_t>(i)] = 2 * i + 1;
          }
          Matrix out(2 * m + 2, n);
          out.FillConstant(7.0f);
          MatMulRowSource(a, &a_rows, source, transposed, out, &out_rows);
          const Matrix ga = GatherRows(a, a_rows);
          const Matrix want = transposed ? MatMulTransposed(ga, b)
                                         : MatMul(ga, b);
          for (int i = 0; i < m; ++i) {
            ASSERT_EQ(std::memcmp(out.row(out_rows[static_cast<size_t>(i)]),
                                  want.row(i), sizeof(float) * n),
                      0)
                << "transposed " << transposed << " n " << n << " k " << k
                << " m " << m << " row " << i;
          }
          for (int r = 0; r < out.rows(); r += 2) {
            for (int c = 0; c < n; ++c) {
              ASSERT_EQ(out.at(r, c), 7.0f) << "row " << r << " was written";
            }
          }
        }
        // Identity row lists: A and C are used as they are.
        Matrix a(5, k);
        a.FillNormal(rng, 1.0f);
        Matrix out(5, n);
        MatMulRowSource(a, nullptr, source, transposed, out, nullptr);
        const Matrix want = transposed ? MatMulTransposed(a, b) : MatMul(a, b);
        ASSERT_EQ(std::memcmp(out.data(), want.data(), out.bytes()), 0);
      }
    }
  }
}

// The step's one-pass latent update equals its three separate passes:
// h0 = x + offset, eps = h - h0, AxpyInPlace(x, alpha, eps).
TEST(MatrixTest, ResidualUpdateRowsMatchesSeparatePasses) {
  Rng rng(0xE95);
  for (const int cols : {1, 16, 48, 64, 70}) {
    Matrix x(9, cols);
    Matrix h(9, cols);
    Matrix offset(1, cols);
    x.FillNormal(rng, 1.0f);
    h.FillNormal(rng, 1.0f);
    offset.FillNormal(rng, 0.3f);
    Matrix eps = h;
    for (int r = 0; r < x.rows(); ++r) {
      for (int c = 0; c < cols; ++c) {
        eps.at(r, c) -= x.at(r, c) + offset.at(0, c);
      }
    }
    Matrix want = x;
    AxpyInPlace(want, 0.2f, eps);
    // Rows of h reached through a table, in reverse.
    std::vector<const float*> h_rows(static_cast<size_t>(x.rows()));
    Matrix h_reversed(x.rows(), cols);
    for (int r = 0; r < x.rows(); ++r) {
      std::memcpy(h_reversed.row(x.rows() - 1 - r), h.row(r),
                  sizeof(float) * cols);
    }
    for (int r = 0; r < x.rows(); ++r) {
      h_rows[static_cast<size_t>(r)] = h_reversed.row(x.rows() - 1 - r);
    }
    ResidualUpdateRows(x, offset.row(0), h_rows, 0.2f);
    EXPECT_EQ(std::memcmp(x.data(), want.data(), x.bytes()), 0)
        << "cols " << cols;
  }
}

}  // namespace
}  // namespace flashps
