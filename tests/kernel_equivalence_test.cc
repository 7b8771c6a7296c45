// Equivalence of the vectorized/threaded kernels against the retained naive
// reference, across awkward shapes (non-multiples of the register tile and
// of the 16-lane row width, prime dims, tall/thin, wide/flat, degenerate
// 1x1), extreme values and thread counts 1/2/4; the GEMM's bits against a
// scalar replay of its accumulation chain at every tile height and panel
// width; plus the ParallelFor facility's own contract. scripts/check.sh
// runs this suite once per ISA level the CPU supports (FLASHPS_ISA), and
// under ThreadSanitizer and AddressSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/common/parallel_for.h"
#include "src/common/rng.h"
#include "src/tensor/matrix.h"
#include "src/tensor/naive.h"
#include "tests/row_gemm.h"

namespace flashps {
namespace {

struct GemmShape {
  int m;
  int k;
  int n;
};

// Non-multiple-of-tile sizes on purpose: 1x1, primes, tall/thin, wide/flat,
// and the SDXL block shapes the serving path actually runs (tokens=256,
// hidden=64, ff=256). The tile-by-tile sweep is GemmFollowsTheChain below.
const std::vector<GemmShape>& Shapes() {
  static const std::vector<GemmShape> shapes = {
      {1, 1, 1},    {1, 7, 1},    {2, 3, 5},      {17, 13, 7},
      {31, 37, 41}, {257, 8, 3},  {3, 8, 257},    {5, 9, 12},
      {4, 8, 8},    {256, 64, 64}, {256, 64, 256}, {256, 256, 64},
  };
  return shapes;
}

Matrix RandomMatrix(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  m.FillNormal(rng, 1.0f);
  return m;
}

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.bytes()) == 0);
}

void ExpectNear(const Matrix& got, const Matrix& want, double tol,
                const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got.data()[i], want.data()[i], tol)
        << what << " at flat index " << i;
  }
}

// The blocked kernels accumulate in the same k-order as the reference, so
// the only permitted divergence is FMA-contraction rounding.
double GemmTolerance(int k) { return 1e-4 * std::sqrt(static_cast<double>(k)); }

TEST(KernelEquivalenceTest, MatMulMatchesNaiveAcrossShapesAndThreads) {
  for (const auto& s : Shapes()) {
    const Matrix a = RandomMatrix(s.m, s.k, 11 + s.m);
    const Matrix b = RandomMatrix(s.k, s.n, 23 + s.n);
    const Matrix want = naive::MatMul(a, b);
    for (const int threads : {1, 2, 4}) {
      ComputeThreadsScope scope(threads);
      ExpectNear(MatMul(a, b), want, GemmTolerance(s.k), "MatMul");
    }
  }
}

TEST(KernelEquivalenceTest, MatMulTransposedMatchesNaiveAcrossShapesAndThreads) {
  for (const auto& s : Shapes()) {
    const Matrix a = RandomMatrix(s.m, s.k, 31 + s.m);
    const Matrix b = RandomMatrix(s.n, s.k, 43 + s.n);
    const Matrix want = naive::MatMulTransposed(a, b);
    for (const int threads : {1, 2, 4}) {
      ComputeThreadsScope scope(threads);
      ExpectNear(MatMulTransposed(a, b), want, GemmTolerance(s.k),
                 "MatMulTransposed");
    }
  }
}

TEST(KernelEquivalenceTest, GemmIsBitwiseIdenticalAcrossThreadCounts) {
  // No output element's accumulation chain depends on which thread, tile
  // or panel computes it, so the bits cannot move with the thread count.
  for (const auto& s : Shapes()) {
    const Matrix a = RandomMatrix(s.m, s.k, 57 + s.m);
    const Matrix b = RandomMatrix(s.k, s.n, 71 + s.n);
    const Matrix bt = RandomMatrix(s.n, s.k, 73 + s.n);
    Matrix base;
    Matrix base_t;
    {
      ComputeThreadsScope scope(1);
      base = MatMul(a, b);
      base_t = MatMulTransposed(a, bt);
    }
    for (const int threads : {2, 4}) {
      ComputeThreadsScope scope(threads);
      EXPECT_TRUE(BitwiseEqual(MatMul(a, b), base))
          << "m=" << s.m << " k=" << s.k << " n=" << s.n
          << " threads=" << threads;
      EXPECT_TRUE(BitwiseEqual(MatMulTransposed(a, bt), base_t))
          << "m=" << s.m << " k=" << s.k << " n=" << s.n
          << " threads=" << threads;
    }
  }
}

Matrix Transposed(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) {
      t.at(c, r) = m.at(r, c);
    }
  }
  return t;
}

// The accumulation chain every GEMM output element runs (see "Bits" in
// src/tensor/matrix.cc), replayed in scalar code: per 512-deep k-block,
// acc = +0, then acc += a[p] * b[p] in p order — fused at v3/v4, rounded
// twice at generic — then c += acc on a zeroed c. The generic product goes
// through a volatile, so no compiler contraction can fuse it with the add
// even when the test itself is built with FMA enabled.
Matrix ChainReference(const Matrix& a, const Matrix& b) {
  constexpr int kKc = 512;
  const bool fused = std::strcmp(KernelIsa(), "generic") != 0;
  Matrix c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      float cij = 0.0f;
      for (int k0 = 0; k0 < a.cols(); k0 += kKc) {
        float acc = 0.0f;
        for (int p = k0; p < std::min(a.cols(), k0 + kKc); ++p) {
          const float x = a.at(i, p);
          const float y = b.at(p, j);
          if (fused) {
            acc = std::fma(x, y, acc);
          } else {
            volatile float product = x * y;
            acc += product;
          }
        }
        cij += acc;
      }
      c.at(i, j) = cij;
    }
  }
  return c;
}

// Every tile height the GEMM splits rows into (1..12 at v4, 1..6 below;
// 2 * 12 + 1 also covers every two-tile split), the tall dense-flow panels,
// panel widths on both sides of the 8-, 16- and 32-float panels, and k on
// both sides of the SIMD widths and of the 512 k-block.
TEST(KernelEquivalenceTest, GemmFollowsTheChainAtEveryTileAndPanel) {
  std::vector<int> heights;
  for (int m = 1; m <= 25; ++m) {
    heights.push_back(m);
  }
  heights.insert(heights.end(), {64, 65, 256});
  const int widths[] = {1, 15, 16, 17, 31, 32, 33, 48, 400};
  for (const int k : {1, 17, 64, 513}) {
    for (const int m : heights) {
      // The two-block k only at a few heights: it exercises the c += acc
      // step, not the tiling.
      if (k == 513 && m != 1 && m != 13 && m != 25 && m != 65) {
        continue;
      }
      for (const int n : widths) {
        const Matrix a = RandomMatrix(m, k, 1000 + m);
        const Matrix b = RandomMatrix(k, n, 2000 + n);
        const Matrix bt = Transposed(b);
        const Matrix want = ChainReference(a, b);
        for (const int threads : {1, 3}) {
          ComputeThreadsScope scope(threads);
          EXPECT_TRUE(BitwiseEqual(MatMul(a, b), want))
              << "MatMul m=" << m << " k=" << k << " n=" << n
              << " threads=" << threads;
          // Packing B^T is pure data movement.
          EXPECT_TRUE(BitwiseEqual(MatMulTransposed(a, bt), want))
              << "MatMulTransposed m=" << m << " k=" << k << " n=" << n
              << " threads=" << threads;
        }
      }
    }
  }
}

// The chain's edge cases: -0 inputs, products that underflow (an FMA chain
// can then end at -0, which c += acc turns into +0), infinities and NaN.
TEST(KernelEquivalenceTest, GemmFollowsTheChainOnSpecialValues) {
  const float specials[] = {0.0f,   -0.0f,  1e-30f, -1e-30f, 1e-20f,
                            -1e-25f, 3e38f, -3e38f,  1.0f,    -1.0f};
  Matrix a = RandomMatrix(29, 70, 5);
  Matrix b = RandomMatrix(70, 45, 6);
  for (size_t i = 0; i < a.size(); i += 3) {
    a.data()[i] = specials[i % std::size(specials)];
  }
  for (size_t i = 0; i < b.size(); i += 2) {
    b.data()[i] = specials[(i / 2) % std::size(specials)];
  }
  // One row of tiny products only, so its chains end at signed zeros.
  for (int p = 0; p < a.cols(); ++p) {
    a.at(3, p) = p % 2 == 0 ? 1e-30f : -1e-30f;
  }
  b.at(7, 4) = std::numeric_limits<float>::infinity();
  b.at(9, 5) = std::numeric_limits<float>::quiet_NaN();
  const Matrix want = ChainReference(a, b);
  EXPECT_TRUE(BitwiseEqual(MatMul(a, b), want));
  EXPECT_TRUE(BitwiseEqual(MatMulTransposed(a, Transposed(b)), want));
}

TEST(KernelEquivalenceTest, MatMulTransposedIsMatMulOfTheTransposeBitwise) {
  for (const auto& s : Shapes()) {
    const Matrix a = RandomMatrix(s.m, s.k, 81 + s.m);
    const Matrix b = RandomMatrix(s.n, s.k, 83 + s.n);
    EXPECT_TRUE(BitwiseEqual(MatMulTransposed(a, b), MatMul(a, Transposed(b))))
        << "m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

// Gathered row subsets of every size around 64 rows, where the GEMM used
// to switch between two code paths: each gathered or scattered row is
// bitwise the same row of the dense product.
TEST(KernelEquivalenceTest, RowSubsetsMatchTheDenseProductBitwise) {
  const Matrix a = RandomMatrix(150, 64, 91);
  const Matrix b = RandomMatrix(64, 80, 92);
  const Matrix dense = MatMul(a, b);
  for (const int size : {1, 20, 63, 64, 65, 66, 130, 150}) {
    std::vector<int> rows;
    for (int i = 0; i < size; ++i) {
      rows.push_back((i * 37) % 150);  // Distinct: 37 and 150 are coprime.
    }
    std::sort(rows.begin(), rows.end());
    const Matrix gathered = GatherGemm(a, b, rows);
    Matrix scattered(150, 80);
    ScatterGemm(GatherRows(a, rows), b, rows, scattered);
    for (size_t i = 0; i < rows.size(); ++i) {
      const int r = rows[i];
      EXPECT_EQ(std::memcmp(gathered.row(static_cast<int>(i)), dense.row(r),
                            sizeof(float) * 80),
                0)
          << "gathered row " << r << " of " << size;
      EXPECT_EQ(std::memcmp(scattered.row(r), dense.row(r), sizeof(float) * 80),
                0)
          << "scattered row " << r << " of " << size;
    }
  }
}

// Row-wise tolerance policy. GELU runs naive::'s operations in the same
// order without FMA contraction, so it must match bitwise. Softmax and
// LayerNorm sum lane-blocked (16 partial sums, then a fixed tree) where
// naive:: sums left to right, and softmax uses a polynomial exp within
// 1 ULP of libm's: both stay within kRowwiseRelTol of the reference,
// relative to the value (measured <= 5.1e-6 up to 1024 columns). Softmax's
// absolute floor absorbs outputs that naive:: rounds to a subnormal;
// LayerNorm's is kRowwiseRelTol itself, since its outputs near 0 come from
// cancelling O(1) terms.
constexpr double kRowwiseRelTol = 1e-5;
constexpr double kRowwiseAbsFloor = 1e-12;

void ExpectClose(const Matrix& got, const Matrix& want, double abs_tol,
                 const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    const double w = want.data()[i];
    ASSERT_NEAR(got.data()[i], w, abs_tol + kRowwiseRelTol * std::abs(w))
        << what << " at flat index " << i;
  }
}

// Ragged tails on both sides of the 16-lane width, and the SDXL widths.
const std::vector<int>& RowwiseWidths() {
  static const std::vector<int> widths = {1,  3,  15,  16,  17,
                                          48, 64, 129, 144, 256, 400};
  return widths;
}

std::vector<float> RandomVector(int n, float mean, float stddev,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) {
    x = mean + stddev * static_cast<float>(rng.Normal());
  }
  return v;
}

TEST(KernelEquivalenceTest, RowwiseKernelsMatchNaiveAcrossThreads) {
  for (const int rows : {1, 5, 64, 257}) {
    for (const int cols : RowwiseWidths()) {
      const Matrix x = RandomMatrix(rows, cols, 100 + rows + cols);
      const std::vector<float> gamma = RandomVector(cols, 1.0f, 0.2f, 7);
      const std::vector<float> beta = RandomVector(cols, 0.0f, 0.1f, 8);
      const std::string shape =
          std::to_string(rows) + "x" + std::to_string(cols);
      Matrix soft_want = x;
      naive::SoftmaxRows(soft_want);
      const Matrix ln_want = naive::LayerNorm(x, gamma, beta);
      Matrix gelu_want = x;
      naive::GeluInPlace(gelu_want);
      Matrix soft_1t;
      Matrix ln_1t;
      for (const int threads : {1, 2, 4}) {
        ComputeThreadsScope scope(threads);
        Matrix soft = x;
        SoftmaxRows(soft);
        const Matrix ln = LayerNorm(x, gamma, beta);
        Matrix gelu = x;
        GeluInPlace(gelu);
        ExpectClose(soft, soft_want, kRowwiseAbsFloor, "softmax " + shape);
        ExpectClose(ln, ln_want, kRowwiseRelTol, "layernorm " + shape);
        EXPECT_TRUE(BitwiseEqual(gelu, gelu_want)) << "gelu " << shape;
        // Rows never share lanes, so only the row-to-thread assignment
        // changes with the thread count: the bits do not.
        if (threads == 1) {
          soft_1t = soft;
          ln_1t = ln;
        } else {
          EXPECT_TRUE(BitwiseEqual(soft, soft_1t))
              << "softmax " << shape << " t=" << threads;
          EXPECT_TRUE(BitwiseEqual(ln, ln_1t))
              << "layernorm " << shape << " t=" << threads;
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, RowwiseKernelsHandleExtremeRows) {
  for (const int cols : RowwiseWidths()) {
    const std::string width = "cols=" + std::to_string(cols);
    // Row 0: half the columns 200 below the rest, so their exp underflows
    // to exactly 0 in both kernels. Row 1: all equal. Row 2: all -1e30
    // but one.
    Matrix x(3, cols);
    for (int j = 0; j < cols; ++j) {
      x.at(0, j) = j % 2 == 0 ? 0.5f : -200.0f;
      x.at(1, j) = 3.0f;
      x.at(2, j) = j == cols / 2 ? 7.0f : -1e30f;
    }
    Matrix soft = x;
    SoftmaxRows(soft);
    Matrix soft_want = x;
    naive::SoftmaxRows(soft_want);
    ExpectClose(soft, soft_want, kRowwiseAbsFloor, "softmax " + width);
    for (int j = 0; j < cols; ++j) {
      if (j % 2 == 1) {
        EXPECT_EQ(soft.at(0, j), 0.0f) << width << " j=" << j;
        EXPECT_EQ(soft_want.at(0, j), 0.0f) << width << " j=" << j;
      }
      // exp(0) == 1 and integer sums are exact: equal rows match bitwise.
      EXPECT_EQ(soft.at(1, j), soft_want.at(1, j)) << width << " j=" << j;
      EXPECT_EQ(soft.at(2, j), j == cols / 2 ? 1.0f : 0.0f)
          << width << " j=" << j;
    }

    // A bias far below the scores underflows through the fused epilogue
    // too.
    Matrix bias(1, cols);
    for (int j = 0; j < cols; ++j) {
      bias.at(0, j) = j % 3 == 0 ? 0.0f : -1e4f;
    }
    Matrix fused = GatherRows(x, {0});
    ScaleBiasSoftmaxRows(fused, 0.125f, bias, nullptr);
    for (int j = 0; j < cols; ++j) {
      if (j % 3 != 0) {
        EXPECT_EQ(fused.at(0, j), 0.0f) << width << " j=" << j;
      }
    }

    // LayerNorm of a constant row: an exact mean, zero variance, so every
    // output is exactly beta.
    const std::vector<float> gamma = RandomVector(cols, 1.0f, 0.2f, 9);
    const std::vector<float> beta = RandomVector(cols, 0.0f, 0.1f, 10);
    const Matrix ln = LayerNorm(x, gamma, beta);
    for (int j = 0; j < cols; ++j) {
      EXPECT_EQ(ln.at(1, j), beta[static_cast<size_t>(j)]) << width;
    }
    ExpectClose(ln, naive::LayerNorm(x, gamma, beta), kRowwiseRelTol,
                "layernorm " + width);

    // GELU past the tanh clamp (|x| > 9 / sqrt(2/pi) ~ 11.3), through
    // x^3 overflow, stays bitwise equal to the reference.
    const float extremes[] = {0.0f,   -0.0f,   11.0f,  -11.0f, 12.0f,
                              -12.0f, 30.0f,   -30.0f, 1e3f,   -1e3f,
                              1e20f,  -1e20f,  3e38f,  -3e38f, 1e-30f,
                              -1e-30f};
    Matrix g(1, cols);
    for (int j = 0; j < cols; ++j) {
      g.at(0, j) = extremes[static_cast<size_t>(j) % std::size(extremes)];
    }
    Matrix gelu_want = g;
    naive::GeluInPlace(gelu_want);
    GeluInPlace(g);
    EXPECT_TRUE(BitwiseEqual(g, gelu_want)) << "gelu " << width;
  }
}

// The fused attention epilogue rounds exactly like its three separate
// passes: scale, bias-row add (directly or through a row list), softmax.
TEST(KernelEquivalenceTest, ScaleBiasSoftmaxMatchesSeparatePasses) {
  constexpr float kScale = 0.125f;
  for (const int cols : RowwiseWidths()) {
    const Matrix bias = RandomMatrix(cols + 7, cols, 200 + cols);
    const Matrix scores = RandomMatrix(cols, cols, 300 + cols);
    std::vector<int> gathered;  // A gathered, non-contiguous row subset.
    for (int r = 1; r < bias.rows(); r += 3) {
      gathered.push_back(r);
    }
    const Matrix gathered_scores =
        RandomMatrix(static_cast<int>(gathered.size()), cols, 400 + cols);
    for (const bool indirect : {false, true}) {
      const Matrix& in = indirect ? gathered_scores : scores;
      const std::vector<int>* rows = indirect ? &gathered : nullptr;
      Matrix want = in;
      for (int i = 0; i < want.rows(); ++i) {
        const float* b = bias.row(rows == nullptr ? i : (*rows)[i]);
        for (int j = 0; j < cols; ++j) {
          want.at(i, j) *= kScale;
        }
        for (int j = 0; j < cols; ++j) {
          want.at(i, j) += b[j];
        }
      }
      SoftmaxRows(want);
      for (const int threads : {1, 2, 4}) {
        ComputeThreadsScope scope(threads);
        Matrix got = in;
        ScaleBiasSoftmaxRows(got, kScale, bias, rows);
        EXPECT_TRUE(BitwiseEqual(got, want))
            << "cols=" << cols << " indirect=" << indirect
            << " t=" << threads;
      }
    }
  }
}

TEST(KernelEquivalenceTest, AxpyMatchesScalarLoop) {
  const Matrix x = RandomMatrix(93, 31, 5);
  Matrix want = RandomMatrix(93, 31, 6);
  Matrix got = want;
  for (size_t i = 0; i < want.size(); ++i) {
    want.data()[i] += 0.25f * x.data()[i];
  }
  for (const int threads : {1, 4}) {
    ComputeThreadsScope scope(threads);
    Matrix y = got;
    AxpyInPlace(y, 0.25f, x);
    EXPECT_TRUE(BitwiseEqual(y, want)) << "threads=" << threads;
  }
}

TEST(KernelEquivalenceTest, DegenerateShapesStayEmpty) {
  const Matrix a(0, 5);
  const Matrix b(5, 0);
  EXPECT_EQ(MatMul(a, RandomMatrix(5, 3, 1)).rows(), 0);
  EXPECT_EQ(MatMul(RandomMatrix(3, 5, 1), b).cols(), 0);
  Matrix empty(0, 0);
  SoftmaxRows(empty);  // Must not touch anything.
  ScaleBiasSoftmaxRows(empty, 0.5f, empty, nullptr);
  GeluInPlace(empty);
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(LayerNorm(empty, {}, {}).empty());
}

TEST(ParallelForTest, CoversRangeExactlyOnceWithAlignedChunks) {
  ComputeThreadsScope scope(4);
  for (const int64_t n : {1, 7, 64, 1000, 1001}) {
    for (const int64_t grain : {1, 4, 7, 64}) {
      std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
      for (auto& h : hits) {
        h.store(0);
      }
      std::atomic<bool> aligned{true};
      ParallelFor(n, grain, [&](int64_t b, int64_t e) {
        if (b % grain != 0 && b != 0) {
          aligned.store(false);
        }
        for (int64_t i = b; i < e; ++i) {
          hits[static_cast<size_t>(i)].fetch_add(1);
        }
      });
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
            << "n=" << n << " grain=" << grain << " i=" << i;
      }
      EXPECT_TRUE(aligned.load()) << "n=" << n << " grain=" << grain;
    }
  }
}

TEST(ParallelForTest, SerialFastPathIsOneInlineCall) {
  ComputeThreadsScope scope(4);
  int calls = 0;
  // n <= grain: single inline invocation on the calling thread.
  ParallelFor(32, 32, [&](int64_t b, int64_t e) {
    ++calls;
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 32);
  });
  EXPECT_EQ(calls, 1);

  ComputeThreadsScope serial(1);
  calls = 0;
  ParallelFor(1 << 20, 1, [&](int64_t b, int64_t e) {
    ++calls;
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 1 << 20);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, NestedParallelismRunsSerial) {
  ComputeThreadsScope scope(4);
  std::atomic<int> outer_chunks{0};
  std::atomic<int> serial_budgets{0};
  std::atomic<int> inner_calls{0};
  ParallelFor(16, 1, [&](int64_t, int64_t) {
    outer_chunks.fetch_add(1);
    // Inside a parallel region the effective budget collapses to 1...
    if (EffectiveComputeThreads() == 1) {
      serial_budgets.fetch_add(1);
    }
    // ...so the nested call runs as one inline chunk covering the range.
    ParallelFor(1000, 1, [&](int64_t b, int64_t e) {
      if (b == 0 && e == 1000) {
        inner_calls.fetch_add(1);
      }
    });
  });
  EXPECT_GE(outer_chunks.load(), 1);
  EXPECT_EQ(serial_budgets.load(), outer_chunks.load());
  EXPECT_EQ(inner_calls.load(), outer_chunks.load());
}

TEST(ParallelForTest, ScopesNestAndRestore) {
  SetGlobalComputeThreads(1);
  EXPECT_EQ(EffectiveComputeThreads(), 1);
  {
    ComputeThreadsScope outer(3);
    EXPECT_EQ(EffectiveComputeThreads(), 3);
    {
      ComputeThreadsScope inner(2);
      EXPECT_EQ(EffectiveComputeThreads(), 2);
    }
    EXPECT_EQ(EffectiveComputeThreads(), 3);
  }
  EXPECT_EQ(EffectiveComputeThreads(), 1);
  // Requests clamp to [1, kMaxComputeThreads].
  {
    ComputeThreadsScope wild(1 << 20);
    EXPECT_EQ(EffectiveComputeThreads(), kMaxComputeThreads);
  }
  {
    ComputeThreadsScope zero(0);
    EXPECT_EQ(EffectiveComputeThreads(), 1);
  }
  SetGlobalComputeThreads(-5);
  EXPECT_EQ(GlobalComputeThreads(), 1);
  SetGlobalComputeThreads(1);
}

TEST(ParallelForTest, ConcurrentCallersShareThePool) {
  // Two threads issuing ParallelFor at once (the gateway runs one denoise
  // thread per worker): joins must not cross-talk.
  std::atomic<int64_t> total{0};
  auto work = [&] {
    ComputeThreadsScope scope(4);
    for (int rep = 0; rep < 50; ++rep) {
      ParallelFor(1024, 16, [&](int64_t b, int64_t e) {
        total.fetch_add(e - b);
      });
    }
  };
  std::thread t1(work);
  std::thread t2(work);
  t1.join();
  t2.join();
  EXPECT_EQ(total.load(), 2 * 50 * 1024);
}

}  // namespace
}  // namespace flashps
