// Dense row-major float32 matrix plus the kernel set a transformer block
// needs. Rows are tokens, columns are feature channels — matching the
// (B, H*W, C) layout the paper describes for diffusion transformer inputs
// (§2.1); batching is handled above this layer, so a Matrix is one request's
// token matrix.
#ifndef FLASHPS_SRC_TENSOR_MATRIX_H_
#define FLASHPS_SRC_TENSOR_MATRIX_H_

#include <cassert>
#include <cstddef>
#include <vector>

#include "src/common/rng.h"

namespace flashps {

class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0f) {
    assert(rows >= 0 && cols >= 0);
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(int r, int c) {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float at(int r, int c) const {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float* row(int r) { return data_.data() + static_cast<size_t>(r) * cols_; }
  const float* row(int r) const {
    return data_.data() + static_cast<size_t>(r) * cols_;
  }
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  // Fills with N(0, stddev) values from `rng` (row-major order).
  void FillNormal(Rng& rng, float stddev);
  void FillConstant(float v);

  // Size of the backing store in bytes (used for cache-size accounting).
  size_t bytes() const { return data_.size() * sizeof(float); }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> data_;
};

// The GEMM, softmax, LayerNorm and GELU kernels below are vectorized (the
// GEMM register-blocked at the full vector width of its ISA level) and
// dispatched once per process to the widest ISA level the CPU supports
// (FLASHPS_ISA=generic|v3|v4 pins it; KernelIsa() names it). They split
// work across threads via ParallelFor when the calling thread has a
// compute-thread budget (see src/common/parallel_for.h): the GEMM by row
// tiles and column panels, the row-wise kernels by rows. Every GEMM output
// element runs one fixed chain per 512-deep k-block — acc = 0,
// acc += a[p] * b[p] in p order (fused multiply-adds at v3/v4), c += acc —
// whatever the tiling, so outputs are bitwise-identical at every thread
// count, and every row's result depends only on that row: gathered panels
// match the dense matrix bit for bit. MatMulRowSource remaps A and C rows
// and takes B row by row without changing any element's chain, so
// gathers and scatters fold into the GEMM instead of being copies.
// Against the scalar naive:: reference: the GEMMs differ only by FMA
// contraction, softmax and LayerNorm by their vector exp and lane-blocked
// sums (tests/kernel_equivalence_test.cc states the bounds), and GELU not
// at all. Small inputs take a serial fast path, so tiny mats never pay
// dispatch overhead.

// out = a * b. Shapes: (m,k) x (k,n) -> (m,n).
Matrix MatMul(const Matrix& a, const Matrix& b);

// out = a * b^T. Shapes: (m,k) x (n,k) -> (m,n). This is the QK^T kernel.
Matrix MatMulTransposed(const Matrix& a, const Matrix& b);

// Row-wise softmax in place.
void SoftmaxRows(Matrix& m);

// The attention epilogue in one pass: scores.row(i) becomes
// softmax(scale * scores.row(i) + bias.row(b_i)), where b_i = i, or
// (*bias_rows)[i] when the score rows are a gathered subset of the bias
// rows. Bitwise equal to scaling, adding the bias row and SoftmaxRows as
// three separate passes. bias.cols() == scores.cols().
void ScaleBiasSoftmaxRows(Matrix& scores, float scale, const Matrix& bias,
                          const std::vector<int>* bias_rows);

// Row-wise LayerNorm with per-channel gain/bias. gamma/beta have size cols.
Matrix LayerNorm(const Matrix& x, const std::vector<float>& gamma,
                 const std::vector<float>& beta, float eps = 1e-5f);

// Element-wise GeLU (tanh approximation) in place.
void GeluInPlace(Matrix& m);

// The ISA level the dispatched kernels run at in this process: "generic",
// "v3" or "v4".
const char* KernelIsa();

// out = a + b (same shape).
Matrix Add(const Matrix& a, const Matrix& b);
void AddInPlace(Matrix& a, const Matrix& b);

// y += alpha * x (same shape). The denoise loop's latent update.
void AxpyInPlace(Matrix& y, float alpha, const Matrix& x);

// Gathers the given rows into a new (indices.size(), cols) matrix.
Matrix GatherRows(const Matrix& m, const std::vector<int>& indices);

// Scatters src's rows into dst at the given row indices.
void ScatterRows(Matrix& dst, const Matrix& src, const std::vector<int>& indices);

// A GEMM operand supplied row by row instead of as one matrix: row r is
// the `cols` floats at rows[r]. The rows may live in different matrices —
// the sparse path's K and V are a cached record's rows, with the masked
// tokens' rows taken from the freshly projected panel — and are read
// where they are, never copied into one matrix.
struct RowSource {
  const float* const* rows = nullptr;
  int count = 0;  // Rows.
  int cols = 0;
};

// Row-source GEMM, the SIGE-style sparse compute path's one fused
// gather→GEMM→scatter: out.row(out_rows[i]) = a.row(a_rows[i]) * B for
// every logical row i, where B is `b` (count x n; k = b.count) or, with
// `transposed`, b^T (b is n x k, the QK^T orientation: K^T is packed a
// panel at a time, V is read in place). Null row lists are the identity;
// m = a_rows->size(), or a.rows() without a list. Neither the gathered A
// rows nor B are materialized, so the cost is O(m·k·n): proportional to
// the mask ratio when `a_rows` is a mask's token list. The written rows of
// `out` are zeroed first and no other row is touched, so the caller can
// pre-fill the others with replenished (cached) rows. Every output element
// runs the same chain as MatMul / MatMulTransposed on the materialized
// operands: written row i is bitwise-identical to row a_rows[i] of the
// dense product, whichever other rows are present. `out_rows` must be
// distinct (duplicates would race across row-tile threads).
void MatMulRowSource(const Matrix& a, const std::vector<int>* a_rows,
                     const RowSource& b, bool transposed, Matrix& out,
                     const std::vector<int>* out_rows);

// The denoise step's latent update in one row-wise pass:
//   h0 = x.row(i) + offset;  x.row(i) += alpha * (h_rows[i] - h0)
// with `offset` and every h_rows[i] holding x.cols() floats. Each
// operation rounds on its own (no FMA contraction at any ISA level), so
// the result is bitwise-identical to adding `offset` to a copy of x,
// subtracting that from h, and AxpyInPlace.
void ResidualUpdateRows(Matrix& x, const float* offset,
                        const std::vector<const float*>& h_rows, float alpha);

// One row of some source matrix, for multi-request panel assembly: the
// patch-granular batching path gathers masked rows from SEVERAL requests'
// latents (different Matrix objects, different shapes) into one dense
// panel. Column counts of all referenced matrices must agree.
struct RowRef {
  const Matrix* m = nullptr;
  int row = 0;
};

// Gathers rows[i] = rows[i].m->row(rows[i].row) into a new
// (rows.size(), cols) matrix. The multi-source generalization of
// GatherRows; each referenced matrix must have `cols` columns.
Matrix GatherRowsMulti(const std::vector<RowRef>& rows, int cols);

// Mutable counterpart of RowRef for multi-request scatter-back.
struct RowRefMut {
  Matrix* m = nullptr;
  int row = 0;
};

// Scatters src.row(i) into rows[i].m->row(rows[i].row) for each i. The
// multi-target generalization of ScatterRows: the patch panel's result
// rows return to their owning requests' matrices. Targets must be
// distinct (matrix, row) pairs; each referenced matrix must have
// src.cols() columns.
void ScatterRowsMulti(const Matrix& src, const std::vector<RowRefMut>& rows);

// Cosine similarity of row r1 of a and row r2 of b.
double CosineSimilarity(const Matrix& a, int r1, const Matrix& b, int r2);

// Mean absolute difference across all elements (same shape).
double MeanAbsDiff(const Matrix& a, const Matrix& b);

// Frobenius norm.
double FrobeniusNorm(const Matrix& m);

}  // namespace flashps

#endif  // FLASHPS_SRC_TENSOR_MATRIX_H_
