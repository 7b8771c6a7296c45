// The gather and scatter GEMMs of the sparse compute path, spelled with
// the one row-hook GEMM entry, MatMulRowSource: A's rows (a_rows) or C's
// rows (out_rows) remapped by a row list, and B read in place through a
// RowSource over its rows.
#ifndef FLASHPS_TESTS_ROW_GEMM_H_
#define FLASHPS_TESTS_ROW_GEMM_H_

#include <vector>

#include "src/tensor/matrix.h"

namespace flashps {

// The row table of `b`, as a RowSource reads it.
inline std::vector<const float*> RowTable(const Matrix& b) {
  std::vector<const float*> rows(static_cast<size_t>(b.rows()));
  for (int r = 0; r < b.rows(); ++r) {
    rows[static_cast<size_t>(r)] = b.row(r);
  }
  return rows;
}

// out.row(i) = a.row(rows[i]) * b, the gathered operand never built.
inline Matrix GatherGemm(const Matrix& a, const Matrix& b,
                         const std::vector<int>& rows) {
  const std::vector<const float*> table = RowTable(b);
  Matrix out(static_cast<int>(rows.size()), b.cols());
  MatMulRowSource(a, &rows, RowSource{table.data(), b.rows(), b.cols()},
                  /*transposed=*/false, out, /*out_rows=*/nullptr);
  return out;
}

// out.row(rows[i]) = panel.row(i) * b; every other row of `out` is left
// as it was.
inline void ScatterGemm(const Matrix& panel, const Matrix& b,
                        const std::vector<int>& rows, Matrix& out) {
  const std::vector<const float*> table = RowTable(b);
  MatMulRowSource(panel, /*a_rows=*/nullptr,
                  RowSource{table.data(), b.rows(), b.cols()},
                  /*transposed=*/false, out, &rows);
}

}  // namespace flashps

#endif  // FLASHPS_TESTS_ROW_GEMM_H_
