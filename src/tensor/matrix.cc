#include "src/tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "src/common/parallel_for.h"
#include "src/tensor/fast_exp.h"
#include "src/tensor/fast_tanh.h"

namespace flashps {

void Matrix::FillNormal(Rng& rng, float stddev) {
  for (auto& v : data_) {
    v = static_cast<float>(rng.Normal(0.0, stddev));
  }
}

void Matrix::FillConstant(float v) { std::fill(data_.begin(), data_.end(), v); }

namespace {

// ---------------------------------------------------------------------------
// Blocked GEMM core. MatMul and MatMulTransposed share it: B (or B^T) is
// packed into kNr-wide column panels, and a kMr x kNr register-tiled
// micro-kernel accumulates C over k. The packed inner loop over the panel
// lanes is branch-free with unit stride, which the compiler auto-vectorizes;
// remainder rows/columns fall back to the generic tile. GEMMs with few
// logical rows — the gathered sparse compute path's panels — run the same
// tiling panel-at-a-time instead (see GemmPanelRangeImpl), which skips the
// whole-B pack those few rows cannot amortize without changing a bit of
// the result.
// ---------------------------------------------------------------------------

constexpr int kMr = 4;    // C rows per micro-kernel tile.
constexpr int kNr = 8;    // Panel width (vector lanes of the inner loop).
constexpr int kKc = 512;  // k-block height: one packed panel stays in L1.
// Serial fast path: below this many multiply-adds a fan-out/join costs more
// than the math it parallelizes.
constexpr int64_t kGemmParallelFlops = 1 << 18;
// Serial fast path for row-wise/element-wise kernels, in elements per chunk.
constexpr int64_t kRowwiseGrainElems = 1 << 13;
constexpr int64_t kElemwiseGrainElems = 1 << 15;

int NumPanels(int n) { return (n + kNr - 1) / kNr; }

// Packs one column panel of b[k0:k1) into `dst` (kc * kNr floats): columns
// [panel*kNr, panel*kNr + kNr) in k-major order, zero-padded past n.
void PackOnePanel(const Matrix& b, int k0, int k1, int n, int panel,
                  float* dst) {
  const int kc = k1 - k0;
  const int j0 = panel * kNr;
  const int jw = std::min(kNr, n - j0);
  if (jw < kNr) {
    std::fill(dst, dst + static_cast<size_t>(kc) * kNr, 0.0f);
  }
  for (int p = 0; p < kc; ++p) {
    const float* src = b.row(k0 + p) + j0;
    for (int c = 0; c < jw; ++c) {
      dst[p * kNr + c] = src[c];
    }
  }
}

// Same panel layout, but the packed "columns" are rows of b — packing b^T
// without materializing it. b is (n, k).
void PackOnePanelTransposed(const Matrix& b, int k0, int k1, int n, int panel,
                            float* dst) {
  const int kc = k1 - k0;
  const int j0 = panel * kNr;
  const int jw = std::min(kNr, n - j0);
  if (jw < kNr) {
    std::fill(dst, dst + static_cast<size_t>(kc) * kNr, 0.0f);
  }
  for (int c = 0; c < jw; ++c) {
    const float* src = b.row(j0 + c) + k0;
    for (int p = 0; p < kc; ++p) {
      dst[p * kNr + c] = src[p];
    }
  }
}

// Panels packed per pass over b's rows in the panel-at-a-time path. One
// pass per panel reads just kNr floats of every b row — a large-stride
// walk whose TLB cost repeats for each panel. Packing a group amortizes
// the walk: each row contributes kPanelGroup * kNr sequential floats per
// pass, and the per-panel layout (and thus every packed value) is
// unchanged.
constexpr int kPanelGroup = 8;

// Packs `np` consecutive column panels of row-major b[k0:k1) into `dst`
// (np buffers of kc * kNr floats each, laid out exactly as PackOnePanel
// would produce them) in a single pass over b's rows.
void PackPanelGroup(const Matrix& b, int k0, int k1, int n, int panel0,
                    int np, float* dst) {
  const int kc = k1 - k0;
  const int j0 = panel0 * kNr;
  const int jtotal = std::min(np * kNr, n - j0);
  if (jtotal < np * kNr) {
    std::fill(dst, dst + static_cast<size_t>(np) * kc * kNr, 0.0f);
  }
  for (int p = 0; p < kc; ++p) {
    const float* src = b.row(k0 + p) + j0;
    float* prow = dst + static_cast<size_t>(p) * kNr;
    for (int g = 0; g < np; ++g) {
      const int w = std::min(kNr, jtotal - g * kNr);
      float* d = prow + static_cast<size_t>(g) * kc * kNr;
      for (int c = 0; c < w; ++c) {
        d[c] = src[g * kNr + c];
      }
    }
  }
}

// Packs b[k0:k1) x [0:n) into column panels (see PackOnePanel for the
// layout of each).
void PackPanels(const Matrix& b, int k0, int k1, int n, bool b_transposed,
                std::vector<float>& packed) {
  const int kc = k1 - k0;
  const int panels = NumPanels(n);
  packed.assign(static_cast<size_t>(panels) * kc * kNr, 0.0f);
  for (int panel = 0; panel < panels; ++panel) {
    float* dst = packed.data() + static_cast<size_t>(panel) * kc * kNr;
    if (b_transposed) {
      PackOnePanelTransposed(b, k0, k1, n, panel, dst);
    } else {
      PackOnePanel(b, k0, k1, n, panel, dst);
    }
  }
}

// Forced inlining lets the micro-kernels be re-compiled inside each
// ISA-targeted GemmRowRange wrapper below, so one source vectorizes at
// SSE2, AVX2+FMA, and AVX-512 widths.
#define FLASHPS_ALWAYS_INLINE inline __attribute__((always_inline))

// One panel-width vector lane: the micro-kernel is written directly in GCC
// vector extensions rather than left to the loop auto-vectorizer, whose
// choices at the wider ISA levels (re-vectorizing the tile as spilled
// zmm temporaries) measured slower than its own SSE2 code. The extension
// lowers to whatever the enclosing function's target allows — two xmm
// mul+adds at baseline, one ymm FMA per row at x86-64-v3/v4.
typedef float VecNr __attribute__((vector_size(kNr * sizeof(float))));

// Unaligned vector load/store; the row-wise kernels below reuse them at
// their own width.
template <typename V = VecNr>
FLASHPS_ALWAYS_INLINE V LoadVec(const float* p) {
  V v;
  __builtin_memcpy(&v, p, sizeof(V));
  return v;
}

template <typename V>
FLASHPS_ALWAYS_INLINE void StoreVec(float* p, V v) {
  __builtin_memcpy(p, &v, sizeof(V));
}

// Scalar-vector binop form so the broadcast lowers to one vbroadcastss
// (an explicit lane loop compiles to a vinsertps chain on GCC 12).
FLASHPS_ALWAYS_INLINE VecNr Splat(float s) { return s + VecNr{}; }

// C[rows i0..i0+mr) x [panel columns j0..j0+jw) += A-rows * B-panel.
// The accumulator tile lives in registers across the whole k-block.
// `ldb` is the float stride between consecutive k rows of the panel: kNr
// for a packed panel, b.cols() when the panel is read straight out of a
// row-major B (the panel-at-a-time path below). The loaded lane values and
// the accumulation order are the same either way, so the result bits do
// not depend on which layout fed the kernel.
template <int MR>
FLASHPS_ALWAYS_INLINE void MicroKernel(const float* a_rows[],
                                       const float* panel, int ldb, int kc,
                                       float* c_rows[], int jw) {
  VecNr acc[MR] = {};
  for (int p = 0; p < kc; ++p) {
    const VecNr bp = LoadVec(panel + static_cast<size_t>(p) * ldb);
    for (int r = 0; r < MR; ++r) {
      acc[r] += Splat(a_rows[r][p]) * bp;
    }
  }
  if (jw == kNr) {
    for (int r = 0; r < MR; ++r) {
      StoreVec(c_rows[r], LoadVec(c_rows[r]) + acc[r]);
    }
  } else {
    for (int r = 0; r < MR; ++r) {
      for (int c = 0; c < jw; ++c) {
        c_rows[r][c] += acc[r][c];
      }
    }
  }
}

// Tall row tile for the panel-at-a-time path below: with only a handful of
// logical rows, each packed panel is reused by few tiles, so the tile is
// made twice as tall to halve the panel passes (and the per-k bp loads).
// Row count never changes what a row accumulates — acc[r] depends only on
// its own A row and the panel — so tile height is bitwise-neutral. (A
// 16-row tile measured slower on AVX-512 hosts: the kernel is bound by the
// per-row broadcast loads, which taller tiles do not reduce.)
constexpr int kMrPanel = 2 * kMr;

// Two-panel tile for the panel-at-a-time path: one A broadcast feeds a
// FMA into each of two adjacent packed panels, halving the broadcast
// loads per flop the single-panel kernel is bound by. Needs 2*MR + 2
// live vector registers, so only the AVX-512 instantiation (32 registers)
// uses it. Each accumulator still sums its own A row against its own
// panel lane in the same p order, so pairing is bitwise-neutral.
template <int MR>
FLASHPS_ALWAYS_INLINE void MicroKernelPair(const float* a_rows[],
                                           const float* p0, const float* p1,
                                           int ldb, int kc, float* c_rows0[],
                                           float* c_rows1[]) {
  VecNr acc0[MR] = {};
  VecNr acc1[MR] = {};
  for (int p = 0; p < kc; ++p) {
    const VecNr b0 = LoadVec(p0 + static_cast<size_t>(p) * ldb);
    const VecNr b1 = LoadVec(p1 + static_cast<size_t>(p) * ldb);
    for (int r = 0; r < MR; ++r) {
      const VecNr s = Splat(a_rows[r][p]);
      acc0[r] += s * b0;
      acc1[r] += s * b1;
    }
  }
  for (int r = 0; r < MR; ++r) {
    StoreVec(c_rows0[r], LoadVec(c_rows0[r]) + acc0[r]);
    StoreVec(c_rows1[r], LoadVec(c_rows1[r]) + acc1[r]);
  }
}

// Remainder tile with runtime row count (mr < TM).
template <int TM>
FLASHPS_ALWAYS_INLINE void MicroKernelEdge(int mr, const float* a_rows[],
                                           const float* panel, int ldb, int kc,
                                           float* c_rows[], int jw) {
  VecNr acc[TM] = {};
  for (int p = 0; p < kc; ++p) {
    const VecNr bp = LoadVec(panel + static_cast<size_t>(p) * ldb);
    for (int r = 0; r < mr; ++r) {
      acc[r] += Splat(a_rows[r][p]) * bp;
    }
  }
  for (int r = 0; r < mr; ++r) {
    for (int c = 0; c < jw; ++c) {
      c_rows[r][c] += acc[r][c];
    }
  }
}

// One k-block pass over the row range [i0, i1): row tiles of kMr against
// every packed panel. Ranges from ParallelFor are grain-aligned with grain a
// multiple of kMr, so the tile decomposition — and with it the result bits —
// does not depend on the thread count.
//
// `a_idx`/`c_idx` are the gathered-panel hooks (null = identity): when set,
// logical row i reads a.row(a_idx[i]) and/or writes out.row(c_idx[i]).
// The per-row accumulation order is untouched, so a gathered row is
// bitwise-identical to the same row of the dense all-rows GEMM — the
// property the mask-aware sparse compute path is built on.
FLASHPS_ALWAYS_INLINE void GemmRowRangeImpl(const Matrix& a,
                                            const std::vector<float>& packed,
                                            int k0, int kc, int n, Matrix& out,
                                            const int* a_idx, const int* c_idx,
                                            int64_t i0, int64_t i1) {
  const int panels = NumPanels(n);
  const float* a_rows[kMr];
  float* c_rows[kMr];
  for (int64_t i = i0; i < i1; i += kMr) {
    const int mr = static_cast<int>(std::min<int64_t>(kMr, i1 - i));
    for (int r = 0; r < mr; ++r) {
      const int ar = static_cast<int>(i) + r;
      a_rows[r] = a.row(a_idx == nullptr ? ar : a_idx[ar]) + k0;
    }
    for (int panel = 0; panel < panels; ++panel) {
      const int j0 = panel * kNr;
      const int jw = std::min(kNr, n - j0);
      const float* pp = packed.data() + static_cast<size_t>(panel) * kc * kNr;
      for (int r = 0; r < mr; ++r) {
        const int cr = static_cast<int>(i) + r;
        c_rows[r] = out.row(c_idx == nullptr ? cr : c_idx[cr]) + j0;
      }
      if (mr == kMr) {
        MicroKernel<kMr>(a_rows, pp, kNr, kc, c_rows, jw);
      } else {
        MicroKernelEdge<kMr>(mr, a_rows, pp, kNr, kc, c_rows, jw);
      }
    }
  }
}

// Panel-at-a-time variant for GEMMs with few logical rows (the gathered
// sparse compute path's panels): packing all of B costs O(k·n) writes plus
// a second pass of reads, which only pays for itself when many row tiles
// reuse the packed image. Here the panel loop is outermost; a full-width
// panel of a row-major B needs no packing at all — the micro-kernel reads
// the kNr lanes straight out of B at stride b.cols() — and the remaining
// cases (B^T, or the ragged last panel) pack one small L1-resident buffer,
// use it against every row tile, and discard it. B streams through exactly
// once. The lane values and the per-element accumulation order are
// identical to the all-panels layout above, so results stay
// bitwise-identical to the dense kernel (and to this kernel at any thread
// count: panels write disjoint column ranges and each is computed
// identically wherever it lands).
template <int TM, int NP>
FLASHPS_ALWAYS_INLINE void GemmPanelRangeImpl(
    const Matrix& a, const Matrix& b, bool b_transposed, int k0, int kc, int m,
    int n, Matrix& out, const int* a_idx, const int* c_idx, float* panel_buf,
    int64_t panel0, int64_t panel1) {
  const float* a_rows[TM];
  float* c_rows[TM];
  float* c_rows1[TM];
  int64_t panel = panel0;
  while (panel < panel1) {
    const int j0 = static_cast<int>(panel) * kNr;
    const int jw = std::min(kNr, n - j0);
    int ng = 1;
    const float* pp0;
    int ldb;
    bool packed = false;
    if (!b_transposed && jw == kNr && m <= TM) {
      // One tile pass total: reading the lanes straight out of row-major B
      // beats packing, which would touch the same strided rows and then
      // round-trip them through a buffer for a single consumer.
      pp0 = b.row(k0) + j0;
      ldb = b.cols();
    } else {
      ng = static_cast<int>(std::min<int64_t>(kPanelGroup, panel1 - panel));
      if (b_transposed) {
        // b^T packing already reads b's rows contiguously; pack the group
        // panel by panel into the shared buffer.
        for (int g = 0; g < ng; ++g) {
          PackOnePanelTransposed(b, k0, k0 + kc, n, static_cast<int>(panel) + g,
                                 panel_buf + static_cast<size_t>(g) * kc * kNr);
        }
      } else {
        PackPanelGroup(b, k0, k0 + kc, n, static_cast<int>(panel), ng,
                       panel_buf);
      }
      pp0 = panel_buf;
      ldb = kNr;
      packed = true;
    }
    int g = 0;
    if (NP == 2 && packed) {
      // Packed-panel pairs, both full width: the paired kernel shares each
      // A broadcast between the two panels' FMAs.
      for (; g + 1 < ng && static_cast<int>(panel + g) * kNr + 2 * kNr <= n;
           g += 2) {
        const int gj0 = static_cast<int>(panel + g) * kNr;
        const float* gp0 = panel_buf + static_cast<size_t>(g) * kc * kNr;
        const float* gp1 = gp0 + static_cast<size_t>(kc) * kNr;
        for (int i = 0; i < m; i += TM) {
          const int mr = std::min(TM, m - i);
          for (int r = 0; r < mr; ++r) {
            a_rows[r] = a.row(a_idx == nullptr ? i + r : a_idx[i + r]) + k0;
            c_rows[r] = out.row(c_idx == nullptr ? i + r : c_idx[i + r]) + gj0;
            c_rows1[r] = c_rows[r] + kNr;
          }
          if (mr == TM) {
            MicroKernelPair<TM>(a_rows, gp0, gp1, ldb, kc, c_rows, c_rows1);
          } else {
            MicroKernelEdge<TM>(mr, a_rows, gp0, ldb, kc, c_rows, kNr);
            MicroKernelEdge<TM>(mr, a_rows, gp1, ldb, kc, c_rows1, kNr);
          }
        }
      }
    }
    for (; g < ng; ++g) {
      const int gj0 = static_cast<int>(panel + g) * kNr;
      const int gjw = std::min(kNr, n - gj0);
      const float* pp =
          packed ? panel_buf + static_cast<size_t>(g) * kc * kNr : pp0;
      for (int i = 0; i < m; i += TM) {
        const int mr = std::min(TM, m - i);
        for (int r = 0; r < mr; ++r) {
          a_rows[r] = a.row(a_idx == nullptr ? i + r : a_idx[i + r]) + k0;
          c_rows[r] = out.row(c_idx == nullptr ? i + r : c_idx[i + r]) + gj0;
        }
        if (mr == TM) {
          MicroKernel<TM>(a_rows, pp, ldb, kc, c_rows, gjw);
        } else {
          MicroKernelEdge<TM>(mr, a_rows, pp, ldb, kc, c_rows, gjw);
        }
      }
    }
    panel += ng;
  }
}

// ---------------------------------------------------------------------------
// Row-wise kernels: softmax (optionally fused with the attention epilogue's
// scale and bias-row add), LayerNorm and GELU, written once on 16-lane GCC
// vectors. Like the GEMM they are compiled at every ISA level below, where
// one vector op lowers to four xmm ops (baseline), two ymm ops (x86-64-v3)
// or one zmm op (x86-64-v4).
//
// Bits. Lanes split a row's columns (column j lands in lane j % 16), never
// rows, so a row's result depends only on its own values and width: a
// gathered panel, the dense matrix and any thread split give the same bits.
// A row's ragged tail runs through the same vector code on a padded copy,
// so no element's bits depend on where it sits. The variants are
// compiled without FMA contraction (RowwiseVariants below), so every ISA
// level performs the same IEEE operations: GELU is bitwise equal to
// naive::GeluInPlace, and softmax and LayerNorm differ from naive:: only by
// FastExpNonPositive's <= 1 ULP and their lane-blocked summation order.
// ---------------------------------------------------------------------------

constexpr int kLanes = 16;
typedef float Vec16 __attribute__((vector_size(kLanes * sizeof(float))));

// The n < kLanes floats at p in lanes [0, n), `pad` in the lanes above.
FLASHPS_ALWAYS_INLINE Vec16 LoadTail16(const float* p, int n,
                                       float pad = 0.0f) {
  Vec16 v = pad + Vec16{};
  __builtin_memcpy(&v, p, static_cast<size_t>(n) * sizeof(float));
  return v;
}

FLASHPS_ALWAYS_INLINE void StoreTail16(float* p, Vec16 v, int n) {
  __builtin_memcpy(p, &v, static_cast<size_t>(n) * sizeof(float));
}

// Horizontal reductions run as a fixed pairwise tree — lane l with lane
// l + 8, then l + 4, l + 2, l + 1 — the same order at every ISA level.
// Lanes [W, 2W) of v moved down to [0, W); the lanes above do not matter.
template <int W>
FLASHPS_ALWAYS_INLINE Vec16 LanesFrom(Vec16 v) {
  if constexpr (W == 8) {
    return __builtin_shufflevector(v, v, 8, 9, 10, 11, 12, 13, 14, 15, 8, 9,
                                   10, 11, 12, 13, 14, 15);
  } else if constexpr (W == 4) {
    return __builtin_shufflevector(v, v, 4, 5, 6, 7, 4, 5, 6, 7, 4, 5, 6, 7, 4,
                                   5, 6, 7);
  } else if constexpr (W == 2) {
    return __builtin_shufflevector(v, v, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2,
                                   3, 2, 3);
  } else {
    static_assert(W == 1);
    return __builtin_shufflevector(v, v, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                                   1, 1, 1);
  }
}

FLASHPS_ALWAYS_INLINE float SumLanes(Vec16 v) {
  v += LanesFrom<8>(v);
  v += LanesFrom<4>(v);
  v += LanesFrom<2>(v);
  v += LanesFrom<1>(v);
  return v[0];
}

FLASHPS_ALWAYS_INLINE Vec16 Max16(Vec16 a, Vec16 b) { return b > a ? b : a; }

FLASHPS_ALWAYS_INLINE float MaxLanes(Vec16 v) {
  v = Max16(v, LanesFrom<8>(v));
  v = Max16(v, LanesFrom<4>(v));
  v = Max16(v, LanesFrom<2>(v));
  v = Max16(v, LanesFrom<1>(v));
  return v[0];
}

// Softmax of one row in place. With `bias` set, the row is first replaced
// by row * scale + bias — the attention epilogue, rounded per operation
// exactly as separate scale, bias-add and softmax passes would round it.
FLASHPS_ALWAYS_INLINE void SoftmaxRow(float* row, int cols, float scale,
                                      const float* bias) {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  const int body = cols - cols % kLanes;
  const int tail = cols - body;
  Vec16 vmax = kNegInf + Vec16{};
  for (int j = 0; j < body; j += kLanes) {
    Vec16 v = LoadVec<Vec16>(row + j);
    if (bias != nullptr) {
      v = v * scale + LoadVec<Vec16>(bias + j);
      StoreVec(row + j, v);
    }
    vmax = Max16(vmax, v);
  }
  if (tail > 0) {
    if (bias != nullptr) {
      const Vec16 v = LoadTail16(row + body, tail) * scale +
                      LoadTail16(bias + body, tail);
      StoreTail16(row + body, v, tail);
    }
    // -inf padding: it never wins the max, and its exp adds exactly 0.
    vmax = Max16(vmax, LoadTail16(row + body, tail, kNegInf));
  }
  const float mx = MaxLanes(vmax);
  Vec16 vsum = {};
  for (int j = 0; j < body; j += kLanes) {
    const Vec16 e = FastExpNonPositive(LoadVec<Vec16>(row + j) - mx);
    StoreVec(row + j, e);
    vsum += e;
  }
  if (tail > 0) {
    const Vec16 e =
        FastExpNonPositive(LoadTail16(row + body, tail, kNegInf) - mx);
    StoreTail16(row + body, e, tail);
    vsum += e;
  }
  const float inv = 1.0f / SumLanes(vsum);
  for (int j = 0; j < body; j += kLanes) {
    StoreVec(row + j, LoadVec<Vec16>(row + j) * inv);
  }
  if (tail > 0) {
    StoreTail16(row + body, LoadTail16(row + body, tail) * inv, tail);
  }
}

// Rows [r0, r1) of SoftmaxRows (bias == nullptr) or ScaleBiasSoftmaxRows.
FLASHPS_ALWAYS_INLINE void SoftmaxRowRangeImpl(Matrix& m, float scale,
                                               const Matrix* bias,
                                               const int* bias_rows,
                                               int64_t r0, int64_t r1) {
  for (int64_t i = r0; i < r1; ++i) {
    const int r = static_cast<int>(i);
    const float* b = nullptr;
    if (bias != nullptr) {
      b = bias->row(bias_rows == nullptr ? r : bias_rows[r]);
    }
    SoftmaxRow(m.row(r), m.cols(), scale, b);
  }
}

// Rows [r0, r1) of LayerNorm: mean and variance reduce lane-blocked.
FLASHPS_ALWAYS_INLINE void LayerNormRowRangeImpl(const Matrix& x,
                                                 const float* gamma,
                                                 const float* beta, float eps,
                                                 Matrix& out, int64_t r0,
                                                 int64_t r1) {
  const int c = x.cols();
  const int body = c - c % kLanes;
  const int tail = c - body;
  for (int64_t i = r0; i < r1; ++i) {
    const float* in = x.row(static_cast<int>(i));
    float* o = out.row(static_cast<int>(i));
    Vec16 acc = {};
    for (int j = 0; j < body; j += kLanes) {
      acc += LoadVec<Vec16>(in + j);
    }
    if (tail > 0) {
      acc += LoadTail16(in + body, tail);
    }
    const float mean = SumLanes(acc) / static_cast<float>(c);
    Vec16 sq = {};
    for (int j = 0; j < body; j += kLanes) {
      const Vec16 d = LoadVec<Vec16>(in + j) - mean;
      sq += d * d;
    }
    if (tail > 0) {
      // Padding with the mean makes the padding lanes' deviation exactly 0.
      const Vec16 d = LoadTail16(in + body, tail, mean) - mean;
      sq += d * d;
    }
    const float var = SumLanes(sq) / static_cast<float>(c);
    const float inv_std = 1.0f / std::sqrt(var + eps);
    for (int j = 0; j < body; j += kLanes) {
      const Vec16 d = LoadVec<Vec16>(in + j) - mean;
      StoreVec(o + j, d * inv_std * LoadVec<Vec16>(gamma + j) +
                          LoadVec<Vec16>(beta + j));
    }
    if (tail > 0) {
      StoreTail16(o + body,
                  (LoadTail16(in + body, tail) - mean) * inv_std *
                          LoadTail16(gamma + body, tail) +
                      LoadTail16(beta + body, tail),
                  tail);
    }
  }
}

// GELU (tanh approximation) with naive::GeluInPlace's operation order.
FLASHPS_ALWAYS_INLINE Vec16 Gelu16(Vec16 x) {
  constexpr float kSqrt2OverPi = 0.7978845608f;
  const Vec16 t = FastTanh(kSqrt2OverPi * (x + 0.044715f * x * x * x));
  return 0.5f * x * (1.0f + t);
}

// Elements [b, e) of GeluInPlace.
FLASHPS_ALWAYS_INLINE void GeluRangeImpl(float* data, int64_t b, int64_t e) {
  int64_t i = b;
  for (; i + kLanes <= e; i += kLanes) {
    StoreVec(data + i, Gelu16(LoadVec<Vec16>(data + i)));
  }
  if (i < e) {
    const int n = static_cast<int>(e - i);
    StoreTail16(data + i, Gelu16(LoadTail16(data + i, n)), n);
  }
}

// ---------------------------------------------------------------------------
// Runtime ISA dispatch. The portable build targets baseline x86-64 (SSE2,
// no FMA), which leaves most of a modern core idle; instead of shipping
// per-host binaries, every kernel above is compiled three times — baseline,
// x86-64-v3 (AVX2+FMA), x86-64-v4 (AVX-512) — and one level, the widest the
// CPU reports, is picked once per process for all of them.
// FLASHPS_ISA=generic|v3|v4 pins that level (A/B measurement, and the CI
// leg that runs the kernel suites at every level). Explicit function
// pointers (not ifunc/target_clones) keep sanitizer builds and static init
// simple. The choice is process-wide and thread-count-independent, so the
// bitwise invariance guarantees above are unaffected.
// ---------------------------------------------------------------------------

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define FLASHPS_MULTIVERSION 1
#define FLASHPS_TARGET_V3 __attribute__((target("arch=x86-64-v3")))
#define FLASHPS_TARGET_V4 __attribute__((target("arch=x86-64-v4")))
#define FLASHPS_NO_FP_CONTRACT __attribute__((optimize("fp-contract=off")))
#else
// Elsewhere the v3/v4 variants compile as baseline copies that are never
// selected.
#define FLASHPS_TARGET_V3
#define FLASHPS_TARGET_V4
#define FLASHPS_NO_FP_CONTRACT
#endif

// Kernel `Impl` compiled at each ISA level. The GEMM variants let the
// compiler contract multiply-adds into FMAs at v3/v4.
template <auto Impl>
struct GemmVariants;
template <typename... Args, void (*Impl)(Args...)>
struct GemmVariants<Impl> {
  static void Generic(Args... args) { Impl(args...); }
  FLASHPS_TARGET_V3 static void V3(Args... args) { Impl(args...); }
  FLASHPS_TARGET_V4 static void V4(Args... args) { Impl(args...); }
};

// The row-wise variants round every operation separately, so all three
// levels produce the same bits (see "Row-wise kernels" above). The
// optimize attribute turns contraction off per function, leaving the GEMM
// variants in this file their FMAs.
template <auto Impl>
struct RowwiseVariants;
template <typename... Args, void (*Impl)(Args...)>
struct RowwiseVariants<Impl> {
  FLASHPS_NO_FP_CONTRACT static void Generic(Args... args) { Impl(args...); }
  FLASHPS_NO_FP_CONTRACT FLASHPS_TARGET_V3 static void V3(Args... args) {
    Impl(args...);
  }
  FLASHPS_NO_FP_CONTRACT FLASHPS_TARGET_V4 static void V4(Args... args) {
    Impl(args...);
  }
};

enum class Isa { kGeneric, kV3, kV4 };

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kV4:
      return "v4";
    case Isa::kV3:
      return "v3";
    case Isa::kGeneric:
      break;
  }
  return "generic";
}

Isa ResolveIsa() {
  bool v3 = false;
  bool v4 = false;
#ifdef FLASHPS_MULTIVERSION
  v3 = __builtin_cpu_supports("x86-64-v3");
  v4 = __builtin_cpu_supports("x86-64-v4");
#endif
  const Isa widest = v4 ? Isa::kV4 : (v3 ? Isa::kV3 : Isa::kGeneric);
  const char* pin = std::getenv("FLASHPS_ISA");
  if (pin == nullptr) {
    return widest;
  }
  if (std::strcmp(pin, "generic") == 0) {
    return Isa::kGeneric;
  }
  if (std::strcmp(pin, "v3") == 0 && v3) {
    return Isa::kV3;
  }
  if (std::strcmp(pin, "v4") == 0 && v4) {
    return Isa::kV4;
  }
  std::fprintf(stderr,
               "flashps: FLASHPS_ISA=%s is not generic|v3|v4 or not supported "
               "by this CPU; kernels run at %s\n",
               pin, IsaName(widest));
  return widest;
}

// Every dispatched kernel at the process's ISA level.
struct KernelSet {
  Isa isa;
  void (*gemm_row_range)(const Matrix&, const std::vector<float>&, int, int,
                         int, Matrix&, const int*, const int*, int64_t,
                         int64_t);
  void (*gemm_panel_range)(const Matrix&, const Matrix&, bool, int, int, int,
                           int, Matrix&, const int*, const int*, float*,
                           int64_t, int64_t);
  void (*softmax_row_range)(Matrix&, float, const Matrix*, const int*, int64_t,
                            int64_t);
  void (*layernorm_row_range)(const Matrix&, const float*, const float*, float,
                              Matrix&, int64_t, int64_t);
  void (*gelu_range)(float*, int64_t, int64_t);
};

const KernelSet& Kernels() {
  // The AVX-512 panel kernel pairs panels (MicroKernelPair): it needs the
  // 32 vector registers only v4 has.
  using Gemm = GemmVariants<GemmRowRangeImpl>;
  using Panel1 = GemmVariants<GemmPanelRangeImpl<kMrPanel, 1>>;
  using Panel2 = GemmVariants<GemmPanelRangeImpl<kMrPanel, 2>>;
  using Softmax = RowwiseVariants<SoftmaxRowRangeImpl>;
  using Norm = RowwiseVariants<LayerNormRowRangeImpl>;
  using GeluK = RowwiseVariants<GeluRangeImpl>;
  static const KernelSet kernels = [] {
    const Isa isa = ResolveIsa();
    switch (isa) {
      case Isa::kV4:
        return KernelSet{isa, Gemm::V4, Panel2::V4, Softmax::V4, Norm::V4,
                         GeluK::V4};
      case Isa::kV3:
        return KernelSet{isa, Gemm::V3, Panel1::V3, Softmax::V3, Norm::V3,
                         GeluK::V3};
      case Isa::kGeneric:
        break;
    }
    return KernelSet{isa, Gemm::Generic, Panel1::Generic,
                     Softmax::Generic, Norm::Generic, GeluK::Generic};
  }();
  return kernels;
}

// Below this many logical rows the driver switches to the panel-at-a-time
// kernel: packing all of B costs ~2 extra passes over it plus a packed
// image that blows the cache, which this few row tiles cannot amortize.
// 64 rows is 8 tall tiles — the gathered sparse compute path's panels at
// the mask ratios it serves (m ~= 0.1..0.4) sit below this on every model
// grid in the repo, while the dense flows (full token counts) stay above.
constexpr int kPanelAtATimeMaxRows = 64;

// Shared blocked-GEMM driver. `m` is the logical row count; `a_idx`/`c_idx`
// (null = identity) remap logical rows to `a`/`out` rows, which is how the
// gathered-panel entry points below reuse this core without materializing
// the gathered operand or the scattered result.
void GemmBlockedInto(const Matrix& a, const Matrix& b, bool b_transposed,
                     int m, const int* a_idx, const int* c_idx, Matrix& out) {
  const int k = a.cols();
  const int n = b_transposed ? b.rows() : b.cols();
  if (m == 0 || n == 0 || k == 0) {
    return;
  }
  const KernelSet& kernels = Kernels();
  if (m <= kPanelAtATimeMaxRows) {
    for (int k0 = 0; k0 < k; k0 += kKc) {
      const int kc = std::min(kKc, k - k0);
      // Panels per chunk sized so each chunk carries at least
      // kGemmParallelFlops work, rounded up to the pack-group width so
      // chunks can amortize B's row walk. Panels own disjoint column
      // ranges, so any split is race-free and thread-count-invariant.
      int64_t grain = std::max<int64_t>(
          1, kGemmParallelFlops / (2LL * kc * kNr * m + 1));
      grain = ((grain + kPanelGroup - 1) / kPanelGroup) * kPanelGroup;
      ParallelFor(NumPanels(n), grain, [&](int64_t p0, int64_t p1) {
        // Scratch for one packed panel group, reused across chunks and
        // calls — a per-chunk vector would zero-fill its floats every few
        // panels of work.
        thread_local std::vector<float> panel_buf;
        panel_buf.resize(static_cast<size_t>(kc) * kNr * kPanelGroup);
        kernels.gemm_panel_range(a, b, b_transposed, k0, kc, m, n, out, a_idx,
                                 c_idx, panel_buf.data(), p0, p1);
      });
    }
    return;
  }
  std::vector<float> packed;
  for (int k0 = 0; k0 < k; k0 += kKc) {
    const int kc = std::min(kKc, k - k0);
    PackPanels(b, k0, k0 + kc, n, b_transposed, packed);
    // Rows per chunk sized so each chunk carries at least kGemmParallelFlops
    // work, rounded to the row-tile height for thread-count-invariant tiling.
    int64_t grain =
        std::max<int64_t>(kMr, kGemmParallelFlops / (2LL * kc * n + 1));
    grain = ((grain + kMr - 1) / kMr) * kMr;
    ParallelFor(m, grain, [&](int64_t i0, int64_t i1) {
      kernels.gemm_row_range(a, packed, k0, kc, n, out, a_idx, c_idx, i0, i1);
    });
  }
}

Matrix GemmBlocked(const Matrix& a, const Matrix& b, bool b_transposed) {
  const int n = b_transposed ? b.rows() : b.cols();
  Matrix out(a.rows(), n);
  GemmBlockedInto(a, b, b_transposed, a.rows(), nullptr, nullptr, out);
  return out;
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  return GemmBlocked(a, b, /*b_transposed=*/false);
}

Matrix MatMulTransposed(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  return GemmBlocked(a, b, /*b_transposed=*/true);
}

Matrix MatMulRows(const Matrix& a, const Matrix& b,
                  const std::vector<int>& rows) {
  assert(a.cols() == b.rows());
  Matrix out(static_cast<int>(rows.size()), b.cols());
  GemmBlockedInto(a, b, /*b_transposed=*/false, static_cast<int>(rows.size()),
                  rows.data(), nullptr, out);
  return out;
}

void MatMulScatterRows(const Matrix& a_panel, const Matrix& b,
                       const std::vector<int>& rows, Matrix& out) {
  assert(a_panel.cols() == b.rows());
  assert(static_cast<int>(rows.size()) == a_panel.rows());
  assert(out.cols() == b.cols());
  // The micro-kernel accumulates into C, so the target rows (and only
  // those — the replenished rows around them must survive) start from zero.
  for (const int r : rows) {
    assert(r >= 0 && r < out.rows());
    std::fill(out.row(r), out.row(r) + out.cols(), 0.0f);
  }
  GemmBlockedInto(a_panel, b, /*b_transposed=*/false, a_panel.rows(), nullptr,
                  rows.data(), out);
}

namespace {

// Softmax over every row, each first scaled and biased when `bias` is set.
void SoftmaxRowsDispatch(Matrix& m, float scale, const Matrix* bias,
                         const int* bias_rows) {
  if (m.rows() == 0 || m.cols() == 0) {
    return;
  }
  const auto kernel = Kernels().softmax_row_range;
  const int64_t grain = std::max<int64_t>(1, kRowwiseGrainElems / m.cols());
  ParallelFor(m.rows(), grain, [&](int64_t r0, int64_t r1) {
    kernel(m, scale, bias, bias_rows, r0, r1);
  });
}

}  // namespace

void SoftmaxRows(Matrix& m) { SoftmaxRowsDispatch(m, 1.0f, nullptr, nullptr); }

void ScaleBiasSoftmaxRows(Matrix& scores, float scale, const Matrix& bias,
                          const std::vector<int>* bias_rows) {
  assert(bias.cols() == scores.cols());
  assert(bias_rows == nullptr ||
         static_cast<int>(bias_rows->size()) == scores.rows());
  assert(bias_rows != nullptr || bias.rows() >= scores.rows());
  SoftmaxRowsDispatch(scores, scale, &bias,
                      bias_rows == nullptr ? nullptr : bias_rows->data());
}

Matrix LayerNorm(const Matrix& x, const std::vector<float>& gamma,
                 const std::vector<float>& beta, float eps) {
  assert(static_cast<int>(gamma.size()) == x.cols());
  assert(static_cast<int>(beta.size()) == x.cols());
  Matrix out(x.rows(), x.cols());
  if (x.rows() == 0 || x.cols() == 0) {
    return out;
  }
  const auto kernel = Kernels().layernorm_row_range;
  const int64_t grain = std::max<int64_t>(1, kRowwiseGrainElems / x.cols());
  ParallelFor(x.rows(), grain, [&](int64_t r0, int64_t r1) {
    kernel(x, gamma.data(), beta.data(), eps, out, r0, r1);
  });
  return out;
}

void GeluInPlace(Matrix& m) {
  const auto kernel = Kernels().gelu_range;
  float* data = m.data();
  ParallelFor(static_cast<int64_t>(m.size()), kRowwiseGrainElems,
              [&](int64_t b, int64_t e) { kernel(data, b, e); });
}

const char* KernelIsa() { return IsaName(Kernels().isa); }

Matrix Add(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix out(a.rows(), a.cols());
  for (size_t i = 0; i < a.size(); ++i) {
    out.data()[i] = a.data()[i] + b.data()[i];
  }
  return out;
}

void AddInPlace(Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  for (size_t i = 0; i < a.size(); ++i) {
    a.data()[i] += b.data()[i];
  }
}

void AxpyInPlace(Matrix& y, float alpha, const Matrix& x) {
  assert(y.rows() == x.rows() && y.cols() == x.cols());
  float* yd = y.data();
  const float* xd = x.data();
  ParallelFor(static_cast<int64_t>(y.size()), kElemwiseGrainElems,
              [&](int64_t b, int64_t e) {
                for (int64_t i = b; i < e; ++i) {
                  yd[i] += alpha * xd[i];
                }
              });
}

Matrix GatherRows(const Matrix& m, const std::vector<int>& indices) {
  Matrix out(static_cast<int>(indices.size()), m.cols());
  for (size_t i = 0; i < indices.size(); ++i) {
    const float* src = m.row(indices[i]);
    std::copy(src, src + m.cols(), out.row(static_cast<int>(i)));
  }
  return out;
}

void ScatterRows(Matrix& dst, const Matrix& src, const std::vector<int>& indices) {
  assert(static_cast<int>(indices.size()) == src.rows());
  assert(dst.cols() == src.cols());
  for (size_t i = 0; i < indices.size(); ++i) {
    const float* s = src.row(static_cast<int>(i));
    std::copy(s, s + src.cols(), dst.row(indices[i]));
  }
}

Matrix GatherRowsMulti(const std::vector<RowRef>& rows, int cols) {
  Matrix out(static_cast<int>(rows.size()), cols);
  for (size_t i = 0; i < rows.size(); ++i) {
    assert(rows[i].m != nullptr && rows[i].m->cols() == cols);
    assert(rows[i].row >= 0 && rows[i].row < rows[i].m->rows());
    const float* src = rows[i].m->row(rows[i].row);
    std::copy(src, src + cols, out.row(static_cast<int>(i)));
  }
  return out;
}

void ScatterRowsMulti(const Matrix& src, const std::vector<RowRefMut>& rows) {
  assert(static_cast<int>(rows.size()) == src.rows());
  for (size_t i = 0; i < rows.size(); ++i) {
    assert(rows[i].m != nullptr && rows[i].m->cols() == src.cols());
    assert(rows[i].row >= 0 && rows[i].row < rows[i].m->rows());
    const float* s = src.row(static_cast<int>(i));
    std::copy(s, s + src.cols(), rows[i].m->row(rows[i].row));
  }
}

double CosineSimilarity(const Matrix& a, int r1, const Matrix& b, int r2) {
  assert(a.cols() == b.cols());
  const float* x = a.row(r1);
  const float* y = b.row(r2);
  double dot = 0.0;
  double nx = 0.0;
  double ny = 0.0;
  for (int j = 0; j < a.cols(); ++j) {
    dot += static_cast<double>(x[j]) * y[j];
    nx += static_cast<double>(x[j]) * x[j];
    ny += static_cast<double>(y[j]) * y[j];
  }
  if (nx == 0.0 || ny == 0.0) {
    return 0.0;
  }
  return dot / (std::sqrt(nx) * std::sqrt(ny));
}

double MeanAbsDiff(const Matrix& a, const Matrix& b) {
  assert(a.size() == b.size());
  if (a.size() == 0) {
    return 0.0;
  }
  double total = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    total += std::abs(static_cast<double>(a.data()[i]) - b.data()[i]);
  }
  return total / static_cast<double>(a.size());
}

double FrobeniusNorm(const Matrix& m) {
  double total = 0.0;
  for (size_t i = 0; i < m.size(); ++i) {
    total += static_cast<double>(m.data()[i]) * m.data()[i];
  }
  return std::sqrt(total);
}

}  // namespace flashps
