#include "src/tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>
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
// Blocked GEMM core, shared by MatMul, MatMulTransposed, the gathered
// MatMulRows / MatMulScatterRows and the row-source MatMulRowSource. One
// driver and one micro-kernel template serve every ISA level, instantiated
// at that level's full vector width W:
//
//   level     W   panel width 2W   tile height <= MR   accumulators
//   generic   4          8               6              12 xmm
//   v3        8         16               6              12 ymm
//   v4       16         32              12              24 zmm
//
// Within each kKc block of k, column panels are the outer loop and row
// tiles the inner one, so every row tile reuses a panel's k-slab of B
// from cache (from L1 at the serving shapes, k <= 256; a full 512-deep
// slab is 64 KB at v4 and spills out of L1). A full panel of row-major B
// is read in place, at stride b.cols() or through a row-source B's row
// table; only B^T (MatMulTransposed, and a transposed row source) and a
// ragged last panel are packed, one panel at a time, into a small
// thread-local buffer. The m logical rows split into ceil(m / MR) tiles of
// near-equal height (m = 20 runs as 10 + 10 at v4), and each height is its
// own compile-time instantiation, so no tile carries a run-time row count.
//
// Bits. Every output element runs one fixed chain per k-block:
//   acc = +0;  acc += a[p] * b[p] for p in order;  c += acc
// with each multiply-add fused at v3/v4 and rounded twice at generic. The
// tile, panel, lane or thread that computes an element never enters its
// chain, so the result is the same bits for any m, any row subset
// (MatMulRows), any B row source (MatMulRowSource), any tiling and any
// thread count. `c += acc`, not
// `c = acc`: an FMA chain whose products underflow can end at -0, and the
// zeroed output turns that into +0.
// ---------------------------------------------------------------------------

constexpr int kKc = 512;  // k-block height.
// Serial fast path: below this many multiply-adds a fan-out/join costs more
// than the math it parallelizes.
constexpr int64_t kGemmParallelFlops = 1 << 18;
// Serial fast path for row-wise/element-wise kernels, in elements per chunk.
constexpr int64_t kRowwiseGrainElems = 1 << 13;
constexpr int64_t kElemwiseGrainElems = 1 << 15;

// Forced inlining lets every kernel below be re-compiled inside each
// ISA-targeted wrapper (see "Runtime ISA dispatch"), so one source
// vectorizes at SSE2, AVX2+FMA and AVX-512 widths.
#define FLASHPS_ALWAYS_INLINE inline __attribute__((always_inline))

// W floats as one GCC vector. The kernels are written in vector extensions
// rather than intrinsics, so a vector op lowers to whatever the enclosing
// function's target allows.
template <int W>
struct VecOf {
  typedef float type __attribute__((vector_size(W * sizeof(float))));
};
template <int W>
using Vec = typename VecOf<W>::type;

// Unaligned vector load/store.
template <typename V>
FLASHPS_ALWAYS_INLINE V LoadVec(const float* p) {
  V v;
  __builtin_memcpy(&v, p, sizeof(V));
  return v;
}

template <typename V>
FLASHPS_ALWAYS_INLINE void StoreVec(float* p, V v) {
  __builtin_memcpy(p, &v, sizeof(V));
}

// The B panel a micro-tile reads over one k-block: row p at
// bp + p * ldb, with ldb = b.cols() for a panel read in place and 2W for a
// packed one.
struct StridedPanel {
  const float* bp;
  int ldb;
  FLASHPS_ALWAYS_INLINE const float* row(int p) const {
    return bp + static_cast<size_t>(p) * ldb;
  }
};

// A full panel of a row-source B read in place: row p at rows[p] + j0,
// where rows starts at the k-block's first row.
struct RowTablePanel {
  const float* const* rows;
  int j0;
  FLASHPS_ALWAYS_INLINE const float* row(int p) const { return rows[p] + j0; }
};

// C[H rows] x [2W columns] += A[H rows] * B-panel over one k-block. Only
// the first `jw` columns are stored (jw < 2W only for a ragged last panel,
// whose packed lanes past jw are zero).
template <int W, int H, typename Panel>
FLASHPS_ALWAYS_INLINE void MicroTile(const float* const* a_rows,
                                     const Panel& b, int kc,
                                     float* const* c_rows, int jw) {
  using V = Vec<W>;
  V acc0[H] = {};
  V acc1[H] = {};
  for (int p = 0; p < kc; ++p) {
    const float* brow = b.row(p);
    const V b0 = LoadVec<V>(brow);
    const V b1 = LoadVec<V>(brow + W);
#pragma GCC unroll 16
    for (int r = 0; r < H; ++r) {
      // a[p] in every lane. Subtracting +0 is exact for every float (a -0
      // stays -0), so it folds away and the broadcast becomes the FMA's
      // memory operand. Written in place: a helper returning the vector
      // is inlined as a lane-by-lane insert chain.
      const V s = a_rows[r][p] - V{};
      acc0[r] += s * b0;
      acc1[r] += s * b1;
    }
  }
  if (jw == 2 * W) {
#pragma GCC unroll 16
    for (int r = 0; r < H; ++r) {
      StoreVec(c_rows[r], LoadVec<V>(c_rows[r]) + acc0[r]);
      StoreVec(c_rows[r] + W, LoadVec<V>(c_rows[r] + W) + acc1[r]);
    }
  } else {
    for (int r = 0; r < H; ++r) {
      for (int c = 0; c < jw; ++c) {
        c_rows[r][c] += c < W ? acc0[r][c] : acc1[r][c - W];
      }
    }
  }
}

// MicroTile<W, h> for a run-time h in [1, MR]: one instantiation per
// height, picked once per tile.
template <int W, typename Panel, int... H>
FLASHPS_ALWAYS_INLINE void MicroTileOfHeight(int h, const float* const* a_rows,
                                             const Panel& b, int kc,
                                             float* const* c_rows, int jw,
                                             std::integer_sequence<int, H...>) {
  (void)((h == H + 1 &&
          (MicroTile<W, H + 1>(a_rows, b, kc, c_rows, jw), true)) ||
         ...);
}

// One butterfly stage of a W x W in-register transpose: rows x (bit D of
// the row index clear) and y (set) swap bit D of their row index with bit
// D of the column index. Stages for every D < W transpose the block.
template <int W, int D, int... I>
FLASHPS_ALWAYS_INLINE void TransposeStage(Vec<W>& x, Vec<W>& y,
                                          std::integer_sequence<int, I...>) {
  const Vec<W> lo =
      __builtin_shufflevector(x, y, ((I & D) == 0 ? I : W + I - D)...);
  const Vec<W> hi =
      __builtin_shufflevector(x, y, ((I & D) == 0 ? I + D : W + I)...);
  x = lo;
  y = hi;
}

template <int W, int D = W / 2>
FLASHPS_ALWAYS_INLINE void Transpose(Vec<W> (&v)[W]) {
  for (int i = 0; i < W; ++i) {
    if ((i & D) == 0) {
      TransposeStage<W, D>(v[i], v[i + D],
                           std::make_integer_sequence<int, W>{});
    }
  }
  if constexpr (D > 1) {
    Transpose<W, D / 2>(v);
  }
}

// One k-block of a GEMM as (column panel, row tile) tasks, panel-major:
// task t is row tile t % tiles of column panel t / tiles. `a_idx`/`c_idx`
// are the gathered-panel hooks (null = identity): logical row i reads
// a.row(a_idx[i]) and/or writes out.row(c_idx[i]). B is the matrix `b`,
// or with `b_rows` set a row source whose row r is at b_rows[r]; with
// `b_transposed` its rows are the output columns (B^T, n x k).
struct GemmBlock {
  const Matrix* a;
  const Matrix* b;
  const float* const* b_rows;
  bool b_transposed;
  int m;
  int n;
  int k0;
  int kc;
  Matrix* out;
  const int* a_idx;
  const int* c_idx;
  int tiles;

  // Row r of B; kRowSource picks the source at compile time, so the dense
  // GEMMs' packing loops carry no branch for it.
  template <bool kRowSource>
  FLASHPS_ALWAYS_INLINE const float* BRow(int r) const {
    if constexpr (kRowSource) {
      return b_rows[r];
    } else {
      return b->row(r);
    }
  }
};

// Packs panel columns [j0, j0 + jw) of g's B over the k-block's rows into
// `dst` as kc rows of 2W floats, lanes past jw zero. A transposed B's
// panel columns are its rows, moved through W x W in-register transposes.
// Pure data movement: the kernel sees the same lane values as reading the
// panel in place.
template <int W, bool kRowSource>
FLASHPS_ALWAYS_INLINE void PackPanel(const GemmBlock& g, int j0, int jw,
                                     float* dst) {
  constexpr int kNr = 2 * W;
  const int k0 = g.k0;
  const int kc = g.kc;
  if (!g.b_transposed) {
    for (int p = 0; p < kc; ++p) {
      const float* src = g.BRow<kRowSource>(k0 + p) + j0;
      float* d = dst + static_cast<size_t>(p) * kNr;
      std::copy(src, src + jw, d);
      std::fill(d + jw, d + kNr, 0.0f);
    }
    return;
  }
  const int p_body = kc - kc % W;
  for (int c0 = 0; c0 < kNr; c0 += W) {
    const int rows = std::clamp(jw - c0, 0, W);
    int p = 0;
    if (rows == W) {
      for (; p < p_body; p += W) {
        Vec<W> v[W];
        for (int i = 0; i < W; ++i) {
          v[i] = LoadVec<Vec<W>>(g.BRow<kRowSource>(j0 + c0 + i) + k0 + p);
        }
        Transpose<W>(v);
        for (int i = 0; i < W; ++i) {
          StoreVec(dst + static_cast<size_t>(p + i) * kNr + c0, v[i]);
        }
      }
    }
    for (; p < kc; ++p) {
      float* d = dst + static_cast<size_t>(p) * kNr + c0;
      for (int i = 0; i < W; ++i) {
        d[i] = i < rows ? g.BRow<kRowSource>(j0 + c0 + i)[k0 + p] : 0.0f;
      }
    }
  }
}

// Tasks [t0, t1) of `g` at vector width W and tile height <= MR. `buf`
// holds one packed panel (kc * 2W floats). kRowSource selects the
// instantiation for a row-source B, so the dense GEMMs keep their own
// code.
template <int W, int MR, bool kRowSource>
FLASHPS_ALWAYS_INLINE void GemmTasksImpl(const GemmBlock& g, float* buf,
                                         int64_t t0, int64_t t1) {
  constexpr int kNr = 2 * W;
  const int base = g.m / g.tiles;
  const int rem = g.m % g.tiles;
  const float* a_rows[MR];
  float* c_rows[MR];
  int panel = -1;
  StridedPanel strided{nullptr, 0};
  int j0 = 0;
  int jw = 0;
  bool in_place = false;
  for (int64_t t = t0; t < t1; ++t) {
    const int tp = static_cast<int>(t / g.tiles);
    const int tile = static_cast<int>(t % g.tiles);
    if (tp != panel) {
      panel = tp;
      j0 = panel * kNr;
      jw = std::min(kNr, g.n - j0);
      in_place = !g.b_transposed && jw == kNr;
      if (!in_place) {
        PackPanel<W, kRowSource>(g, j0, jw, buf);
        strided = {buf, kNr};
      } else if constexpr (!kRowSource) {
        strided = {g.b->row(g.k0) + j0, g.b->cols()};
      }
    }
    const int h = base + (tile < rem ? 1 : 0);
    const int i0 = tile * base + std::min(tile, rem);
    for (int r = 0; r < h; ++r) {
      const int i = i0 + r;
      a_rows[r] = g.a->row(g.a_idx == nullptr ? i : g.a_idx[i]) + g.k0;
      c_rows[r] = g.out->row(g.c_idx == nullptr ? i : g.c_idx[i]) + j0;
    }
    if constexpr (kRowSource) {
      if (in_place) {
        MicroTileOfHeight<W>(h, a_rows, RowTablePanel{g.b_rows + g.k0, j0},
                             g.kc, c_rows, jw,
                             std::make_integer_sequence<int, MR>{});
        continue;
      }
    }
    MicroTileOfHeight<W>(h, a_rows, strided, g.kc, c_rows, jw,
                         std::make_integer_sequence<int, MR>{});
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
using Vec16 = Vec<kLanes>;

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

// Rows [r0, r1) of ResidualUpdateRows: x += alpha * (h - (x + offset)),
// element-wise, each operation rounded on its own.
FLASHPS_ALWAYS_INLINE void ResidualUpdateRangeImpl(Matrix& x,
                                                   const float* offset,
                                                   const float* const* h_rows,
                                                   float alpha, int64_t r0,
                                                   int64_t r1) {
  const int c = x.cols();
  const int body = c - c % kLanes;
  const int tail = c - body;
  for (int64_t i = r0; i < r1; ++i) {
    float* xr = x.row(static_cast<int>(i));
    const float* h = h_rows[i];
    for (int j = 0; j < body; j += kLanes) {
      const Vec16 xv = LoadVec<Vec16>(xr + j);
      const Vec16 h0 = xv + LoadVec<Vec16>(offset + j);
      StoreVec(xr + j, xv + alpha * (LoadVec<Vec16>(h + j) - h0));
    }
    if (tail > 0) {
      const Vec16 xv = LoadTail16(xr + body, tail);
      const Vec16 h0 = xv + LoadTail16(offset + body, tail);
      StoreTail16(xr + body, xv + alpha * (LoadTail16(h + body, tail) - h0),
                  tail);
    }
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
// compiler contract multiply-adds into FMAs at v3/v4; the generic one
// never does, so it rounds each product and sum (the "Bits" chain) even
// when the build flags enable FMA at baseline. A member is only compiled
// where it is referenced, so each GEMM instantiation below builds only at
// the level whose vector width it was written for.
template <auto Impl>
struct GemmVariants;
template <typename... Args, void (*Impl)(Args...)>
struct GemmVariants<Impl> {
  FLASHPS_NO_FP_CONTRACT static void Generic(Args... args) { Impl(args...); }
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

// The GEMM's vector width W and largest tile height MR at one ISA level
// (the table under "Blocked GEMM core").
struct GemmGeometry {
  int lanes;
  int max_rows;
};
constexpr GemmGeometry kGemmGeneric{4, 6};
constexpr GemmGeometry kGemmV3{8, 6};
constexpr GemmGeometry kGemmV4{16, 12};

template <GemmGeometry G, bool kRowSource = false>
using GemmAt = GemmVariants<GemmTasksImpl<G.lanes, G.max_rows, kRowSource>>;

// Every dispatched kernel at the process's ISA level.
struct KernelSet {
  Isa isa;
  GemmGeometry gemm_geometry;
  void (*gemm_tasks)(const GemmBlock&, float*, int64_t, int64_t);
  void (*gemm_tasks_row_source)(const GemmBlock&, float*, int64_t, int64_t);
  void (*softmax_row_range)(Matrix&, float, const Matrix*, const int*, int64_t,
                            int64_t);
  void (*layernorm_row_range)(const Matrix&, const float*, const float*, float,
                              Matrix&, int64_t, int64_t);
  void (*gelu_range)(float*, int64_t, int64_t);
  void (*residual_update_range)(Matrix&, const float*, const float* const*,
                                float, int64_t, int64_t);
};

const KernelSet& Kernels() {
  using Softmax = RowwiseVariants<SoftmaxRowRangeImpl>;
  using Norm = RowwiseVariants<LayerNormRowRangeImpl>;
  using GeluK = RowwiseVariants<GeluRangeImpl>;
  using Residual = RowwiseVariants<ResidualUpdateRangeImpl>;
  static const KernelSet kernels = [] {
    const Isa isa = ResolveIsa();
    switch (isa) {
      case Isa::kV4:
        return KernelSet{isa,         kGemmV4,
                         GemmAt<kGemmV4>::V4,
                         GemmAt<kGemmV4, true>::V4,
                         Softmax::V4, Norm::V4,
                         GeluK::V4,   Residual::V4};
      case Isa::kV3:
        return KernelSet{isa,         kGemmV3,
                         GemmAt<kGemmV3>::V3,
                         GemmAt<kGemmV3, true>::V3,
                         Softmax::V3, Norm::V3,
                         GeluK::V3,   Residual::V3};
      case Isa::kGeneric:
        break;
    }
    return KernelSet{isa,
                     kGemmGeneric,
                     GemmAt<kGemmGeneric>::Generic,
                     GemmAt<kGemmGeneric, true>::Generic,
                     Softmax::Generic,
                     Norm::Generic,
                     GeluK::Generic,
                     Residual::Generic};
  }();
  return kernels;
}

// B operand of the shared driver: the matrix `m`, or with `rows` set a
// row source (row r at rows[r]); `transposed` reads it as B^T.
struct GemmB {
  const Matrix* m;
  const float* const* rows;
  bool transposed;
  int n;  // Output columns.
};

// Shared blocked-GEMM driver for every m. `m` is the logical row count;
// `a_idx`/`c_idx` (null = identity) remap logical rows to `a`/`out` rows,
// which is how the gathered-panel entry points below reuse this core
// without materializing the gathered operand or the scattered result.
void GemmBlockedInto(const Matrix& a, const GemmB& b, int m, const int* a_idx,
                     const int* c_idx, Matrix& out) {
  const int k = a.cols();
  const int n = b.n;
  if (m == 0 || n == 0 || k == 0) {
    return;
  }
  const KernelSet& kernels = Kernels();
  const auto gemm_tasks = b.rows != nullptr ? kernels.gemm_tasks_row_source
                                            : kernels.gemm_tasks;
  const int nr = 2 * kernels.gemm_geometry.lanes;
  const int mr = kernels.gemm_geometry.max_rows;
  const int tiles = (m + mr - 1) / mr;
  const int64_t tasks = static_cast<int64_t>(tiles) * ((n + nr - 1) / nr);
  for (int k0 = 0; k0 < k; k0 += kKc) {
    const int kc = std::min(kKc, k - k0);
    const GemmBlock block{&a,   b.m,   b.rows, b.transposed, m,     n,
                          k0,   kc,    &out,   a_idx,        c_idx, tiles};
    // Tasks per chunk sized so each chunk carries at least
    // kGemmParallelFlops work. Tasks write disjoint tiles of C, so any
    // split is race-free, and no split changes a bit (see "Bits" above).
    const int64_t task_flops = 2LL * kc * nr * ((m + tiles - 1) / tiles);
    const int64_t grain =
        std::max<int64_t>(1, kGemmParallelFlops / task_flops);
    ParallelFor(tasks, grain, [&](int64_t t0, int64_t t1) {
      // One packed panel, reused across chunks and calls.
      thread_local std::vector<float> panel_buf;
      panel_buf.resize(static_cast<size_t>(kc) * nr);
      gemm_tasks(block, panel_buf.data(), t0, t1);
    });
  }
}

Matrix GemmBlocked(const Matrix& a, const Matrix& b, bool b_transposed) {
  const int n = b_transposed ? b.rows() : b.cols();
  Matrix out(a.rows(), n);
  GemmBlockedInto(a, {&b, nullptr, b_transposed, n}, a.rows(), nullptr,
                  nullptr, out);
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
  GemmBlockedInto(a, {&b, nullptr, false, b.cols()},
                  static_cast<int>(rows.size()), rows.data(), nullptr, out);
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
  GemmBlockedInto(a_panel, {&b, nullptr, false, b.cols()}, a_panel.rows(),
                  nullptr, rows.data(), out);
}

void MatMulRowSource(const Matrix& a, const std::vector<int>* a_rows,
                     const RowSource& b, bool transposed, Matrix& out,
                     const std::vector<int>* out_rows) {
  const int m = a_rows != nullptr ? static_cast<int>(a_rows->size()) : a.rows();
  const int n = transposed ? b.count : b.cols;
  assert(a.cols() == (transposed ? b.cols : b.count));
  assert(out.cols() == n);
  assert(out_rows == nullptr || static_cast<int>(out_rows->size()) == m);
  assert(out_rows != nullptr || out.rows() >= m);
  // Zero the written rows only: C accumulates (see "Bits").
  for (int i = 0; i < m; ++i) {
    const int r = out_rows != nullptr ? (*out_rows)[static_cast<size_t>(i)] : i;
    assert(r >= 0 && r < out.rows());
    std::fill(out.row(r), out.row(r) + n, 0.0f);
  }
  GemmBlockedInto(a, {nullptr, b.rows, transposed, n}, m,
                  a_rows != nullptr ? a_rows->data() : nullptr,
                  out_rows != nullptr ? out_rows->data() : nullptr, out);
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

void ResidualUpdateRows(Matrix& x, const float* offset,
                        const std::vector<const float*>& h_rows, float alpha) {
  assert(static_cast<int>(h_rows.size()) == x.rows());
  if (x.rows() == 0 || x.cols() == 0) {
    return;
  }
  const auto kernel = Kernels().residual_update_range;
  const int64_t grain = std::max<int64_t>(1, kRowwiseGrainElems / x.cols());
  ParallelFor(x.rows(), grain, [&](int64_t r0, int64_t r1) {
    kernel(x, offset, h_rows.data(), alpha, r0, r1);
  });
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
