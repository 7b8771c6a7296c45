#include "src/model/transformer.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace flashps::model {

namespace {

// Weight scale ~ 1/sqrt(fan_in) keeps activations O(1) through the stack.
Matrix RandomWeight(int rows, int cols, Rng& rng) {
  Matrix m(rows, cols);
  m.FillNormal(rng, 1.0f / std::sqrt(static_cast<float>(rows)));
  return m;
}

// The token-wise tail of a block given the attention output rows: residual
// add, LayerNorm, feed-forward, residual add.
Matrix BlockTail(const BlockWeights& w, const Matrix& x_rows,
                 const Matrix& attn_out_rows) {
  Matrix x1 = Add(x_rows, attn_out_rows);
  Matrix x1n = LayerNorm(x1, w.ln2_gamma, w.ln2_beta);
  Matrix ff = MatMul(x1n, w.w1);
  GeluInPlace(ff);
  Matrix y = MatMul(ff, w.w2);
  AddInPlace(y, x1);
  return y;
}

}  // namespace

BlockWeights BlockWeights::Random(int hidden, Rng& rng) {
  BlockWeights w;
  w.wq = RandomWeight(hidden, hidden, rng);
  w.wk = RandomWeight(hidden, hidden, rng);
  w.wv = RandomWeight(hidden, hidden, rng);
  w.wo = RandomWeight(hidden, hidden, rng);
  w.w1 = RandomWeight(hidden, 4 * hidden, rng);
  w.w2 = RandomWeight(4 * hidden, hidden, rng);
  w.ln1_gamma.assign(hidden, 1.0f);
  w.ln1_beta.assign(hidden, 0.0f);
  w.ln2_gamma.assign(hidden, 1.0f);
  w.ln2_beta.assign(hidden, 0.0f);
  // Mild per-channel gain diversity so LayerNorm is not an exact identity.
  for (int i = 0; i < hidden; ++i) {
    w.ln1_gamma[i] = 1.0f + 0.1f * static_cast<float>(rng.Normal());
    w.ln2_gamma[i] = 1.0f + 0.1f * static_cast<float>(rng.Normal());
  }
  return w;
}

Matrix MakeDistanceBias(int grid_h, int grid_w, float strength) {
  const int n = grid_h * grid_w;
  Matrix bias(n, n);
  for (int i = 0; i < n; ++i) {
    const int ri = i / grid_w;
    const int ci = i % grid_w;
    for (int j = 0; j < n; ++j) {
      const int rj = j / grid_w;
      const int cj = j % grid_w;
      const float dr = static_cast<float>(ri - rj);
      const float dc = static_cast<float>(ci - cj);
      bias.at(i, j) = -strength * std::sqrt(dr * dr + dc * dc);
    }
  }
  return bias;
}

Matrix BlockForwardFull(const BlockWeights& w, const Matrix& x,
                        const Matrix& attn_bias, Matrix* k_out, Matrix* v_out) {
  const float inv_sqrt_h = 1.0f / std::sqrt(static_cast<float>(x.cols()));
  Matrix xn = LayerNorm(x, w.ln1_gamma, w.ln1_beta);
  Matrix q = MatMul(xn, w.wq);
  Matrix k = MatMul(xn, w.wk);
  Matrix v = MatMul(xn, w.wv);
  Matrix scores = MatMulTransposed(q, k);
  ScaleBiasSoftmaxRows(scores, inv_sqrt_h, attn_bias, nullptr);
  Matrix attn = MatMul(MatMul(scores, v), w.wo);
  // Both projections are dead after `attn`; move them out instead of
  // deep-copying K.
  if (k_out != nullptr) {
    *k_out = std::move(k);
  }
  if (v_out != nullptr) {
    *v_out = std::move(v);
  }
  return BlockTail(w, x, attn);
}

Matrix BlockForwardMaskedY(const BlockWeights& w, const Matrix& x,
                           const Matrix& attn_bias, const trace::Mask& mask,
                           const Matrix& cached_y) {
  assert(cached_y.rows() == x.rows() && cached_y.cols() == x.cols());
  const float inv_sqrt_h = 1.0f / std::sqrt(static_cast<float>(x.cols()));

  // K/V for *all* tokens are recomputed from the replenished input; Q only
  // for the masked tokens (paper Fig. 5-Bottom, Table 1 row QK^T).
  Matrix xn = LayerNorm(x, w.ln1_gamma, w.ln1_beta);
  Matrix k = MatMul(xn, w.wk);
  Matrix v = MatMul(xn, w.wv);
  Matrix xn_masked = GatherRows(xn, mask.masked_tokens);
  Matrix q = MatMul(xn_masked, w.wq);
  Matrix scores = MatMulTransposed(q, k);
  ScaleBiasSoftmaxRows(scores, inv_sqrt_h, attn_bias, &mask.masked_tokens);
  Matrix attn = MatMul(MatMul(scores, v), w.wo);

  Matrix x_masked = GatherRows(x, mask.masked_tokens);
  Matrix y_masked = BlockTail(w, x_masked, attn);

  // Replenish: unmasked rows come from the cache, masked rows are fresh.
  Matrix y = cached_y;
  ScatterRows(y, y_masked, mask.masked_tokens);
  return y;
}

Matrix BlockForwardMaskedKV(const BlockWeights& w, const Matrix& x,
                            const Matrix& attn_bias, const trace::Mask& mask,
                            const Matrix& cached_y, const Matrix& cached_k,
                            const Matrix& cached_v) {
  assert(cached_k.rows() == x.rows() && cached_v.rows() == x.rows());
  const float inv_sqrt_h = 1.0f / std::sqrt(static_cast<float>(x.cols()));

  // Only masked rows are projected; unmasked K/V rows come from the cache.
  Matrix x_masked = GatherRows(x, mask.masked_tokens);
  Matrix xn_masked = LayerNorm(x_masked, w.ln1_gamma, w.ln1_beta);
  Matrix q = MatMul(xn_masked, w.wq);
  Matrix k_masked = MatMul(xn_masked, w.wk);
  Matrix v_masked = MatMul(xn_masked, w.wv);

  Matrix k = cached_k;
  Matrix v = cached_v;
  ScatterRows(k, k_masked, mask.masked_tokens);
  ScatterRows(v, v_masked, mask.masked_tokens);

  Matrix scores = MatMulTransposed(q, k);
  ScaleBiasSoftmaxRows(scores, inv_sqrt_h, attn_bias, &mask.masked_tokens);
  Matrix attn = MatMul(MatMul(scores, v), w.wo);

  Matrix y_masked = BlockTail(w, x_masked, attn);
  Matrix y = cached_y;
  ScatterRows(y, y_masked, mask.masked_tokens);
  return y;
}

Matrix BlockForwardMaskedGathered(const BlockWeights& w, const Matrix& x,
                                  const Matrix& attn_bias,
                                  const trace::Mask& mask,
                                  const Matrix& cached_y,
                                  const Matrix& cached_k,
                                  const Matrix& cached_v) {
  assert(cached_y.rows() == x.rows() && cached_y.cols() == x.cols());
  assert(cached_k.rows() == x.rows() && cached_v.rows() == x.rows());
  const float inv_sqrt_h = 1.0f / std::sqrt(static_cast<float>(x.cols()));

  // Gather: one dense panel of the masked rows; every kernel below runs on
  // it. LayerNorm is row-wise, so the panel's normalized rows equal the
  // corresponding rows of LayerNorm(x) bit-for-bit.
  Matrix x_masked = GatherRows(x, mask.masked_tokens);
  Matrix xn_masked = LayerNorm(x_masked, w.ln1_gamma, w.ln1_beta);
  Matrix q = MatMul(xn_masked, w.wq);

  // Panel GEMM + scatter-back: masked K/V rows are computed on the panel
  // and scattered into a copy of the cached projections, which replenish
  // the unmasked rows the dense flow would recompute.
  Matrix k = cached_k;
  Matrix v = cached_v;
  MatMulScatterRows(xn_masked, w.wk, mask.masked_tokens, k);
  MatMulScatterRows(xn_masked, w.wv, mask.masked_tokens, v);

  Matrix scores = MatMulTransposed(q, k);
  ScaleBiasSoftmaxRows(scores, inv_sqrt_h, attn_bias, &mask.masked_tokens);
  Matrix attn = MatMul(MatMul(scores, v), w.wo);

  Matrix y_masked = BlockTail(w, x_masked, attn);
  Matrix y = cached_y;
  ScatterRows(y, y_masked, mask.masked_tokens);
  return y;
}

void BlockForwardMaskedGatheredBatch(
    const BlockWeights& w, const std::vector<GatheredBatchItem>& items) {
  const int hidden = w.wq.rows();
  const float inv_sqrt_h = 1.0f / std::sqrt(static_cast<float>(hidden));

  // Panel assembly: every item's masked rows, item-major in ascending token
  // order — each item's segment is laid out exactly as its solo gathered
  // panel would be.
  std::vector<RowRef> panel_rows;
  std::vector<size_t> offsets(items.size() + 1, 0);
  for (size_t i = 0; i < items.size(); ++i) {
    const GatheredBatchItem& item = items[i];
    assert(item.x != nullptr && item.x->cols() == hidden);
    assert(item.cached_y != nullptr && item.cached_k != nullptr &&
           item.cached_v != nullptr);
    assert(item.y != nullptr);
    for (const int t : item.mask->masked_tokens) {
      panel_rows.push_back({item.x, t});
    }
    offsets[i + 1] = panel_rows.size();
  }
  Matrix x_panel = GatherRowsMulti(panel_rows, hidden);
  Matrix xn_panel = LayerNorm(x_panel, w.ln1_gamma, w.ln1_beta);

  // Batched token-wise projections: one GEMM each across all requests.
  Matrix q_panel = MatMul(xn_panel, w.wq);
  Matrix k_panel = MatMul(xn_panel, w.wk);
  Matrix v_panel = MatMul(xn_panel, w.wv);

  // Per-item attention: replenish K/V from the item's cache, scatter in the
  // panel's fresh masked rows, score against the item's own bias.
  Matrix ctx_panel(x_panel.rows(), hidden);
  for (size_t i = 0; i < items.size(); ++i) {
    const GatheredBatchItem& item = items[i];
    const int m = static_cast<int>(offsets[i + 1] - offsets[i]);
    if (m == 0) {
      *item.y = *item.cached_y;
      continue;
    }
    Matrix q(m, hidden);
    Matrix k = *item.cached_k;
    Matrix v = *item.cached_v;
    for (int r = 0; r < m; ++r) {
      const int pr = static_cast<int>(offsets[i]) + r;
      const int token = item.mask->masked_tokens[static_cast<size_t>(r)];
      std::copy(q_panel.row(pr), q_panel.row(pr) + hidden, q.row(r));
      std::copy(k_panel.row(pr), k_panel.row(pr) + hidden, k.row(token));
      std::copy(v_panel.row(pr), v_panel.row(pr) + hidden, v.row(token));
    }
    Matrix scores = MatMulTransposed(q, k);
    ScaleBiasSoftmaxRows(scores, inv_sqrt_h, *item.attn_bias,
                         &item.mask->masked_tokens);
    Matrix ctx = MatMul(scores, v);
    for (int r = 0; r < m; ++r) {
      const int pr = static_cast<int>(offsets[i]) + r;
      std::copy(ctx.row(r), ctx.row(r) + hidden, ctx_panel.row(pr));
    }
  }

  // Batched tail: the wo projection and the whole feed-forward run once on
  // the concatenated context rows.
  Matrix attn_panel = MatMul(ctx_panel, w.wo);
  Matrix y_panel = BlockTail(w, x_panel, attn_panel);

  // Scatter back: each item's output is its cached Y with the fresh masked
  // rows written over it.
  std::vector<RowRefMut> out_rows;
  out_rows.reserve(panel_rows.size());
  for (const GatheredBatchItem& item : items) {
    if (item.mask->masked_tokens.empty()) {
      continue;  // Already handled above; y_panel holds no rows for it.
    }
    *item.y = *item.cached_y;
    for (const int t : item.mask->masked_tokens) {
      out_rows.push_back({item.y, t});
    }
  }
  ScatterRowsMulti(y_panel, out_rows);
}

Matrix BlockForwardSparse(const BlockWeights& w, const Matrix& x_masked,
                          const Matrix& masked_bias) {
  const float inv_sqrt_h = 1.0f / std::sqrt(static_cast<float>(x_masked.cols()));
  Matrix xn = LayerNorm(x_masked, w.ln1_gamma, w.ln1_beta);
  Matrix q = MatMul(xn, w.wq);
  Matrix k = MatMul(xn, w.wk);
  Matrix v = MatMul(xn, w.wv);
  Matrix scores = MatMulTransposed(q, k);
  ScaleBiasSoftmaxRows(scores, inv_sqrt_h, masked_bias, nullptr);
  Matrix attn = MatMul(MatMul(scores, v), w.wo);
  return BlockTail(w, x_masked, attn);
}

Matrix AttentionMatrix(const BlockWeights& w, const Matrix& x,
                       const Matrix& attn_bias) {
  const float inv_sqrt_h = 1.0f / std::sqrt(static_cast<float>(x.cols()));
  Matrix xn = LayerNorm(x, w.ln1_gamma, w.ln1_beta);
  Matrix q = MatMul(xn, w.wq);
  Matrix k = MatMul(xn, w.wk);
  Matrix scores = MatMulTransposed(q, k);
  ScaleBiasSoftmaxRows(scores, inv_sqrt_h, attn_bias, nullptr);
  return scores;
}

}  // namespace flashps::model
