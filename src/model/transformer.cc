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

// One member's attention inputs for one panel block.
struct PanelAttention {
  const Matrix* bias;
  const std::vector<int>* masked;
  const Matrix* k;
  const Matrix* v;
};

// Row tables and index lists a panel block reuses across members and
// blocks.
struct PanelScratch {
  std::vector<const float*> k_rows;
  std::vector<const float*> v_rows;
  std::vector<int> rows;
};

// One block on a gathered panel: `x` holds the members' masked rows,
// member-major in ascending token order; returns the block's output for
// those rows. Attention reads each member's K and V in place through row
// tables — cached rows for the unmasked tokens, the panel's fresh
// projections for the masked ones — and the q and context rows through
// the GEMM's row hooks.
Matrix PanelBlock(const BlockWeights& w, const Matrix& x,
                  const std::vector<PanelAttention>& members,
                  PanelScratch& s) {
  const int hidden = x.cols();
  const float inv_sqrt_h = 1.0f / std::sqrt(static_cast<float>(hidden));
  const Matrix xn = LayerNorm(x, w.ln1_gamma, w.ln1_beta);
  const Matrix q = MatMul(xn, w.wq);
  const Matrix k = MatMul(xn, w.wk);
  const Matrix v = MatMul(xn, w.wv);
  Matrix ctx(x.rows(), hidden);
  int offset = 0;
  for (const PanelAttention& m : members) {
    const std::vector<int>& masked = *m.masked;
    const int rows = static_cast<int>(masked.size());
    if (rows == 0) {
      continue;
    }
    const int tokens = m.k->rows();
    assert(m.k->cols() == hidden && m.v->rows() == tokens);
    s.k_rows.resize(static_cast<size_t>(tokens));
    s.v_rows.resize(static_cast<size_t>(tokens));
    for (int t = 0; t < tokens; ++t) {
      s.k_rows[static_cast<size_t>(t)] = m.k->row(t);
      s.v_rows[static_cast<size_t>(t)] = m.v->row(t);
    }
    s.rows.resize(static_cast<size_t>(rows));
    for (int r = 0; r < rows; ++r) {
      const int pr = offset + r;
      const size_t token = static_cast<size_t>(masked[static_cast<size_t>(r)]);
      s.rows[static_cast<size_t>(r)] = pr;
      s.k_rows[token] = k.row(pr);
      s.v_rows[token] = v.row(pr);
    }
    Matrix scores(rows, tokens);
    MatMulRowSource(q, &s.rows, {s.k_rows.data(), tokens, hidden},
                    /*transposed=*/true, scores, nullptr);
    ScaleBiasSoftmaxRows(scores, inv_sqrt_h, *m.bias, &masked);
    MatMulRowSource(scores, nullptr, {s.v_rows.data(), tokens, hidden},
                    /*transposed=*/false, ctx, &s.rows);
    offset += rows;
  }
  assert(offset == x.rows());
  return BlockTail(w, x, MatMul(ctx, w.wo));
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
  // LayerNorm is row-wise, so the panel's normalized rows equal the
  // corresponding rows of LayerNorm(x) bit-for-bit.
  PanelScratch scratch;
  const Matrix y_masked =
      PanelBlock(w, GatherRows(x, mask.masked_tokens),
                 {{&attn_bias, &mask.masked_tokens, &cached_k, &cached_v}},
                 scratch);
  Matrix y = cached_y;
  ScatterRows(y, y_masked, mask.masked_tokens);
  return y;
}

void GatheredPanelForward(const std::vector<BlockWeights>& blocks,
                          const std::vector<GatheredPanelMember>& members,
                          Matrix& panel) {
  std::vector<PanelAttention> attention(members.size());
  PanelScratch scratch;
  for (size_t b = 0; b < blocks.size(); ++b) {
    for (size_t i = 0; i < members.size(); ++i) {
      const GatheredPanelMember& m = members[i];
      assert(m.cache != nullptr && m.cache->k.size() == blocks.size());
      attention[i] = {m.attn_bias, &m.mask->masked_tokens, &m.cache->k[b],
                      &m.cache->v[b]};
    }
    panel = PanelBlock(blocks[b], panel, attention, scratch);
  }
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
