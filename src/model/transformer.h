// Transformer-block numerics: real float math for every compute flow in the
// paper's Fig. 5 / Fig. 7. Quality and similarity experiments run on these;
// timing experiments use the analytic accounting in timing.h.
#ifndef FLASHPS_SRC_MODEL_TRANSFORMER_H_
#define FLASHPS_SRC_MODEL_TRANSFORMER_H_

#include <vector>

#include "src/common/rng.h"
#include "src/tensor/matrix.h"
#include "src/trace/workload.h"

namespace flashps::model {

// Weights of one pre-norm transformer block (single attention head; the
// FLOP structure is head-count independent).
struct BlockWeights {
  Matrix wq, wk, wv, wo;           // hidden x hidden
  Matrix w1;                       // hidden x 4*hidden
  Matrix w2;                       // 4*hidden x hidden
  std::vector<float> ln1_gamma, ln1_beta;
  std::vector<float> ln2_gamma, ln2_beta;

  static BlockWeights Random(int hidden, Rng& rng);
};

// Distance-decay additive attention bias over an h x w token grid:
// bias(i, j) = -strength * euclidean_distance(grid(i), grid(j)).
//
// Stands in for the attention locality of trained editing models: the paper
// observes (Fig. 6-Right, and OOTDiffusion reports the same) that masked
// tokens attend mostly to masked tokens and unmasked to unmasked, which is
// what makes cached-activation reuse accurate.
Matrix MakeDistanceBias(int grid_h, int grid_w, float strength);

// Y activations (and optionally K/V) of each block for one denoising step.
struct StepActivations {
  std::vector<Matrix> y;  // Per block: tokens x hidden.
  std::vector<Matrix> k;  // Filled only when K/V recording is on.
  std::vector<Matrix> v;
};

// Compute-cost summary (L = tokens, m = mask ratio; see flops.h for the
// exact Table 1 formulas):
//   BlockForwardFull           O(L)    — every token, every op.
//   BlockForwardMaskedY        O(L)+O(m·L) — the K/V projections and the
//                              first LayerNorm span all L tokens; only
//                              Q/attention/FF are proportional to m.
//   BlockForwardMaskedKV       O(m·L)  — all GEMMs on masked rows, at the
//                              price of a 2x cache record.
//   BlockForwardMaskedGathered O(m·L)  — the sparse compute path: every
//                              GEMM runs on a gathered dense panel of the
//                              masked rows; attention reads the cached K/V
//                              in place, and the output's unmasked rows
//                              are a copy of the cached Y.
//   GatheredPanelForward       O(m·L)  — the same per block with no
//                              full-height copy: the masked-row panel
//                              flows from block to block, and only the
//                              unmasked rows of each cached K/V are read.
//   BlockForwardSparse         O(m·L + m^2·L^2/H·…) — FISEdit: masked rows
//                              only, no global attention context.
// Attention scores are (m·L x L) in every mask-aware flow — masked queries
// attend to ALL tokens — so the attention term is O(m·L·L) throughout.

// Full computation of one block (Fig. 5-Top). If `k_out`/`v_out` are
// non-null, the projected K/V are copied out for KV-cache registration.
Matrix BlockForwardFull(const BlockWeights& w, const Matrix& x,
                        const Matrix& attn_bias, Matrix* k_out = nullptr,
                        Matrix* v_out = nullptr);

// Mask-aware flow with cached Y (Fig. 5-Bottom): K/V are recomputed for all
// tokens from the replenished input, Q/attention/FF run on masked rows only,
// and the unmasked rows of the output are replenished from `cached_y`.
// Compute is O(L): the two K/V projections (4LH^2 FLOPs) dominate at small
// mask ratios. The gathered variant below removes exactly that term.
Matrix BlockForwardMaskedY(const BlockWeights& w, const Matrix& x,
                           const Matrix& attn_bias, const trace::Mask& mask,
                           const Matrix& cached_y);

// Mask-aware flow with cached K/V (Fig. 7 alternative): unmasked K/V rows
// come from the cache instead of being recomputed; everything else runs on
// masked rows only. Output unmasked rows are replenished from `cached_y`.
// Compute is O(m·L).
Matrix BlockForwardMaskedKV(const BlockWeights& w, const Matrix& x,
                            const Matrix& attn_bias, const trace::Mask& mask,
                            const Matrix& cached_y, const Matrix& cached_k,
                            const Matrix& cached_v);

// Gathered-panel sparse compute path for one block with a full-height
// output (SIGE's gather→GEMM→scatter applied to the mask-aware flows): the
// masked rows are gathered into a dense panel, the block runs on it as in
// GatheredPanelForward — K and V read in place from the cache, the masked
// rows' from the panel — and the output is `cached_y` with the fresh
// masked rows written over it. Compute is O(m·L) — proportional to the
// mask ratio. The whole-step path (GatheredPanelForward) never builds the
// full-height output; this form serves the callers that need it: partial
// cache plans, recording, and block-level benches and tests.
//
// Bitwise guarantees (sparse_compute's gate in diffusion_model.cc):
//  - vs BlockForwardMaskedKV: identical for ANY input — it is the same
//    computation with the gather/scatter fused into the GEMMs.
//  - vs BlockForwardMaskedY: identical exactly when the unmasked rows of
//    `x` equal the registration pass's input at this step/block (the
//    "replenish invariant"): then the K/V rows the dense flow recomputes
//    are bit-for-bit the cached registration rows, because LayerNorm is
//    row-wise and the blocked GEMM computes each row independently of the
//    others (see MatMulRows in src/tensor/matrix.h).
Matrix BlockForwardMaskedGathered(const BlockWeights& w, const Matrix& x,
                                  const Matrix& attn_bias,
                                  const trace::Mask& mask,
                                  const Matrix& cached_y,
                                  const Matrix& cached_k,
                                  const Matrix& cached_v);

// One member of a gathered panel: a request whose masked rows fill the
// next |masked_tokens| rows of the panel, in ascending token order.
// Members may differ in grid size — `attn_bias` and the cached K/V are
// per-request shapes — but must share the blocks' hidden width.
struct GatheredPanelMember {
  const Matrix* attn_bias = nullptr;     // tokens_i x tokens_i.
  const trace::Mask* mask = nullptr;     // Ascending masked token list.
  const StepActivations* cache = nullptr;  // This step's K/V-bearing record.
};

// The block stack on a gathered panel of every member's masked rows:
// `panel` enters holding the step input's masked rows (latent + temb) and
// leaves holding the last block's output for those rows. Nothing is
// full-height. Every token-wise op — LayerNorm, the Q/K/V projections, wo,
// the feed-forward — runs once on the whole panel; attention runs per
// member, reading the member's cached K and V of each block in place
// (MatMulRowSource), with the masked tokens' rows taken from the panel's
// fresh projections. So the stack reads only the unmasked rows of the
// cached K and V and no cached Y at all: the masked rows' block inputs
// are in the panel, and the next block needs nothing else.
//
// Each member's rows are bitwise-identical to its rows of the dense
// mask-aware flows, and to those of a panel holding that member alone, at
// any composition: the blocked GEMM computes every output row from its
// own A row alone in a fixed k-blocked order (see MatMulRows in
// src/tensor/matrix.h), a row-source B gives every element the same chain
// as the materialized B, and LayerNorm/GeLU/Add are row- or element-wise.
// With K/V in the record, the unmasked K/V rows the dense kMaskAwareY flow
// recomputes equal the cached ones while the replenish invariant holds
// (see BlockForwardMaskedGathered), which an all-cache plan keeps.
void GatheredPanelForward(const std::vector<BlockWeights>& blocks,
                          const std::vector<GatheredPanelMember>& members,
                          Matrix& panel);

// FISEdit-style sparse flow: input holds masked rows only; attention spans
// only those rows (`masked_bias` is the gathered bias submatrix). No global
// context is available — this is what distorts its outputs.
Matrix BlockForwardSparse(const BlockWeights& w, const Matrix& x_masked,
                          const Matrix& masked_bias);

// Post-softmax attention matrix of a block (for the Fig. 6 analysis).
// Compute is O(L) — it exists for offline analysis, not serving.
Matrix AttentionMatrix(const BlockWeights& w, const Matrix& x,
                       const Matrix& attn_bias);

}  // namespace flashps::model

#endif  // FLASHPS_SRC_MODEL_TRANSFORMER_H_
