// Scaled-down diffusion-model substrate with real numerics.
//
// A fixed seeded-random transformer stack denoises a latent over N steps:
//   x_{s+1} = x_s + scale * (f(x_s + temb(s)) - (x_s + temb(s)))
// where f is the block stack. Image editing initializes the unmasked tokens
// from the template's latent and the masked tokens from prompt-conditioned
// noise. A *registration* pass (full compute on the raw template) records
// every block's Y output per step; mask-aware runs replenish unmasked
// activations from that record, exactly as FlashPS's cache engine does.
//
// What this substrate preserves from the paper (see DESIGN.md): the
// approximation error each serving policy introduces relative to exact
// (Diffusers) computation through the same network, which is what Table 2,
// Fig. 6 and Fig. 13 measure.
#ifndef FLASHPS_SRC_MODEL_DIFFUSION_MODEL_H_
#define FLASHPS_SRC_MODEL_DIFFUSION_MODEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/model/record_stream.h"
#include "src/model/timing.h"
#include "src/model/transformer.h"
#include "src/tensor/matrix.h"
#include "src/trace/workload.h"

namespace flashps::model {

struct NumericsConfig {
  int grid_h = 12;
  int grid_w = 12;
  int hidden = 48;
  int num_blocks = 4;
  int num_steps = 8;
  uint64_t weight_seed = 1234;
  float residual_scale = 0.25f;
  float attn_bias_strength = 1.0f;
  int patch = 4;  // Pixels per token side when decoding to an image.

  int tokens() const { return grid_h * grid_w; }
  int image_h() const { return grid_h * patch; }
  int image_w() const { return grid_w * patch; }

  // Small config used by unit tests.
  static NumericsConfig ForTests();
  // Per-model scaled-down configs used by quality benchmarks.
  static NumericsConfig ForModelKind(ModelKind kind);
};

// Per-template activation record: y[step][block] is the Y output over the
// recording model's OWN token count — (grid_h*grid_w x hidden) of the
// NumericsConfig that ran Register(), so records from different-resolution
// models differ in row count and are not interchangeable. K/V are recorded
// only when requested (the Fig. 7 alternative needs them and doubles the
// record size).
//
// A record fetched from the cache tier may be shared while a fetch still
// fills it: `stream` then says how many leading steps are resident, and
// only those may be read. Its `steps` (and each step's y/k/v vectors) are
// sized before it is shared, so their shapes and has_kv() are stable.
struct ActivationRecord {
  std::vector<StepActivations> steps;
  // Null when every step was filled before the record was shared.
  std::shared_ptr<StepStream> stream;

  size_t TotalBytes() const;
  bool has_kv() const {
    return !steps.empty() && !steps.front().k.empty();
  }
  // Leading steps that may be read now.
  int ResidentSteps() const {
    return stream == nullptr ? static_cast<int>(steps.size())
                             : stream->resident();
  }
  bool StreamFailed() const { return stream != nullptr && stream->failed(); }
  // Blocks until every step is resident; false when the stream failed
  // first (then only ResidentSteps() of them may be read).
  bool AwaitWhole() const {
    return stream == nullptr ||
           stream->AwaitResident(static_cast<int>(steps.size()));
  }
};

class DiffusionModel {
 public:
  explicit DiffusionModel(const NumericsConfig& config);

  const NumericsConfig& config() const { return config_; }
  const Matrix& attention_bias() const { return attn_bias_; }
  const BlockWeights& block(int i) const { return blocks_[i]; }

  // Deterministic smooth latent for an image template.
  Matrix EncodeTemplate(int template_id) const;

  // Initial latent for an edit: unmasked rows from the template latent,
  // masked rows from prompt-conditioned noise blended with the template.
  Matrix InitEditLatent(const Matrix& template_latent, const trace::Mask& mask,
                        uint64_t prompt_seed) const;

  // Registration pass: full-compute denoising of the raw template latent,
  // recording per-step per-block activations (the template's cache entry).
  ActivationRecord Register(int template_id, bool record_kv = false) const;

  struct RunOptions {
    ComputeMode mode = ComputeMode::kFull;
    // Required for mask-aware modes; must come from Register() of the same
    // template (with record_kv for kMaskAwareKV).
    const ActivationRecord* cache = nullptr;
    // Required for mask-aware and sparse modes.
    const trace::Mask* mask = nullptr;
    // Per-block cache decisions from the pipeline planner; empty means all
    // blocks use the cache. Ignored outside mask-aware modes.
    std::vector<bool> use_cache_blocks;
    // TeaCache accumulation threshold; larger skips more steps.
    double teacache_threshold = 0.12;
    // Mask-aware modes only: run cached blocks through the gathered-panel
    // sparse compute path, making block compute O(m·L) instead of O(L).
    // Output is bitwise-identical to the dense mask-aware flows. With a
    // K/V record, an all-cache plan and no `record`, every step is one
    // copy-free gathered step — the same step RunStepBatchGathered runs,
    // on a one-member panel: the masked rows flow through the blocks as
    // one panel (GatheredPanelForward), attention reads the cached K/V in
    // place, and one row-wise pass updates the latent from the panel and
    // the last block's cached Y. It copies no cached matrix and builds no
    // full-height activation. Other plans run block by block
    // (BlockForwardMaskedGathered, full-height output) and fall back to
    // the dense path for any block whose input's unmasked rows may have
    // drifted from the registration latent (a preceding full-compute
    // block under a partial `use_cache_blocks` plan) and, in kMaskAwareY
    // mode, whenever the cache record carries no K/V to replenish from —
    // so kMaskAwareY with sparse_compute wants a cache from
    // Register(record_kv=true). Assumes the unmasked rows of the initial
    // latent equal the template's registration latent, which
    // InitEditLatent guarantees.
    bool sparse_compute = false;
    // Optional: record this run's activations (for the Fig. 6 analysis).
    ActivationRecord* record = nullptr;
  };

  struct RunResult {
    Matrix final_latent;
    int computed_steps = 0;
    int skipped_steps = 0;
  };

  RunResult RunDenoise(Matrix latent, const RunOptions& options) const;

  // Incremental denoising for step-level (continuous-batching) engines:
  // advances `latent` through steps [begin_step, end_step). Supports the
  // kFull and mask-aware modes (step-wise engines never use TeaCache's
  // cross-step state or the sparse flow).
  Matrix RunStepRange(Matrix latent, const RunOptions& options,
                      int begin_step, int end_step) const;

  // One request's slice of a cross-request patch-batched step. Members may
  // come from models of DIFFERENT resolutions as long as the models share a
  // weight family (equal weight_seed, hidden, num_blocks — their block
  // weights are then bitwise-identical, because the constructor draws them
  // first from Rng(weight_seed) before any grid-dependent state).
  struct StepBatchMember {
    const DiffusionModel* model = nullptr;
    Matrix* latent = nullptr;  // In/out; advanced by one step.
    const trace::Mask* mask = nullptr;
    // Must carry K/V (Register(record_kv=true)) from `model`'s resolution.
    const ActivationRecord* cache = nullptr;
    int step = 0;
  };

  // Patch-granular hybrid-resolution step: advances every member's latent
  // by its own step, running all members' masked tokens through ONE
  // gathered panel that flows through the whole block stack
  // (GatheredPanelForward), so the token-wise GEMMs batch across requests
  // and resolutions. Attention reads each member's cached K/V in place;
  // the latent update reads the panel and the last block's cached Y. No
  // cached matrix is copied, no non-final Y is read, and nothing
  // full-height is built. A solo RunStepRange(mode=kMaskAwareY,
  // sparse_compute=true, full-cache plan) step is this step on a
  // one-member panel, and each member's latent update is bitwise-identical
  // to it for any batch composition — the property the degenerate-mixture
  // gate asserts. Requires the replenish invariant for every member
  // (all-cache plans only), as solo gathered serving does.
  static void RunStepBatchGathered(const std::vector<StepBatchMember>& members);

  // Convenience: end-to-end edit (init + denoise + decode) for a template.
  Matrix EditImage(int template_id, const trace::Mask& mask,
                   uint64_t prompt_seed, const RunOptions& options) const;

  // Decodes a latent to a grayscale image in [0, 1] of size
  // (grid_h*patch) x (grid_w*patch).
  Matrix DecodeLatent(const Matrix& latent) const;

  // Timestep embedding (1 x hidden) at step s in [0, num_steps); exposed
  // for TeaCache tests. Computed once, at construction.
  Matrix TimestepEmbedding(int step) const;

  // The prompt's target texture: the decode of a latent whose every token is
  // the prompt vector InitEditLatent uses for this seed. The CLIP-proxy
  // metric measures how well the edited region realizes this texture.
  Matrix PromptTexture(uint64_t prompt_seed) const;

 private:
  // `unmasked_pristine` (in/out) tracks the replenish invariant: on entry,
  // whether the unmasked rows of the latent behind `h0` still equal the
  // registration run's latent at this step; on exit, whether they will
  // after the caller applies this epsilon. Gates the gathered sparse path
  // in kMaskAwareY mode (see RunOptions::sparse_compute).
  Matrix StepEpsilon(const Matrix& h0, int step, const RunOptions& options,
                     const std::vector<bool>& use_cache,
                     bool* unmasked_pristine) const;

  // The copy-free gathered step behind RunStepBatchGathered and the
  // all-cache sparse runs (members already checked).
  static void GatheredStep(const std::vector<StepBatchMember>& members);

  NumericsConfig config_;
  std::vector<BlockWeights> blocks_;
  Matrix attn_bias_;
  Matrix temb_;        // num_steps x hidden: timestep embeddings.
  Matrix decode_w_;    // hidden x patch^2 decode projection.
};

}  // namespace flashps::model

#endif  // FLASHPS_SRC_MODEL_DIFFUSION_MODEL_H_
