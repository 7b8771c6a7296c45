#include "src/model/diffusion_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace flashps::model {

NumericsConfig NumericsConfig::ForTests() { return NumericsConfig{}; }

NumericsConfig NumericsConfig::ForModelKind(ModelKind kind) {
  NumericsConfig c;
  // Benchmark-scale configs use stronger attention locality and gentler
  // denoising steps than the unit-test config: this is the regime of
  // trained editing models (paper Fig. 6), where cached-activation reuse is
  // nearly exact (Table 2 reports SSIM up to 0.99).
  c.attn_bias_strength = 1.6f;
  c.residual_scale = 0.2f;
  switch (kind) {
    case ModelKind::kSd21:
      c.grid_h = c.grid_w = 12;
      c.hidden = 48;
      c.num_blocks = 4;
      c.num_steps = 8;
      c.weight_seed = 210;
      break;
    case ModelKind::kSdxl:
      c.grid_h = c.grid_w = 16;
      c.hidden = 64;
      c.num_blocks = 6;
      c.num_steps = 10;
      c.weight_seed = 1024;
      break;
    case ModelKind::kFlux:
      c.grid_h = c.grid_w = 16;
      c.hidden = 64;
      c.num_blocks = 8;
      c.num_steps = 7;
      c.weight_seed = 2024;
      break;
  }
  return c;
}

size_t ActivationRecord::TotalBytes() const {
  size_t total = 0;
  for (const auto& step : steps) {
    for (const auto& m : step.y) {
      total += m.bytes();
    }
    for (const auto& m : step.k) {
      total += m.bytes();
    }
    for (const auto& m : step.v) {
      total += m.bytes();
    }
  }
  return total;
}

DiffusionModel::DiffusionModel(const NumericsConfig& config) : config_(config) {
  Rng rng(config.weight_seed);
  blocks_.reserve(static_cast<size_t>(config.num_blocks));
  for (int i = 0; i < config.num_blocks; ++i) {
    blocks_.push_back(BlockWeights::Random(config.hidden, rng));
  }
  attn_bias_ =
      MakeDistanceBias(config.grid_h, config.grid_w, config.attn_bias_strength);
  Matrix temb_freq(2, config.hidden);
  temb_freq.FillNormal(rng, 1.0f);
  decode_w_ = Matrix(config.hidden, config.patch * config.patch);
  decode_w_.FillNormal(rng, 1.0f / std::sqrt(static_cast<float>(config.hidden)));
  // Cosine sigma schedule: embeddings change fastest near the start/end of
  // the trajectory, which is what gives TeaCache its skippable mid-steps.
  temb_ = Matrix(config.num_steps, config.hidden);
  for (int s = 0; s < config.num_steps; ++s) {
    const double sigma =
        std::cos(0.5 * M_PI * static_cast<double>(s) /
                 static_cast<double>(config.num_steps));
    for (int j = 0; j < config.hidden; ++j) {
      temb_.at(s, j) = 0.3f * static_cast<float>(
                                  std::sin(sigma * 6.0 * temb_freq.at(0, j) +
                                           temb_freq.at(1, j)));
    }
  }
}

Matrix DiffusionModel::EncodeTemplate(int template_id) const {
  // Low-rank smooth field: 4 spatial sinusoid modes x random channel mixes.
  constexpr int kModes = 4;
  Rng rng(0x7E3A14u + static_cast<uint64_t>(template_id) * 0x9E3779B9u);
  Matrix spatial(config_.tokens(), kModes);
  for (int k = 0; k < kModes; ++k) {
    const double fr = rng.Uniform(0.2, 1.2);
    const double fc = rng.Uniform(0.2, 1.2);
    const double phase = rng.Uniform(0.0, 2.0 * M_PI);
    for (int t = 0; t < config_.tokens(); ++t) {
      const int r = t / config_.grid_w;
      const int c = t % config_.grid_w;
      spatial.at(t, k) = static_cast<float>(std::sin(fr * r + fc * c + phase));
    }
  }
  Matrix mix(kModes, config_.hidden);
  mix.FillNormal(rng, 0.7f);
  return MatMul(spatial, mix);
}

Matrix DiffusionModel::InitEditLatent(const Matrix& template_latent,
                                      const trace::Mask& mask,
                                      uint64_t prompt_seed) const {
  assert(template_latent.rows() == config_.tokens());
  Rng rng(prompt_seed);
  Matrix prompt(1, config_.hidden);
  prompt.FillNormal(rng, 0.8f);

  Matrix latent = template_latent;
  for (const int t : mask.masked_tokens) {
    float* row = latent.row(t);
    for (int j = 0; j < config_.hidden; ++j) {
      const float noise = static_cast<float>(rng.Normal(0.0, 0.5));
      row[j] = 0.4f * row[j] + 0.6f * (prompt.at(0, j) + noise);
    }
  }
  return latent;
}

Matrix DiffusionModel::TimestepEmbedding(int step) const {
  assert(step >= 0 && step < config_.num_steps);
  Matrix e(1, config_.hidden);
  std::copy(temb_.row(step), temb_.row(step) + config_.hidden, e.row(0));
  return e;
}

namespace {

void AddRowBroadcast(Matrix& m, const float* row_vec) {
  for (int i = 0; i < m.rows(); ++i) {
    float* r = m.row(i);
    for (int j = 0; j < m.cols(); ++j) {
      r[j] += row_vec[j];
    }
  }
}

// Whether every step of a run takes the copy-free gathered step: a
// mask-aware sparse run on a K/V record whose every block uses the cache
// and that records nothing. Such a plan keeps the replenish invariant
// (see RunOptions::sparse_compute) at every step.
bool CopyFreeSteps(const DiffusionModel::RunOptions& options,
                   const std::vector<bool>& use_cache) {
  const bool mask_aware = options.mode == ComputeMode::kMaskAwareY ||
                          options.mode == ComputeMode::kMaskAwareKV;
  return mask_aware && options.sparse_compute && options.cache != nullptr &&
         options.cache->has_kv() && options.record == nullptr &&
         std::all_of(use_cache.begin(), use_cache.end(),
                     [](bool use) { return use; });
}

double RelChangeL1(const Matrix& a, const Matrix& b) {
  assert(a.size() == b.size());
  double num = 0.0;
  double den = 1e-9;
  for (size_t i = 0; i < a.size(); ++i) {
    num += std::abs(static_cast<double>(a.data()[i]) - b.data()[i]);
    den += std::abs(static_cast<double>(b.data()[i]));
  }
  return num / den;
}

}  // namespace

Matrix DiffusionModel::StepEpsilon(const Matrix& h0, int step,
                                   const RunOptions& options,
                                   const std::vector<bool>& use_cache,
                                   bool* unmasked_pristine) const {
  Matrix h = h0;
  const bool mask_aware = options.mode == ComputeMode::kMaskAwareY ||
                          options.mode == ComputeMode::kMaskAwareKV;
  // Whether the unmasked rows of the current block input still equal the
  // registration run's activations bit-for-bit. A cached block restores
  // the invariant (its output replenishes those rows from the record); a
  // full-computed block breaks it for the next block's input. In
  // kMaskAwareY mode the gathered sparse path reuses the cached K/V rows
  // instead of recomputing them from the input, which is only bitwise-safe
  // while this holds; in kMaskAwareKV mode the dense flow reuses them too,
  // so the gathered path is valid for any input.
  bool block_pristine = *unmasked_pristine;
  for (int b = 0; b < config_.num_blocks; ++b) {
    if (mask_aware && use_cache[b]) {
      const StepActivations& acts = options.cache->steps[step];
      const bool has_kv = !acts.k.empty();
      const bool gathered =
          options.sparse_compute && has_kv &&
          (options.mode == ComputeMode::kMaskAwareKV || block_pristine);
      if (gathered) {
        h = BlockForwardMaskedGathered(blocks_[b], h, attn_bias_,
                                       *options.mask, acts.y[b], acts.k[b],
                                       acts.v[b]);
      } else if (options.mode == ComputeMode::kMaskAwareY) {
        h = BlockForwardMaskedY(blocks_[b], h, attn_bias_, *options.mask,
                                acts.y[b]);
      } else {
        h = BlockForwardMaskedKV(blocks_[b], h, attn_bias_, *options.mask,
                                 acts.y[b], acts.k[b], acts.v[b]);
      }
      block_pristine = true;
    } else {
      h = BlockForwardFull(blocks_[b], h, attn_bias_);
      block_pristine = false;
    }
    if (options.record != nullptr) {
      options.record->steps[step].y[b] = h;
    }
  }
  // latent' = latent + scale * (y_last - h0): its unmasked rows match the
  // registration trajectory only if both the incoming latent did and the
  // last block's output was replenished.
  *unmasked_pristine = *unmasked_pristine && block_pristine;
  Matrix eps = h;
  for (size_t i = 0; i < eps.size(); ++i) {
    eps.data()[i] -= h0.data()[i];
  }
  return eps;
}

DiffusionModel::RunResult DiffusionModel::RunDenoise(
    Matrix latent, const RunOptions& options) const {
  const bool mask_aware = options.mode == ComputeMode::kMaskAwareY ||
                          options.mode == ComputeMode::kMaskAwareKV;
  if (mask_aware) {
    assert(options.cache != nullptr && options.mask != nullptr);
    assert(static_cast<int>(options.cache->steps.size()) == config_.num_steps);
    if (options.mode == ComputeMode::kMaskAwareKV) {
      assert(options.cache->has_kv());
    }
  }
  std::vector<bool> use_cache = options.use_cache_blocks;
  if (use_cache.empty()) {
    use_cache.assign(static_cast<size_t>(config_.num_blocks), true);
  }
  assert(static_cast<int>(use_cache.size()) == config_.num_blocks);
  if (options.record != nullptr) {
    options.record->steps.assign(static_cast<size_t>(config_.num_steps),
                                 StepActivations{});
    for (auto& step : options.record->steps) {
      step.y.assign(static_cast<size_t>(config_.num_blocks), Matrix());
    }
  }

  RunResult result;

  if (options.mode == ComputeMode::kSparse) {
    // FISEdit: only masked rows exist; unmasked rows pass through untouched.
    assert(options.mask != nullptr);
    const Matrix masked_bias_rows =
        GatherRows(attn_bias_, options.mask->masked_tokens);
    Matrix masked_bias(static_cast<int>(options.mask->masked_tokens.size()),
                       static_cast<int>(options.mask->masked_tokens.size()));
    for (int i = 0; i < masked_bias.rows(); ++i) {
      for (int j = 0; j < masked_bias.cols(); ++j) {
        masked_bias.at(i, j) =
            masked_bias_rows.at(i, options.mask->masked_tokens[j]);
      }
    }
    Matrix xm = GatherRows(latent, options.mask->masked_tokens);
    for (int s = 0; s < config_.num_steps; ++s) {
      Matrix h0 = xm;
      AddRowBroadcast(h0, temb_.row(s));
      Matrix h = h0;
      for (int b = 0; b < config_.num_blocks; ++b) {
        h = BlockForwardSparse(blocks_[b], h, masked_bias);
      }
      for (size_t i = 0; i < xm.size(); ++i) {
        xm.data()[i] += config_.residual_scale * (h.data()[i] - h0.data()[i]);
      }
      ++result.computed_steps;
    }
    ScatterRows(latent, xm, options.mask->masked_tokens);
    result.final_latent = std::move(latent);
    return result;
  }

  if (CopyFreeSteps(options, use_cache)) {
    for (int s = 0; s < config_.num_steps; ++s) {
      GatheredStep({{this, &latent, options.mask, options.cache, s}});
      ++result.computed_steps;
    }
    result.final_latent = std::move(latent);
    return result;
  }

  Matrix prev_eps;
  Matrix last_computed_temb;
  double accumulated_change = 0.0;
  // Replenish invariant at entry: InitEditLatent copies the unmasked rows
  // straight from the template latent, which is exactly the latent the
  // registration pass started from — so mask-aware runs begin pristine.
  bool unmasked_pristine = true;
  for (int s = 0; s < config_.num_steps; ++s) {
    const Matrix temb = TimestepEmbedding(s);
    bool skip = false;
    if (options.mode == ComputeMode::kTeaCache && !prev_eps.empty()) {
      accumulated_change += RelChangeL1(temb, last_computed_temb);
      skip = accumulated_change < options.teacache_threshold;
    }
    Matrix eps;
    if (skip) {
      eps = prev_eps;
      ++result.skipped_steps;
    } else {
      Matrix h0 = latent;
      AddRowBroadcast(h0, temb.row(0));
      eps = StepEpsilon(h0, s, options, use_cache, &unmasked_pristine);
      prev_eps = eps;
      last_computed_temb = temb;
      accumulated_change = 0.0;
      ++result.computed_steps;
    }
    AxpyInPlace(latent, config_.residual_scale, eps);
  }
  result.final_latent = std::move(latent);
  return result;
}

Matrix DiffusionModel::RunStepRange(Matrix latent, const RunOptions& options,
                                    int begin_step, int end_step) const {
  assert(options.mode == ComputeMode::kFull ||
         options.mode == ComputeMode::kMaskAwareY ||
         options.mode == ComputeMode::kMaskAwareKV);
  assert(begin_step >= 0 && end_step <= config_.num_steps);
  std::vector<bool> use_cache = options.use_cache_blocks;
  if (use_cache.empty()) {
    use_cache.assign(static_cast<size_t>(config_.num_blocks), true);
  }
  if (CopyFreeSteps(options, use_cache)) {
    for (int s = begin_step; s < end_step; ++s) {
      GatheredStep({{this, &latent, options.mask, options.cache, s}});
    }
    return latent;
  }
  // Chunked engines re-enter mid-trajectory, so the replenish invariant at
  // begin_step holds iff every preceding step replenished the unmasked
  // rows — under a fixed per-block plan, iff every block used the cache.
  // (Conservative: a plan whose last block caches also preserves it, but a
  // dense fallback there only costs speed, never correctness.)
  bool unmasked_pristine =
      std::all_of(use_cache.begin(), use_cache.end(),
                  [](bool use) { return use; });
  for (int s = begin_step; s < end_step; ++s) {
    Matrix h0 = latent;
    AddRowBroadcast(h0, temb_.row(s));
    const Matrix eps = StepEpsilon(h0, s, options, use_cache,
                                   &unmasked_pristine);
    AxpyInPlace(latent, config_.residual_scale, eps);
  }
  return latent;
}

void DiffusionModel::RunStepBatchGathered(
    const std::vector<StepBatchMember>& members) {
  if (members.empty()) {
    return;
  }
  const DiffusionModel& canon = *members.front().model;
  for (const StepBatchMember& m : members) {
    assert(m.model != nullptr && m.latent != nullptr && m.mask != nullptr);
    assert(m.cache != nullptr && m.cache->has_kv());
    assert(m.step >= 0 && m.step < m.model->config_.num_steps);
    // Shared weight family: the batch runs every member through ONE set of
    // block weights, which is only sound when all members' models drew the
    // same blocks.
    assert(m.model->config_.weight_seed == canon.config_.weight_seed);
    assert(m.model->config_.hidden == canon.config_.hidden);
    assert(m.model->config_.num_blocks == canon.config_.num_blocks);
    (void)canon;
  }
  GatheredStep(members);
}

void DiffusionModel::GatheredStep(const std::vector<StepBatchMember>& members) {
  const DiffusionModel& canon = *members.front().model;
  const int hidden = canon.config_.hidden;
  assert(canon.config_.num_blocks > 0);

  // The panel: every member's masked rows of h0 = latent + temb(step),
  // member-major in ascending token order, each under its member's own
  // model (temb depends on the member's step count and schedule).
  int panel_rows = 0;
  for (const StepBatchMember& m : members) {
    panel_rows += static_cast<int>(m.mask->masked_tokens.size());
  }
  Matrix panel(panel_rows, hidden);
  std::vector<GatheredPanelMember> panel_members;
  panel_members.reserve(members.size());
  int pr = 0;
  for (const StepBatchMember& m : members) {
    const float* temb = m.model->temb_.row(m.step);
    for (const int t : m.mask->masked_tokens) {
      const float* latent = m.latent->row(t);
      float* row = panel.row(pr++);
      for (int j = 0; j < hidden; ++j) {
        row[j] = latent[j] + temb[j];
      }
    }
    panel_members.push_back({&m.model->attn_bias_, m.mask,
                             &m.cache->steps[static_cast<size_t>(m.step)]});
  }

  GatheredPanelForward(canon.blocks_, panel_members, panel);

  // latent += scale * (h - h0) in one row-wise pass per member, under the
  // member's own scale: the masked rows' h is in the panel, the unmasked
  // rows' is the last block's cached Y.
  std::vector<const float*> h_rows;
  pr = 0;
  for (const StepBatchMember& m : members) {
    const Matrix& y_last = m.cache->steps[static_cast<size_t>(m.step)].y.back();
    h_rows.resize(static_cast<size_t>(y_last.rows()));
    for (int t = 0; t < y_last.rows(); ++t) {
      h_rows[static_cast<size_t>(t)] = y_last.row(t);
    }
    for (const int t : m.mask->masked_tokens) {
      h_rows[static_cast<size_t>(t)] = panel.row(pr++);
    }
    ResidualUpdateRows(*m.latent, m.model->temb_.row(m.step), h_rows,
                       m.model->config_.residual_scale);
  }
}

ActivationRecord DiffusionModel::Register(int template_id,
                                          bool record_kv) const {
  ActivationRecord record;
  record.steps.assign(static_cast<size_t>(config_.num_steps),
                      StepActivations{});
  for (auto& step : record.steps) {
    step.y.assign(static_cast<size_t>(config_.num_blocks), Matrix());
    if (record_kv) {
      step.k.assign(static_cast<size_t>(config_.num_blocks), Matrix());
      step.v.assign(static_cast<size_t>(config_.num_blocks), Matrix());
    }
  }

  Matrix latent = EncodeTemplate(template_id);
  for (int s = 0; s < config_.num_steps; ++s) {
    Matrix h0 = latent;
    AddRowBroadcast(h0, temb_.row(s));
    Matrix h = h0;
    for (int b = 0; b < config_.num_blocks; ++b) {
      Matrix* k_out = record_kv ? &record.steps[s].k[b] : nullptr;
      Matrix* v_out = record_kv ? &record.steps[s].v[b] : nullptr;
      h = BlockForwardFull(blocks_[b], h, attn_bias_, k_out, v_out);
      record.steps[s].y[b] = h;
    }
    for (size_t i = 0; i < latent.size(); ++i) {
      latent.data()[i] += config_.residual_scale * (h.data()[i] - h0.data()[i]);
    }
  }
  return record;
}

Matrix DiffusionModel::EditImage(int template_id, const trace::Mask& mask,
                                 uint64_t prompt_seed,
                                 const RunOptions& options) const {
  const Matrix tmpl = EncodeTemplate(template_id);
  Matrix latent = InitEditLatent(tmpl, mask, prompt_seed);
  RunResult result = RunDenoise(std::move(latent), options);
  return DecodeLatent(result.final_latent);
}

Matrix DiffusionModel::PromptTexture(uint64_t prompt_seed) const {
  // Matches InitEditLatent's prompt-vector construction.
  Rng rng(prompt_seed);
  Matrix prompt(1, config_.hidden);
  prompt.FillNormal(rng, 0.8f);
  Matrix latent(config_.tokens(), config_.hidden);
  for (int t = 0; t < config_.tokens(); ++t) {
    std::copy(prompt.row(0), prompt.row(0) + config_.hidden, latent.row(t));
  }
  return DecodeLatent(latent);
}

Matrix DiffusionModel::DecodeLatent(const Matrix& latent) const {
  assert(latent.rows() == config_.tokens());
  const int p = config_.patch;
  Matrix image(config_.image_h(), config_.image_w());
  const Matrix patches = MatMul(latent, decode_w_);
  for (int t = 0; t < config_.tokens(); ++t) {
    const int gr = t / config_.grid_w;
    const int gc = t % config_.grid_w;
    for (int pr = 0; pr < p; ++pr) {
      for (int pc = 0; pc < p; ++pc) {
        const float v = patches.at(t, pr * p + pc);
        image.at(gr * p + pr, gc * p + pc) = 0.5f + 0.5f * std::tanh(v);
      }
    }
  }
  return image;
}

}  // namespace flashps::model
