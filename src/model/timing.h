// Timing-side model descriptions: full-scale dimensions of the three
// evaluated diffusion models and the per-step workload builder that turns a
// batch of mask ratios into per-block compute/load costs for the device
// model. The numerics-side (real math) counterpart lives in
// diffusion_model.h; both share the FLOP formulas in flops.h.
#ifndef FLASHPS_SRC_MODEL_TIMING_H_
#define FLASHPS_SRC_MODEL_TIMING_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/device/device.h"

namespace flashps::model {

// How a serving engine computes a denoising step.
enum class ComputeMode {
  kFull,         // Diffusers baseline: all tokens, no cache.
  kMaskAwareY,   // FlashPS: cached Y activations (Fig. 5-Bottom).
  kMaskAwareKV,  // Ablation: cached K/V (Fig. 7), 2x cache size.
  kSparse,       // FISEdit baseline: masked tokens only, no global context.
  kTeaCache,     // TeaCache baseline: full compute, step skipping.
};

std::string ToString(ComputeMode mode);

enum class ModelKind { kSd21, kSdxl, kFlux };

std::string ToString(ModelKind kind);

// Full-scale dimensions used for FLOP/byte accounting. A "group" is the
// caching granularity: one cached Y per group, covering `layers_per_group`
// real transformer layers (§4.2 caches at transformer-block granularity; we
// let a group stand for several consecutive layers so cache sizes match the
// paper's 2.6 GiB SDXL figure while FLOPs match the 676 TFLOP figure).
// Dimensions of one cached block-group. UNet models attend at several
// latent resolutions; a group carries its own token length and width.
struct GroupDims {
  int tokens = 1024;
  int hidden = 1280;
  double layers = 1.0;
};

struct TimingConfig {
  ModelKind kind = ModelKind::kSdxl;
  std::string name;
  int num_groups = 20;
  int tokens = 1024;
  int hidden = 1280;
  double layers_per_group = 3.5;
  // Optional per-group dimensions for multi-resolution models. When empty,
  // all groups use (tokens, hidden, layers_per_group). The presets use the
  // dominant resolution uniformly (that is where the calibration anchors
  // live); custom configs may mix resolutions freely.
  std::vector<GroupDims> groups;
  int denoise_steps = 50;
  // 2.0 when classifier-free guidance doubles the denoiser work.
  double cfg_factor = 2.0;
  // Share of per-step compute in transformer blocks (maskable); the rest
  // (UNet convs/resnets, or embedders) is always computed in full.
  double transformer_fraction = 0.82;
  int cache_bytes_per_elem = 2;  // fp16 activations
  device::GpuKind gpu = device::GpuKind::kH800;
  // Fixed per-request work outside the denoise loop (VAE encode/decode,
  // text encoding), charged once per request on the compute stream.
  Duration pre_latency = Duration::Millis(120);
  Duration post_latency = Duration::Millis(180);
  // Tokens needed to saturate the GPU's SMs to half efficiency. Models the
  // paper's observation that mask-aware computation under-utilizes SMs at
  // batch size 1 and that batching restores utilization (§6.2, Fig. 14).
  // Calibrated to ~6% of the full token length, which reproduces both the
  // ~1.29x batching gain at batch 4 and TeaCache's edge at batch 1.
  double sm_half_sat_tokens = 45.0;
  // Fixed per-step engine overhead (scheduler sync, launch chains), shared
  // by the whole batch — the residual batching benefit full-compute engines
  // see before plateauing (Fig. 14).
  Duration step_overhead = Duration::Millis(1);
  // kMaskAwareY only: price cached blocks at the gathered-panel sparse
  // compute path's cost (see BlockForwardMaskedGathered) — the O(m·L)
  // FlopsYCacheGatheredBlock with every phase running at the masked-token
  // occupancy, loading 3x the Y-only cache bytes (Y + K + V rows). Must
  // mirror the serving engine's OnlineServer::Options::sparse_compute so
  // routing/admission price steps the way the workers execute them.
  bool sparse_compute = false;
  // kSparse only: throughput of the sparse kernels relative to the dense
  // library, beyond the occupancy loss that sm_half_sat_tokens already
  // charges for their m·L active tokens; kSparse block FLOPs are divided by
  // it. 1.0 is a sparse path built on the dense library's kernels, as this
  // repo's is: BlockForwardSparse and BlockForwardFull run the same
  // full-width GEMM, and bench_kernels' "sparse_kernel_efficiency_measured"
  // (their FLOP/s ratio at m = 0.1 and 0.2) scatters around parity,
  // 0.90-1.06 over three runs on an AVX-512 host. FISEdit-style custom GPU
  // kernels ran well below dense-library rates (§2.4, §6.2); the FISEdit
  // worker sets 0.5.
  double sparse_kernel_efficiency = 1.0;
  // Fraction of the mask-aware token-wise work that pads to the batch's
  // largest masked-token count (ragged batches under static-shape kernels).
  // This is why mixing very different mask ratios in one batch is costly
  // and why the mask-aware scheduler outperforms count-based balancing
  // (§4.4, Fig. 16-Right).
  double ragged_pad_fraction = 0.15;

  // Per-group dimensions after defaulting (size == num_groups or
  // groups.size() when explicitly set).
  std::vector<GroupDims> EffectiveGroups() const;
  // Transformer FLOPs for one full-compute step (all groups, CFG included).
  double TfFlopsPerStepFull() const;
  // Non-maskable FLOPs per step.
  double NonTfFlopsPerStep() const;
  // Stored cache size for one template (all groups x all steps).
  uint64_t TemplateCacheStoreBytes(ComputeMode mode = ComputeMode::kMaskAwareY) const;

  static TimingConfig Get(ModelKind kind);
};

// Per-block-group costs for one denoising step of a *batch* of requests.
struct BlockWork {
  double flops_with_cache = 0.0;     // Summed over the batch.
  double flops_without_cache = 0.0;  // Summed over the batch.
  uint64_t load_bytes = 0;           // Cached activations to gather-load.
  double tokens_with_cache = 0.0;    // Active tokens (for SM utilization).
  double tokens_without_cache = 0.0;
};

struct StepWorkload {
  std::vector<BlockWork> blocks;
  // Non-maskable work executed once per step (before the block pipeline).
  double non_tf_flops = 0.0;
  double non_tf_tokens = 0.0;
};

// Builds the per-step workload for a batch of requests with the given mask
// ratios under `mode`. For kFull/kSparse/kTeaCache, load_bytes is zero and
// with/without-cache costs coincide (no cache decision to make).
StepWorkload BuildStepWorkload(const TimingConfig& config,
                               std::span<const double> mask_ratios,
                               ComputeMode mode);

// SM-utilization-adjusted compute latency: the device's effective rate is
// scaled by u = t / (t + half_sat) where t is the number of active tokens.
Duration UtilizedComputeLatency(const device::DeviceSpec& spec,
                                const TimingConfig& config, double flops,
                                double active_tokens);

// Per-block duration vectors consumed by the pipeline DP (Algorithm 1).
struct StepDurations {
  std::vector<Duration> compute_with_cache;     // C_w^m per block.
  std::vector<Duration> compute_without_cache;  // C_w/o per block.
  std::vector<Duration> load;                   // L^m per block.
  Duration non_tf;                              // Always-computed step work.
};

StepDurations ComputeStepDurations(const TimingConfig& config,
                                   const device::DeviceSpec& spec,
                                   const StepWorkload& workload);

}  // namespace flashps::model

#endif  // FLASHPS_SRC_MODEL_TIMING_H_
