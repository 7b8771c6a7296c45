// Reproduces Fig. 15: latency of mask-aware image editing vs mask ratio.
//  Left:  kernel-level latency (attention and linear/feed-forward kernels)
//         under the device model, which should scale linearly with m.
//  Right: image-level latency per model, linear in m, with the paper's
//         speedups at m = 0.2 (1.3x SD2.1, 2.2x SDXL, 1.9x Flux).
//  Measured: real-numerics step latency of the gathered sparse compute
//         path vs the dense mask-aware path on the CPU substrate, with a
//         bitwise-equality gate (non-zero exit on drift).
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/model/diffusion_model.h"
#include "src/model/flops.h"
#include "src/serving/worker.h"
#include "src/trace/workload.h"

namespace flashps {
namespace {

using bench::Fmt;

void KernelLevel() {
  std::printf("\n--- Left: kernel-level latency vs mask ratio (Flux/H800) ---\n");
  const auto config = model::TimingConfig::Get(model::ModelKind::kFlux);
  const auto spec = device::DeviceSpec::Get(config.gpu);
  bench::PrintRow({"m", "attention(ms)", "linear+FF(ms)"});
  std::vector<double> ms;
  std::vector<double> attn_lat;
  std::vector<double> linear_lat;
  for (double m = 0.1; m <= 0.91; m += 0.1) {
    const double attn_flops =
        4.0 * m * config.tokens * config.tokens * config.hidden *
        config.layers_per_group;
    const double linear_flops =
        24.0 * m * config.tokens * config.hidden * config.hidden *
        config.layers_per_group;
    const double active = m * config.tokens;
    const double attn =
        model::UtilizedComputeLatency(spec, config, attn_flops, active)
            .millis();
    const double linear =
        model::UtilizedComputeLatency(spec, config, linear_flops, active)
            .millis();
    bench::PrintRow({Fmt(m, 1), Fmt(attn, 3), Fmt(linear, 3)});
    ms.push_back(m);
    attn_lat.push_back(attn);
    linear_lat.push_back(linear);
  }
  const LinearFit attn_fit = FitLinear(ms, attn_lat);
  const LinearFit lin_fit = FitLinear(ms, linear_lat);
  std::printf("linearity (R^2): attention %.4f, linear/FF %.4f\n", attn_fit.r2,
              lin_fit.r2);
}

void ImageLevel() {
  std::printf("\n--- Right: image-level latency vs mask ratio ---\n");
  bench::PrintRow({"m", "SD2.1(s)", "SDXL(s)", "Flux(s)"});
  std::vector<serving::Worker> workers;
  std::vector<serving::Worker> full_workers;
  for (const model::ModelKind kind :
       {model::ModelKind::kSd21, model::ModelKind::kSdxl,
        model::ModelKind::kFlux}) {
    workers.emplace_back(
        0, serving::EngineConfig::ForSystem(serving::SystemKind::kFlashPS, kind));
    full_workers.emplace_back(
        0,
        serving::EngineConfig::ForSystem(serving::SystemKind::kDiffusers, kind));
  }
  auto image_latency = [](const serving::Worker& w, double m) {
    const auto& mc = w.config().model_config;
    return w.StepLatency({m}).seconds() * mc.denoise_steps +
           mc.pre_latency.seconds() + mc.post_latency.seconds();
  };
  std::vector<double> ms;
  std::vector<std::vector<double>> lat(3);
  for (double m = 0.1; m <= 0.91; m += 0.1) {
    std::vector<std::string> row = {Fmt(m, 1)};
    for (size_t i = 0; i < workers.size(); ++i) {
      const double secs = image_latency(workers[i], m);
      row.push_back(Fmt(secs, 2));
      lat[i].push_back(secs);
    }
    ms.push_back(m);
    bench::PrintRow(row);
  }
  const char* names[] = {"SD2.1", "SDXL", "Flux"};
  for (size_t i = 0; i < workers.size(); ++i) {
    const LinearFit fit = FitLinear(ms, lat[i]);
    const double full = image_latency(full_workers[i], 0.2);
    const double masked = image_latency(workers[i], 0.2);
    std::printf("%s: linearity R^2=%.3f, speedup at m=0.2: %.2fx (paper: "
                "%s)\n",
                names[i], fit.r2, full / masked,
                i == 0 ? "1.3x" : (i == 1 ? "2.2x" : "1.9x"));
  }
}

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

// Real numerics on the CPU substrate: one denoise step, dense mask-aware Y
// path vs the gathered sparse compute path, across mask ratios. The dense
// path recomputes K/V for ALL tokens, so its latency is nearly flat in m;
// the gathered path is O(m·L) in the cached blocks, so its latency grows
// linearly and the speedup concentrates at small m — the same shape as the
// paper's Fig. 15 kernel curves. Outputs are compared bitwise over a full
// denoise in BOTH mask-aware modes first; any drift fails the run.
bool MeasuredStepLevel() {
  std::printf("\n--- Measured: sparse-compute step latency vs mask ratio "
              "(CPU substrate, grid 20, hidden 512) ---\n");
  model::NumericsConfig cfg;
  cfg.grid_h = 20;
  cfg.grid_w = 20;
  cfg.hidden = 512;
  cfg.num_blocks = 2;
  cfg.num_steps = 2;
  const model::DiffusionModel dm(cfg);
  const Matrix tmpl = dm.EncodeTemplate(0);
  const model::ActivationRecord rec = dm.Register(0, /*record_kv=*/true);
  bool ok = true;
  bench::PrintRow({"m", "dense(ms)", "sparse(ms)", "speedup"});
  std::vector<double> ms;
  std::vector<double> sparse_lat;
  for (const double ratio : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    Rng rng(17);
    const trace::Mask mask =
        trace::GenerateBlobMask(cfg.grid_h, cfg.grid_w, ratio, rng);
    const Matrix latent = dm.InitEditLatent(tmpl, mask, 5);
    model::DiffusionModel::RunOptions opts;
    opts.cache = &rec;
    opts.mask = &mask;
    for (const auto mode : {model::ComputeMode::kMaskAwareY,
                            model::ComputeMode::kMaskAwareKV}) {
      opts.mode = mode;
      opts.sparse_compute = false;
      const Matrix dense_out = dm.RunDenoise(latent, opts).final_latent;
      opts.sparse_compute = true;
      if (!BitwiseEqual(dense_out, dm.RunDenoise(latent, opts).final_latent)) {
        std::printf("BITWISE DRIFT: mode %s, m=%.1f\n",
                    mode == model::ComputeMode::kMaskAwareY ? "Y" : "KV",
                    ratio);
        ok = false;
      }
    }
    opts.mode = model::ComputeMode::kMaskAwareY;
    model::DiffusionModel::RunOptions dense_opts = opts;
    dense_opts.sparse_compute = false;
    model::DiffusionModel::RunOptions sparse_opts = opts;
    sparse_opts.sparse_compute = true;
    const auto [dense_ms, sparse_ms] = bench::InterleavedMinMs(
        [&] { dm.RunStepRange(latent, dense_opts, 0, 1); },
        [&] { dm.RunStepRange(latent, sparse_opts, 0, 1); });
    bench::PrintRow({Fmt(ratio, 1), Fmt(dense_ms, 2), Fmt(sparse_ms, 2),
                     Fmt(dense_ms / sparse_ms, 2) + "x"});
    ms.push_back(ratio);
    sparse_lat.push_back(sparse_ms);
  }
  const LinearFit fit = FitLinear(ms, sparse_lat);
  std::printf("sparse step latency linearity in m: R^2=%.3f; bitwise "
              "gathered == dense: %s\n",
              fit.r2, ok ? "yes" : "NO (drift)");
  return ok;
}

}  // namespace
}  // namespace flashps

int main() {
  flashps::bench::PrintHeader(
      "Figure 15: mask-aware editing latency vs mask ratio",
      "kernel- and image-level latencies scale linearly with the mask ratio "
      "(Table 1); m=0.2 speedups 1.3x / 2.2x / 1.9x for SD2.1/SDXL/Flux");
  flashps::KernelLevel();
  flashps::ImageLevel();
  const bool ok = flashps::MeasuredStepLevel();
  return ok ? 0 : 1;
}
