// Virtual try-on session (the paper's Fig. 1 scenario): one model-photo
// template is edited many times with different garments (prompt seeds) and
// differently shaped garment masks. Serves the session through
// runtime::OnlineServer (real threads, continuous batching, pre/post on
// CPU lanes) twice: on a mask-aware server, which registers the template
// once and reuses its activations for every unmasked token, and on a
// full-compute reference server (Diffusers-equivalent). Every mask-aware
// image must reach SSIM > 0.85 against its reference; exits 1 otherwise.
#include <algorithm>
#include <cstdio>
#include <future>
#include <vector>

#include "src/quality/metrics.h"
#include "src/runtime/online_server.h"
#include "src/trace/workload.h"

namespace {

using namespace flashps;

constexpr double kMinSsim = 0.85;

// Submits the whole session to a fresh server at once and returns the
// responses in request order.
std::vector<runtime::OnlineResponse> Serve(
    const std::vector<runtime::OnlineRequest>& session,
    const model::NumericsConfig& numerics, bool mask_aware) {
  runtime::OnlineServer::Options options;
  options.numerics = numerics;
  options.mask_aware = mask_aware;
  runtime::OnlineServer server(options);
  std::vector<std::future<runtime::OnlineResponse>> futures;
  for (const runtime::OnlineRequest& request : session) {
    futures.push_back(server.Submit(request));
  }
  std::vector<runtime::OnlineResponse> responses;
  for (auto& future : futures) {
    responses.push_back(future.get());
  }
  server.Stop();
  return responses;
}

double MeanTotalMs(const std::vector<runtime::OnlineResponse>& responses) {
  double sum = 0.0;
  for (const runtime::OnlineResponse& r : responses) {
    sum += r.total_ms();
  }
  return sum / static_cast<double>(responses.size());
}

}  // namespace

int main() {
  const model::NumericsConfig numerics =
      model::NumericsConfig::ForModelKind(model::ModelKind::kSdxl);

  // A try-on session: 10 garment edits of the same model photo. Garment
  // masks are irregular blobs over the torso region; VITON-HD-like ratios.
  const int kTemplateId = 3;
  Rng rng(11);
  const trace::MaskRatioDistribution ratios(trace::TraceKind::kVitonHd);
  std::vector<runtime::OnlineRequest> session;
  for (int i = 0; i < 10; ++i) {
    runtime::OnlineRequest request;
    request.template_id = kTemplateId;
    request.mask = trace::GenerateBlobMask(numerics.grid_h, numerics.grid_w,
                                           ratios.Sample(rng), rng);
    request.prompt_seed = 500 + static_cast<uint64_t>(i);  // A new garment.
    session.push_back(std::move(request));
  }

  std::printf("serving %zu try-on edits of template %d...\n", session.size(),
              kTemplateId);
  const auto responses = Serve(session, numerics, /*mask_aware=*/true);
  const auto references = Serve(session, numerics, /*mask_aware=*/false);

  double worst_ssim = 1.0;
  for (size_t i = 0; i < responses.size(); ++i) {
    const double ssim = quality::Ssim(responses[i].image, references[i].image);
    worst_ssim = std::min(worst_ssim, ssim);
    std::printf(
        "edit %2zu: mask %.2f  latency %7.1f ms (queue %6.1f ms)  "
        "SSIM vs exact %.4f\n",
        i, session[i].mask.ratio(), responses[i].total_ms(),
        responses[i].queueing_ms(), ssim);
  }
  std::printf(
      "\nmean latency %.1f ms (full-compute reference: %.1f ms), worst SSIM "
      "%.4f\n",
      MeanTotalMs(responses), MeanTotalMs(references), worst_ssim);

  if (worst_ssim <= kMinSsim) {
    std::printf("FAILED: an edit diverged from exact computation\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
