// Real-concurrency gateway SLO comparison (the wall-clock counterpart of
// Fig. 16-Right): all five routing policies dispatch the same skewed-mask
// open-loop arrival trace onto real OnlineServer workers; we report
// per-policy p50/p99 end-to-end latency and SLO attainment.
//
// The trace is deliberately bimodal (mostly small masks with a heavy-mask
// minority), the regime where count-based balancing misplaces the expensive
// requests and the paper's mask-aware Algorithm 2 routing wins. Writes
// BENCH_gateway.json behind the host header every measured artifact
// opens with.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/gateway/gateway.h"

namespace {

using namespace flashps;

constexpr int kWorkers = 2;
constexpr int kCpuLanes = 2;  // Pre/post lanes per worker.
constexpr int kRequests = 48;
constexpr int kSteps = 12;
constexpr uint64_t kMaskSeed = 2024;
// Attainment on one 64-request trace is noisy (one request is ~1.6%);
// aggregate over several independent traces of the same distribution. With
// five traces and the policy order rotated per trace, every policy runs
// exactly once in every position, so slow host phases hit all policies
// evenly and the median discards outlier runs.
constexpr int kSeedCount = 7;

// Optional hybrid-resolution replay (--resolutions=HxW:weight,...): grids
// the trace mixes in besides the native one. Empty = the seed's
// single-resolution bench, byte for byte.
std::vector<trace::ResolutionWeight> g_mixture;

// --smoke (check.sh --bench-smoke) shrinks the replay to one short trace:
// it exercises the whole path — calibration, every policy, the JSON dump —
// without the minutes-long steady-state measurement, so its numbers are
// not meaningful.
int g_requests = kRequests;
int g_seed_count = kSeedCount;

gateway::GatewayOptions BaseOptions() {
  gateway::GatewayOptions options;
  options.num_workers = kWorkers;
  options.worker.numerics = model::NumericsConfig::ForTests();
  options.worker.numerics.num_steps = kSteps;
  options.worker.max_batch = 3;
  options.worker.cpu_lanes = kCpuLanes;
  // Rank policies on the same offered load: track SLO attainment but do not
  // reject up front, so every policy serves the identical request set.
  options.admission_control = false;
  for (const auto& rw : g_mixture) {
    if (rw.grid_h != options.worker.numerics.grid_h ||
        rw.grid_w != options.worker.numerics.grid_w) {
      options.worker.extra_resolutions.emplace_back(rw.grid_h, rw.grid_w);
    }
  }
  if (!options.worker.extra_resolutions.empty()) {
    // Hybrid serving batches cross-resolution steps through the gathered
    // panel, which needs the sparse path.
    options.worker.sparse_compute = true;
  }
  return options;
}

// Stamps each request's grid from the mixture, deterministically per trace.
void StampResolutions(std::vector<trace::Request>& requests, uint64_t seed) {
  if (g_mixture.empty()) {
    return;
  }
  double total = 0.0;
  for (const auto& rw : g_mixture) {
    total += rw.weight;
  }
  Rng rng(seed ^ 0x5eed);
  for (auto& r : requests) {
    double u = rng.NextDouble() * total;
    const trace::ResolutionWeight* pick = &g_mixture.back();
    for (const auto& rw : g_mixture) {
      if (u < rw.weight) {
        pick = &rw;
        break;
      }
      u -= rw.weight;
    }
    r.grid_h = pick->grid_h;
    r.grid_w = pick->grid_w;
  }
}

// Bimodal skewed-mask trace: 80% light edits (ratio ~0.03-0.08), 20% heavy
// edits (ratio ~0.8-0.95), Poisson arrivals at `rps`. The wide cost gap
// (roughly 8x per step) is the regime where balancing request *counts*
// leaves large work imbalances whenever the heavy minority clusters by
// chance, while mask-aware routing balances estimated work exactly.
std::vector<trace::Request> SkewedTrace(double rps, uint64_t seed) {
  Rng rng(seed);
  trace::PoissonArrivals arrivals(rps, rng.Split());
  std::vector<trace::Request> requests;
  requests.reserve(g_requests);
  for (int i = 0; i < g_requests; ++i) {
    trace::Request r;
    r.id = static_cast<uint64_t>(i);
    r.arrival = arrivals.Next();
    r.template_id = static_cast<int>(rng.NextBelow(3));
    r.mask_ratio = (rng.NextDouble() < 0.8) ? rng.Uniform(0.03, 0.08)
                                            : rng.Uniform(0.8, 0.95);
    r.denoise_steps = kSteps;
    requests.push_back(r);
  }
  return requests;
}

struct HostCalibration {
  double solo_ms = 0.0;          // Mean unloaded end-to-end latency (r=0.3).
  double fixed_ms = 0.0;         // Non-denoise overhead (pre/post/dispatch).
  double mean_denoise_ms = 0.0;  // Expected per-request denoise cost of the
                                 // trace mix, from the profiled regression.
  // Mixture-weighted pre/post cost: the CPU-lane work per request. The
  // non-denoise overhead scales with the image (latent preparation and
  // decoding touch every token), so mixed-resolution replay must budget
  // the lanes too, not just the denoise thread.
  double mean_pre_post_ms = 0.0;
  // Measured per-grid non-denoise overhead (mixture replay only).
  std::vector<std::pair<std::pair<int, int>, double>> fixed_by_grid;
  sched::LatencyModel model;     // Wall-clock-profiled step-cost regression.

  double FixedMsFor(const trace::Request& r) const {
    for (const auto& [grid, ms] : fixed_by_grid) {
      if (grid.first == r.grid_h && grid.second == r.grid_w) {
        return ms;
      }
    }
    return fixed_ms;
  }

  // Estimated unloaded end-to-end latency for one request of `ratio` — the
  // basis for slowdown-normalized per-request SLOs.
  double SoloMs(double ratio) const {
    const std::vector<double> one{ratio};
    return fixed_ms + kSteps * model.EstimateStepLatency(one).millis();
  }

  // Per-request variant: prices the request at its OWN resolution (the
  // grid's profiled fit when the gateway profiled one, else the
  // token-scaled primary regression) — identical to SoloMs(mask_ratio)
  // for resolution-less traces.
  double SoloMsFor(const trace::Request& r) const {
    return FixedMsFor(r) + kSteps * model.EstimateRequestStepSeconds(r) * 1000.0;
  }
};

// Probes this host: solo latency anchors the SLO scale; the profiled latency
// model gives per-ratio step costs (for per-request SLO budgets) and the
// denoise-thread capacity that the arrival rate is set against.
HostCalibration Calibrate() {
  gateway::GatewayOptions options = BaseOptions();
  options.policy = sched::RoutePolicy::kRoundRobin;
  gateway::Gateway probe(options);
  Rng rng(3);
  StatAccumulator ms;
  for (int i = 0; i < 4; ++i) {
    runtime::OnlineRequest request;
    request.template_id = i % 3;
    request.mask = trace::GenerateBlobMask(options.worker.numerics.grid_h,
                                           options.worker.numerics.grid_w,
                                           0.3, rng);
    request.prompt_seed = 100 + i;
    auto result = probe.Submit(std::move(request));
    ms.Add(result.future.get().total_ms());
  }
  HostCalibration cal;
  cal.model = probe.latency_model();
  cal.solo_ms = ms.Mean();
  const std::vector<double> probe_ratio{0.3};
  cal.fixed_ms = std::max(
      0.0, cal.solo_ms -
               kSteps * cal.model.EstimateStepLatency(probe_ratio).millis());
  // Expected per-request denoise cost of the bimodal mix. With a
  // resolution mixture, each mode is priced per grid through the profiled
  // per-resolution fits and weighted — otherwise the offered load would be
  // set against the native grid's cost alone and overdrive the host
  // whenever the mixture skews large.
  auto mode_step_ms = [&cal](double ratio) {
    if (g_mixture.empty()) {
      const std::vector<double> one{ratio};
      return cal.model.EstimateStepLatency(one).millis();
    }
    double total_weight = 0.0;
    double weighted_ms = 0.0;
    for (const auto& rw : g_mixture) {
      trace::Request r;
      r.mask_ratio = ratio;
      r.grid_h = rw.grid_h;
      r.grid_w = rw.grid_w;
      weighted_ms +=
          rw.weight * cal.model.EstimateRequestStepSeconds(r) * 1000.0;
      total_weight += rw.weight;
    }
    return weighted_ms / total_weight;
  };
  cal.mean_denoise_ms =
      kSteps * (0.8 * mode_step_ms(0.055) + 0.2 * mode_step_ms(0.875));

  // Mixture replay: probe each grid for its measured non-denoise overhead
  // (pre/post scale with the image — a large grid's latent preparation
  // costs several native ones) and fold them into the lane budget.
  cal.mean_pre_post_ms = cal.fixed_ms;
  if (!g_mixture.empty()) {
    double total_weight = 0.0;
    double weighted_fixed = 0.0;
    for (const auto& rw : g_mixture) {
      double fixed_grid = cal.fixed_ms;
      if (rw.grid_h != options.worker.numerics.grid_h ||
          rw.grid_w != options.worker.numerics.grid_w) {
        StatAccumulator grid_ms;
        for (int i = 0; i < 2; ++i) {
          runtime::OnlineRequest request;
          request.template_id = i % 3;
          request.mask =
              trace::GenerateBlobMask(rw.grid_h, rw.grid_w, 0.3, rng);
          request.prompt_seed = 200 + i;
          auto result = probe.Submit(std::move(request));
          grid_ms.Add(result.future.get().total_ms());
        }
        trace::Request priced;
        priced.mask_ratio = 0.3;
        priced.grid_h = rw.grid_h;
        priced.grid_w = rw.grid_w;
        fixed_grid = std::max(
            0.0, grid_ms.Mean() -
                     kSteps * cal.model.EstimateRequestStepSeconds(priced) *
                         1000.0);
      }
      cal.fixed_by_grid.push_back({{rw.grid_h, rw.grid_w}, fixed_grid});
      weighted_fixed += rw.weight * fixed_grid;
      total_weight += rw.weight;
    }
    cal.mean_pre_post_ms = weighted_fixed / total_weight;
  }
  probe.Stop();
  return cal;
}

// Replays the trace open-loop with slowdown-normalized SLOs: each request's
// deadline budget is `slo_mult` times its own estimated unloaded latency
// (the serving-literature "SLO scale"). Lights get proportionally tight
// budgets, so parking a light behind a heavy batch — the mistake count-based
// balancing makes systematically on skewed traces — costs attainment even
// when heavies alone would still make their looser deadlines.
gateway::MetricsSnapshot RunPolicy(sched::RoutePolicy policy,
                                   const std::vector<trace::Request>& requests,
                                   const HostCalibration& cal,
                                   double slo_mult) {
  gateway::GatewayOptions options = BaseOptions();
  options.policy = policy;
  gateway::Gateway gw(options);
  Rng rng(kMaskSeed);
  const auto epoch = std::chrono::steady_clock::now();
  for (const auto& r : requests) {
    runtime::OnlineRequest online =
        gateway::MakeOnlineRequest(r, options.worker.numerics, rng);
    online.slo = Duration::Seconds(slo_mult * cal.SoloMsFor(r) / 1000.0);
    std::this_thread::sleep_until(epoch +
                                  std::chrono::microseconds(r.arrival.micros()));
    gw.Submit(std::move(online));
  }
  gw.Drain();
  gateway::MetricsSnapshot metrics = gw.Metrics();
  gw.Stop();
  return metrics;
}

struct PolicyAggregate {
  sched::RoutePolicy policy;
  std::vector<gateway::MetricsSnapshot> runs;

  // Median per-trace attainment: robust to a single run degraded by host
  // noise (the bench shares one machine with everything else on it).
  double Attainment() const {
    std::vector<double> per_run;
    per_run.reserve(runs.size());
    for (const auto& m : runs) {
      per_run.push_back(m.SloAttainment());
    }
    if (per_run.empty()) {
      return 1.0;
    }
    std::sort(per_run.begin(), per_run.end());
    return per_run[per_run.size() / 2];
  }
  double MeanP50() const { return Mean([](const auto& m) { return m.end_to_end.p50_ms; }); }
  double MeanP99() const { return Mean([](const auto& m) { return m.end_to_end.p99_ms; }); }
  double MeanQueueP99() const { return Mean([](const auto& m) { return m.queueing.p99_ms; }); }

  template <typename F>
  double Mean(F field) const {
    double sum = 0.0;
    for (const auto& m : runs) {
      sum += field(m);
    }
    return runs.empty() ? 0.0 : sum / static_cast<double>(runs.size());
  }
};

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Gateway SLO comparison — real threads, open-loop skewed-mask trace",
      "§4.4/Fig. 16: count-based balancing misplaces heavy-mask requests; "
      "mask-aware routing attains the SLO at least as often");

  // Strip --smoke and --resolutions=HxW[:weight],... (hybrid-resolution
  // replay) before the positional args; with a mixture the workers serve
  // every listed grid and each trace request draws its grid from the
  // weighted mixture.
  {
    std::vector<char*> positional;
    for (int i = 0; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--smoke") {
        g_requests = 8;
        g_seed_count = 1;
        continue;
      }
      const std::string prefix = "--resolutions=";
      if (arg.rfind(prefix, 0) != 0) {
        positional.push_back(argv[i]);
        continue;
      }
      std::stringstream list(arg.substr(prefix.size()));
      std::string entry;
      while (std::getline(list, entry, ',')) {
        trace::ResolutionWeight rw;
        const size_t colon = entry.find(':');
        const std::string grid_text =
            colon == std::string::npos ? entry : entry.substr(0, colon);
        if (!trace::ParseResolution(grid_text, &rw.grid_h, &rw.grid_w) ||
            (colon != std::string::npos &&
             (rw.weight = std::atof(entry.c_str() + colon + 1)) <= 0.0)) {
          std::fprintf(stderr,
                       "bad --resolutions entry '%s' (expected HxW or "
                       "HxW:weight)\n",
                       entry.c_str());
          return 2;
        }
        g_mixture.push_back(rw);
      }
    }
    argc = static_cast<int>(positional.size());
    for (int i = 0; i < argc; ++i) {
      argv[i] = positional[i];
    }
  }
  if (!g_mixture.empty()) {
    std::printf("hybrid-resolution replay:");
    for (const auto& rw : g_mixture) {
      std::printf(" %dx%d:%.2f", rw.grid_h, rw.grid_w, rw.weight);
    }
    std::printf("\n");
  }

  const HostCalibration cal = Calibrate();
  // Offered load: a fraction of the denoise-thread capacity (the routed
  // resource) — near the knee, where backlog builds intermittently and
  // placement of the heavy-mask minority decides the tail. Each request's
  // SLO is `slo_mult` times its own estimated unloaded latency (slowdown-
  // normalized). Both are overridable for exploration:
  //   bench_gateway_slo [utilization] [slo_multiplier]
  double util = argc > 1 ? std::atof(argv[1]) : 0.30;
  double slo_mult = argc > 2 ? std::atof(argv[2]) : 5.0;
  if (util <= 0.0 || util > 1.0) {
    std::fprintf(stderr, "invalid utilization '%s', using 0.30\n",
                 argc > 1 ? argv[1] : "");
    util = 0.30;
  }
  if (slo_mult <= 1.0) {
    std::fprintf(stderr, "invalid SLO multiplier '%s', using 5.0\n",
                 argc > 2 ? argv[2] : "");
    slo_mult = 5.0;
  }
  // Utilization targets whichever resource the trace mix saturates first.
  // Single-resolution traces are denoise-bound (the seed behavior); a
  // resolution mixture can shift the bottleneck to the pre/post lanes,
  // whose per-request cost scales with the image.
  const double denoise_rps = util * kWorkers * 1000.0 / cal.mean_denoise_ms;
  const double lane_rps = g_mixture.empty()
                              ? denoise_rps
                              : util * kWorkers * kCpuLanes * 1000.0 /
                                    cal.mean_pre_post_ms;
  const double rps = std::min(denoise_rps, lane_rps);
  std::printf("solo %.1f ms (fixed %.1f ms), mean denoise %.1f ms -> %.0f%% "
              "denoise utilization = %.1f rps, SLO = %.1fx per-request solo "
              "(light %.0f ms / heavy %.0f ms), %d traces x %d requests, "
              "%d workers\n\n",
              cal.solo_ms, cal.fixed_ms, cal.mean_denoise_ms, 100.0 * util,
              rps, slo_mult, slo_mult * cal.SoloMs(0.055),
              slo_mult * cal.SoloMs(0.875), g_seed_count, g_requests,
              kWorkers);

  const std::vector<sched::RoutePolicy> policies = {
      sched::RoutePolicy::kRoundRobin, sched::RoutePolicy::kFirstFit,
      sched::RoutePolicy::kRequestCount, sched::RoutePolicy::kTokenCount,
      sched::RoutePolicy::kMaskAware};
  std::vector<PolicyAggregate> results;
  for (const auto policy : policies) {
    results.push_back(PolicyAggregate{policy, {}});
  }
  for (int seed = 0; seed < g_seed_count; ++seed) {
    std::vector<trace::Request> requests =
        SkewedTrace(rps, /*seed=*/7 + static_cast<uint64_t>(seed));
    StampResolutions(requests, /*seed=*/7 + static_cast<uint64_t>(seed));
    // Rotate the execution order so no policy always runs first (cold) or
    // last (after the host has drifted).
    for (size_t i = 0; i < policies.size(); ++i) {
      const size_t p = (i + static_cast<size_t>(seed)) % policies.size();
      results[p].runs.push_back(RunPolicy(policies[p], requests, cal, slo_mult));
    }
  }

  bench::PrintRow({"policy", "p50(ms)", "p99(ms)", "queue p99", "attainment"},
                  16);
  double best_baseline = 0.0;
  double mask_aware = 0.0;
  for (const auto& r : results) {
    bench::PrintRow({sched::ToString(r.policy), bench::Fmt(r.MeanP50(), 1),
                     bench::Fmt(r.MeanP99(), 1),
                     bench::Fmt(r.MeanQueueP99(), 1),
                     bench::Fmt(r.Attainment(), 3)},
                    16);
    if (r.policy == sched::RoutePolicy::kMaskAware) {
      mask_aware = r.Attainment();
    } else {
      best_baseline = std::max(best_baseline, r.Attainment());
    }
  }
  std::printf("\nmask-aware attainment %.3f vs best baseline %.3f (%s)\n",
              mask_aware, best_baseline,
              mask_aware >= best_baseline ? "OK: >= best baseline"
                                          : "below best baseline");

  std::ostringstream json;
  json << "{\n" << bench::HostHeaderJson();
  json << "  \"workers\":" << kWorkers << ",\"requests\":" << g_requests
       << ",\"traces\":" << g_seed_count << ",\"slo_multiplier\":" << slo_mult
       << ",\"slo_light_ms\":" << slo_mult * cal.SoloMs(0.055)
       << ",\"slo_heavy_ms\":" << slo_mult * cal.SoloMs(0.875)
       << ",\"arrival_rps\":" << rps << ",\"policies\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) {
      json << ",";
    }
    json << "{\"policy\":\"" << sched::ToString(results[i].policy)
         << "\",\"attainment\":" << results[i].Attainment()
         << ",\"p50_ms\":" << results[i].MeanP50()
         << ",\"p99_ms\":" << results[i].MeanP99() << ",\"runs\":[";
    for (size_t r = 0; r < results[i].runs.size(); ++r) {
      if (r > 0) {
        json << ",";
      }
      json << results[i].runs[r].ToJson();
    }
    json << "]}";
  }
  json << "]}";
  std::ofstream out("BENCH_gateway.json");
  out << json.str() << "\n";
  std::printf("wrote BENCH_gateway.json\n");
  return 0;
}
