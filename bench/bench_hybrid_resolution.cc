// Hybrid-resolution serving: patch-granular step batching vs the two
// baselines, on the REAL model layer (no virtual time).
//
// A mixed-resolution batch (requests at three latent grids sharing one
// weight family) advances through denoising under three regimes:
//  - patch-granular: one RunStepBatchGathered panel per step holds exactly
//    every member's masked tokens, across requests AND resolutions;
//  - serialize-per-resolution: every member steps alone through the solo
//    sparse path (what a server without patch batching does);
//  - pad-to-largest: cost emulation of the naive mixed-resolution batcher
//    that pads each member's latent to the batch's largest grid — every
//    member is charged a solo sparse step at the LARGEST grid with its own
//    mask ratio (its patch count inflated to the largest image).
//
// Two gates make the numbers trustworthy, each failing the run (non-zero
// exit):
//  - bitwise: the gathered panel must land every latent on the same bits
//    as solo stepping, for a mixed panel and for the degenerate
//    single-resolution mixture (the tentpole's correctness keystone);
//  - speedup: patch-granular must beat pad-to-largest by >= 1.5x step
//    latency on the mixed batch, each regime timed as the fastest of
//    interleaved rounds (bench::InterleavedMinMs).
//
// A virtual-time cluster leg (4 Flux workers, the Fig. 16 mixed-resolution
// trace) records SLO attainment under serving::HybridMode::kPatchGranular
// vs kPadToLargest. Everything lands in BENCH_hybrid.json, behind the
// host header.
//
// Flags: --smoke shrinks the model and the timing windows so the binary
// finishes in ~seconds (the scripts/check.sh --bench-smoke leg); gates
// still run.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/simulation.h"
#include "src/common/flag_parser.h"
#include "src/model/diffusion_model.h"

namespace flashps {
namespace {

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

// One request in the mixed batch: its model (one per grid), pinned K/V
// record, mask, and a pristine initial latent the timing loops copy from.
struct Member {
  const model::DiffusionModel* model = nullptr;
  model::ActivationRecord cache;
  trace::Mask mask;
  Matrix initial_latent;
};

Member MakeMember(const model::DiffusionModel& m, double ratio, uint64_t seed) {
  Member member;
  member.model = &m;
  member.cache = m.Register(0, /*record_kv=*/true);
  Rng rng(seed);
  member.mask = trace::GenerateBlobMask(m.config().grid_h, m.config().grid_w,
                                        ratio, rng);
  const Matrix tmpl = m.EncodeTemplate(0);
  member.initial_latent = m.InitEditLatent(tmpl, member.mask, seed);
  return member;
}

model::DiffusionModel::RunOptions SoloOptions(const Member& member) {
  model::DiffusionModel::RunOptions opts;
  opts.mode = model::ComputeMode::kMaskAwareY;
  opts.cache = &member.cache;
  opts.mask = &member.mask;
  opts.sparse_compute = true;
  return opts;
}

// Advances copies of every member through `steps` via the gathered panel.
void RunPanel(const std::vector<Member>& members, int steps) {
  std::vector<Matrix> latents;
  latents.reserve(members.size());
  for (const Member& m : members) {
    latents.push_back(m.initial_latent);
  }
  for (int step = 0; step < steps; ++step) {
    std::vector<model::DiffusionModel::StepBatchMember> panel;
    panel.reserve(members.size());
    for (size_t i = 0; i < members.size(); ++i) {
      panel.push_back({members[i].model, &latents[i], &members[i].mask,
                       &members[i].cache, step});
    }
    model::DiffusionModel::RunStepBatchGathered(panel);
  }
}

// Advances copies of every member through `steps`, one member at a time.
void RunSerialized(const std::vector<Member>& members, int steps) {
  for (const Member& m : members) {
    Matrix latent = m.initial_latent;
    latent = m.model->RunStepRange(std::move(latent), SoloOptions(m), 0, steps);
  }
}

// Returns false when any panel latent drifts from its solo twin.
bool BitwiseGate(const std::vector<Member>& members, int steps,
                 const char* label) {
  std::vector<Matrix> panel_latents;
  std::vector<Matrix> solo_latents;
  for (const Member& m : members) {
    panel_latents.push_back(m.initial_latent);
    solo_latents.push_back(m.initial_latent);
  }
  for (int step = 0; step < steps; ++step) {
    std::vector<model::DiffusionModel::StepBatchMember> panel;
    for (size_t i = 0; i < members.size(); ++i) {
      panel.push_back({members[i].model, &panel_latents[i], &members[i].mask,
                       &members[i].cache, step});
    }
    model::DiffusionModel::RunStepBatchGathered(panel);
    for (size_t i = 0; i < members.size(); ++i) {
      solo_latents[i] = members[i].model->RunStepRange(
          std::move(solo_latents[i]), SoloOptions(members[i]), step, step + 1);
      if (!BitwiseEqual(panel_latents[i], solo_latents[i])) {
        std::fprintf(stderr,
                     "BITWISE DRIFT (%s): member %zu step %d diverged from "
                     "solo stepping\n",
                     label, i, step);
        return false;
      }
    }
  }
  return true;
}

struct ClusterLeg {
  double p95_s = 0.0;
  double mean_s = 0.0;
  double attainment = 1.0;
};

// Virtual-time SLO leg: the Fig. 16 mixed-resolution trace on 4 Flux
// workers under the given cost model.
ClusterLeg RunClusterLeg(serving::HybridMode mode,
                         const std::vector<trace::Request>& requests,
                         double slo_budget_s) {
  cluster::ClusterConfig config;
  config.num_workers = 4;
  config.engine = serving::EngineConfig::ForSystem(serving::SystemKind::kFlashPS,
                                                   model::ModelKind::kFlux);
  config.engine.hybrid = mode;
  config.policy = sched::RoutePolicy::kMaskAware;
  const auto result = cluster::RunClusterSim(config, requests);
  ClusterLeg leg;
  leg.p95_s = result.total_latency_s.P95();
  leg.mean_s = result.total_latency_s.Mean();
  if (!result.completed.empty()) {
    size_t met = 0;
    for (const auto& done : result.completed) {
      if (done.total().seconds() <= slo_budget_s) {
        ++met;
      }
    }
    leg.attainment =
        static_cast<double>(met) / static_cast<double>(result.completed.size());
  }
  return leg;
}

}  // namespace
}  // namespace flashps

int main(int argc, char** argv) {
  using namespace flashps;

  flags::FlagParser flags(argc, argv);
  const bool smoke = flags.Has(
      "smoke", "tiny model and timing windows (seconds, for check.sh)");
  const bool help = flags.Has("help", "print this help");
  if (help || !flags.ok()) {
    const std::string usage = flags.HelpText("bench_hybrid_resolution");
    std::fprintf(help ? stdout : stderr, "%s", usage.c_str());
    if (!flags.ok()) {
      for (const auto& e : flags.errors()) {
        std::fprintf(stderr, "error: %s\n", e.c_str());
      }
      return 2;
    }
    return 0;
  }

  bench::PrintHeader(
      "Hybrid-resolution serving: patch-granular step batching",
      "one gathered panel per step across requests and resolutions beats "
      "pad-to-largest >= 1.5x step latency, bitwise-identically");

  // The mixed batch: three grids around a native one, all sharing the
  // native model's weight family. hidden is sized so the token-wise GEMMs
  // (what patch batching accelerates) dominate the step.
  model::NumericsConfig base = model::NumericsConfig::ForTests();
  base.hidden = smoke ? 64 : 256;
  base.num_blocks = 2;
  base.num_steps = smoke ? 2 : 4;
  model::NumericsConfig small = base;
  small.grid_h = 8;
  small.grid_w = 8;
  model::NumericsConfig large = base;
  large.grid_h = 16;
  large.grid_w = 16;
  const model::DiffusionModel m_native(base);
  const model::DiffusionModel m_small(small);
  const model::DiffusionModel m_large(large);

  std::vector<Member> mixed;
  mixed.push_back(MakeMember(m_small, 0.25, 101));
  mixed.push_back(MakeMember(m_native, 0.20, 102));
  mixed.push_back(MakeMember(m_native, 0.15, 103));
  mixed.push_back(MakeMember(m_small, 0.30, 104));
  mixed.push_back(MakeMember(m_large, 0.10, 105));
  mixed.push_back(MakeMember(m_native, 0.25, 106));

  // Gate 1: bitwise identity, mixed panel and degenerate single-resolution
  // mixture.
  bool bitwise_mixed_ok = BitwiseGate(mixed, base.num_steps, "mixed");
  std::vector<Member> degenerate;
  degenerate.push_back(MakeMember(m_native, 0.20, 201));
  degenerate.push_back(MakeMember(m_native, 0.35, 202));
  degenerate.push_back(MakeMember(m_native, 0.10, 203));
  bool bitwise_degenerate_ok =
      BitwiseGate(degenerate, base.num_steps, "degenerate");
  std::printf("bitwise gates: mixed %s, degenerate single-resolution %s\n",
              bitwise_mixed_ok ? "OK" : "FAIL",
              bitwise_degenerate_ok ? "OK" : "FAIL");

  // Pad-to-largest emulation members: each mixed member re-drawn at the
  // largest grid with its own mask ratio (same masked FRACTION, inflated
  // to the largest image — the cost a padded batch pays per member).
  std::vector<Member> padded;
  for (size_t i = 0; i < mixed.size(); ++i) {
    padded.push_back(
        MakeMember(m_large, mixed[i].mask.ratio(), 300 + static_cast<int>(i)));
  }

  // Interleaved min-of-N: each round times every regime once, so a burst
  // of host contention lands on one round of all three regimes rather than
  // on every sample of one regime.
  const int samples = smoke ? 3 : 9;
  const int steps = base.num_steps;
  const double batch = static_cast<double>(mixed.size());
  // Per-step latency of the WHOLE batch under each regime.
  const std::vector<double> best_ms = bench::InterleavedMinMs(
      {[&] { RunPanel(mixed, steps); }, [&] { RunSerialized(mixed, steps); },
       [&] { RunSerialized(padded, steps); }},
      samples);
  const double patch_ms = best_ms[0] / steps;
  const double serialize_ms = best_ms[1] / steps;
  const double pad_ms = best_ms[2] / steps;

  bench::PrintRow({"regime", "step(ms)", "per-req(ms)", "vs patch"});
  bench::PrintRow({"patch-granular", bench::Fmt(patch_ms, 3),
                   bench::Fmt(patch_ms / batch, 3), "1.00x"});
  bench::PrintRow({"serialize", bench::Fmt(serialize_ms, 3),
                   bench::Fmt(serialize_ms / batch, 3),
                   bench::Fmt(serialize_ms / patch_ms, 2) + "x"});
  bench::PrintRow({"pad-to-largest", bench::Fmt(pad_ms, 3),
                   bench::Fmt(pad_ms / batch, 3),
                   bench::Fmt(pad_ms / patch_ms, 2) + "x"});

  // Gate 2: the tentpole's headline number.
  const double speedup_vs_pad = pad_ms / patch_ms;
  const bool speedup_ok = speedup_vs_pad >= 1.5;
  std::printf("patch-granular vs pad-to-largest: %.2fx step latency "
              "(gate: >= 1.5x) %s\n",
              speedup_vs_pad, speedup_ok ? "OK" : "FAIL");

  // Virtual-time SLO leg (skipped numbers stay meaningful in smoke mode:
  // the sim is virtual time, so --smoke only trims the request count).
  // Near the pad-mode knee: patch-granular still clears the budget while
  // pad-to-largest's serialization behind oversize members builds backlog.
  trace::WorkloadSpec spec;
  spec.trace = trace::TraceKind::kProduction;
  spec.rps = 1.2;
  spec.num_requests = smoke ? 64 : 320;
  spec.resolutions = {{48, 48, 0.4}, {64, 64, 0.35}, {96, 96, 0.25}};
  const auto requests = trace::GenerateWorkload(spec);
  const double slo_budget_s = 12.0;
  const ClusterLeg patch_leg =
      RunClusterLeg(serving::HybridMode::kPatchGranular, requests, slo_budget_s);
  const ClusterLeg pad_leg =
      RunClusterLeg(serving::HybridMode::kPadToLargest, requests, slo_budget_s);
  std::printf("cluster SLO leg (4 Flux workers, mixed 48/64/96 trace, "
              "%.0fs budget): attainment %.3f (patch) vs %.3f (pad), "
              "P95 %.2fs vs %.2fs\n",
              slo_budget_s, patch_leg.attainment, pad_leg.attainment,
              patch_leg.p95_s, pad_leg.p95_s);

  std::ostringstream json;
  json.setf(std::ios::fixed);
  json.precision(6);
  json << "{\n";
  json << bench::HostHeaderJson();
  json << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  json << "  \"batch\": {\"members\": " << mixed.size()
       << ", \"grids\": [\"8x8\", \"12x12\", \"16x16\"], \"hidden\": "
       << base.hidden << ", \"blocks\": " << base.num_blocks << "},\n";
  json << "  \"step_timing\": \"interleaved min of " << samples
       << " rounds\",\n";
  json << "  \"step_latency_ms\": {\"patch_granular\": " << patch_ms
       << ", \"serialize_per_resolution\": " << serialize_ms
       << ", \"pad_to_largest\": " << pad_ms << "},\n";
  json << "  \"speedup_vs_pad_to_largest\": " << speedup_vs_pad << ",\n";
  json << "  \"speedup_vs_serialize\": " << serialize_ms / patch_ms << ",\n";
  json << "  \"speedup_gate_min\": 1.5,\n";
  json << "  \"bitwise_mixed_ok\": " << (bitwise_mixed_ok ? "true" : "false")
       << ",\n";
  json << "  \"bitwise_degenerate_ok\": "
       << (bitwise_degenerate_ok ? "true" : "false") << ",\n";
  json << "  \"cluster_slo\": {\"budget_s\": " << slo_budget_s
       << ", \"requests\": " << spec.num_requests
       << ", \"mixture\": \"48x48:0.4,64x64:0.35,96x96:0.25\","
       << " \"patch_granular\": {\"attainment\": " << patch_leg.attainment
       << ", \"p95_s\": " << patch_leg.p95_s
       << ", \"mean_s\": " << patch_leg.mean_s << "},"
       << " \"pad_to_largest\": {\"attainment\": " << pad_leg.attainment
       << ", \"p95_s\": " << pad_leg.p95_s << ", \"mean_s\": " << pad_leg.mean_s
       << "}},\n";
  const bool gates_ok = bitwise_mixed_ok && bitwise_degenerate_ok && speedup_ok;
  json << "  \"gates_ok\": " << (gates_ok ? "true" : "false") << "\n";
  json << "}\n";
  std::ofstream out("BENCH_hybrid.json");
  out << json.str();
  std::printf("wrote BENCH_hybrid.json\n");

  return gates_ok ? 0 : 1;
}
