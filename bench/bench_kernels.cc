// google-benchmark microbenchmarks of the real CPU kernels. Validates the
// *shape* claims behind Fig. 15-Left on actual hardware: transformer-block
// wall-clock under mask-aware computation scales ~linearly with the mask
// ratio, and the KV-cached flow undercuts the Y-cached flow.
//
// On top of the Fig. 15 suite this binary measures the blocked/threaded
// kernel layer itself: naive-vs-blocked GEMM at the SDXL block shapes,
// naive-vs-dispatched row-wise kernels (softmax, the fused attention
// epilogue, GELU, LayerNorm) at its gathered-panel shapes, and 1/2/4-thread
// scaling of GEMM and BlockForwardFull. Regardless of the
// google-benchmark output, main() always finishes by hand-timing those
// kernels (median of repeated samples) and writing BENCH_kernels.json to
// the working directory; pass --json-only to skip the google-benchmark
// pass and emit only the JSON.
//
// The JSON opens with a host header (commit, CPU flags, effective CPUs,
// kernel ISA) and carries a per-op GEMM leg: each of a patch panel's eight
// GEMM shapes in microseconds and GFLOP/s, next to this core's FMA peak at
// the dispatched ISA. It also carries the gathered sparse compute path's
// legs (gather→GEMM→scatter vs the dense mask-aware flow at GEMM, block,
// and denoise-step level) and the measured sparse/gathered kernel
// efficiencies behind TimingConfig::sparse_kernel_efficiency. Each leg is
// gated on bitwise identity with the dense path; any drift makes the
// binary exit non-zero.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/parallel_for.h"
#include "src/model/diffusion_model.h"
#include "src/model/flops.h"
#include "src/model/transformer.h"
#include "src/tensor/naive.h"

namespace flashps {
namespace {

struct KernelFixture {
  KernelFixture() {
    const model::NumericsConfig config =
        model::NumericsConfig::ForModelKind(model::ModelKind::kSdxl);
    grid = config.grid_h;
    hidden = config.hidden;
    Rng rng(3);
    weights = std::make_unique<model::BlockWeights>(
        model::BlockWeights::Random(hidden, rng));
    bias = model::MakeDistanceBias(grid, grid, 1.0f);
    x = Matrix(grid * grid, hidden);
    x.FillNormal(rng, 1.0f);
    Matrix k;
    Matrix v;
    cached_y = model::BlockForwardFull(*weights, x, bias, &k, &v);
    cached_k = std::move(k);
    cached_v = std::move(v);
  }

  trace::Mask MaskFor(double ratio) const {
    Rng rng(17);
    return trace::GenerateBlobMask(grid, grid, ratio, rng);
  }

  int grid = 0;
  int hidden = 0;
  std::unique_ptr<model::BlockWeights> weights;
  Matrix bias;
  Matrix x;
  Matrix cached_y;
  Matrix cached_k;
  Matrix cached_v;
};

const KernelFixture& Fixture() {
  static const KernelFixture fixture;
  return fixture;
}

void BM_BlockFull(benchmark::State& state) {
  const auto& f = Fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::BlockForwardFull(*f.weights, f.x, f.bias));
  }
}
BENCHMARK(BM_BlockFull)->Unit(benchmark::kMillisecond);

void BM_BlockMaskedY(benchmark::State& state) {
  const auto& f = Fixture();
  const trace::Mask mask = f.MaskFor(state.range(0) / 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model::BlockForwardMaskedY(*f.weights, f.x, f.bias, mask, f.cached_y));
  }
  state.counters["mask_ratio"] = mask.ratio();
}
BENCHMARK(BM_BlockMaskedY)
    ->Arg(10)
    ->Arg(20)
    ->Arg(40)
    ->Arg(80)
    ->Unit(benchmark::kMillisecond);

void BM_BlockMaskedKV(benchmark::State& state) {
  const auto& f = Fixture();
  const trace::Mask mask = f.MaskFor(state.range(0) / 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::BlockForwardMaskedKV(
        *f.weights, f.x, f.bias, mask, f.cached_y, f.cached_k, f.cached_v));
  }
  state.counters["mask_ratio"] = mask.ratio();
}
BENCHMARK(BM_BlockMaskedKV)
    ->Arg(10)
    ->Arg(20)
    ->Arg(40)
    ->Unit(benchmark::kMillisecond);

void BM_BlockMaskedGathered(benchmark::State& state) {
  const auto& f = Fixture();
  const trace::Mask mask = f.MaskFor(state.range(0) / 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::BlockForwardMaskedGathered(
        *f.weights, f.x, f.bias, mask, f.cached_y, f.cached_k, f.cached_v));
  }
  state.counters["mask_ratio"] = mask.ratio();
}
BENCHMARK(BM_BlockMaskedGathered)
    ->Arg(10)
    ->Arg(20)
    ->Arg(40)
    ->Unit(benchmark::kMillisecond);

void BM_BlockSparse(benchmark::State& state) {
  const auto& f = Fixture();
  const trace::Mask mask = f.MaskFor(state.range(0) / 100.0);
  const Matrix xm = GatherRows(f.x, mask.masked_tokens);
  const int n = xm.rows();
  Matrix sub_bias(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      sub_bias.at(i, j) = f.bias.at(mask.masked_tokens[i],
                                    mask.masked_tokens[j]);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model::BlockForwardSparse(*f.weights, xm, sub_bias));
  }
}
BENCHMARK(BM_BlockSparse)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_AttentionMatrix(benchmark::State& state) {
  const auto& f = Fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model::AttentionMatrix(*f.weights, f.x, f.bias));
  }
}
BENCHMARK(BM_AttentionMatrix)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Blocked kernel layer: naive vs blocked GEMM, and thread scaling.

struct GemmShape {
  const char* name;
  int m;
  int k;
  int n;
};

// The three GEMM shapes one SDXL transformer block actually issues
// (tokens=256, hidden=64, ff=256): QKV/out projections, FF up, and
// scores·V / FF down.
constexpr GemmShape kSdxlShapes[] = {
    {"qkv_256x64x64", 256, 64, 64},
    {"ff1_256x64x256", 256, 64, 256},
    {"ff2_256x256x64", 256, 256, 64},
};

Matrix BenchMatrix(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  m.FillNormal(rng, 1.0f);
  return m;
}

void BM_GemmNaive(benchmark::State& state) {
  const GemmShape& s = kSdxlShapes[state.range(0)];
  const Matrix a = BenchMatrix(s.m, s.k, 1);
  const Matrix b = BenchMatrix(s.k, s.n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive::MatMul(a, b));
  }
  state.SetLabel(s.name);
}
BENCHMARK(BM_GemmNaive)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

void BM_GemmBlocked(benchmark::State& state) {
  const GemmShape& s = kSdxlShapes[state.range(0)];
  const Matrix a = BenchMatrix(s.m, s.k, 1);
  const Matrix b = BenchMatrix(s.k, s.n, 2);
  ComputeThreadsScope scope(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetLabel(s.name);
}
BENCHMARK(BM_GemmBlocked)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMicrosecond);

void BM_GemmBlockedThreads(benchmark::State& state) {
  const GemmShape& s = kSdxlShapes[1];  // ff1: the largest of the three.
  const Matrix a = BenchMatrix(s.m, s.k, 1);
  const Matrix b = BenchMatrix(s.k, s.n, 2);
  ComputeThreadsScope scope(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetLabel(s.name);
}
BENCHMARK(BM_GemmBlockedThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond);

void BM_BlockFullThreads(benchmark::State& state) {
  const auto& f = Fixture();
  ComputeThreadsScope scope(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::BlockForwardFull(*f.weights, f.x, f.bias));
  }
}
BENCHMARK(BM_BlockFullThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// BENCH_kernels.json: hand-timed medians, independent of google-benchmark.

// Median per-call milliseconds over `samples` timed batches. The batch size
// is calibrated once so each sample spans >= ~20 ms of wall clock.
double MedianCallMs(const std::function<void()>& fn, int samples = 5) {
  using Clock = std::chrono::steady_clock;
  auto time_batch = [&](int iters) {
    const auto start = Clock::now();
    for (int i = 0; i < iters; ++i) {
      fn();
    }
    const auto stop = Clock::now();
    return std::chrono::duration<double, std::milli>(stop - start).count();
  };
  int iters = 1;
  double ms = time_batch(1);
  while (ms < 20.0 && iters < (1 << 20)) {
    iters *= 2;
    ms = time_batch(iters);
  }
  std::vector<double> per_call(static_cast<size_t>(samples));
  for (auto& sample : per_call) {
    sample = time_batch(iters) / iters;
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

// ---------------------------------------------------------------------------
// Single-core FMA peak at the dispatched ISA level: 12 independent chains of
// full-width vector multiply-adds (fused at v3/v4, a multiply and an add at
// generic), enough chains to cover the FMA latency on two ports.

#define FLASHPS_ALWAYS_INLINE inline __attribute__((always_inline))

template <int W>
struct VecOf {
  typedef float type __attribute__((vector_size(W * sizeof(float))));
};

constexpr int kPeakChains = 12;

// Runs `iters` steps of every chain from `seed` (kPeakChains * W floats
// plus two vectors of multiplier and addend) and returns a sum of the
// results, so nothing is dead code.
template <int W>
FLASHPS_ALWAYS_INLINE float FmaChainsImpl(const float* seed, int64_t iters) {
  using V = typename VecOf<W>::type;
  V acc[kPeakChains];
  V mul;
  V add;
  for (int c = 0; c < kPeakChains; ++c) {
    std::memcpy(&acc[c], seed + c * W, sizeof(V));
  }
  std::memcpy(&mul, seed + kPeakChains * W, sizeof(V));
  std::memcpy(&add, seed + (kPeakChains + 1) * W, sizeof(V));
  for (int64_t i = 0; i < iters; ++i) {
#pragma GCC unroll 12
    for (int c = 0; c < kPeakChains; ++c) {
      acc[c] = acc[c] * mul + add;
    }
  }
  float sum = 0.0f;
  for (int c = 0; c < kPeakChains; ++c) {
    for (int l = 0; l < W; ++l) {
      sum += acc[c][l];
    }
  }
  return sum;
}

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
__attribute__((target("arch=x86-64-v4"))) float FmaChainsV4(const float* seed,
                                                            int64_t iters) {
  return FmaChainsImpl<16>(seed, iters);
}
__attribute__((target("arch=x86-64-v3"))) float FmaChainsV3(const float* seed,
                                                            int64_t iters) {
  return FmaChainsImpl<8>(seed, iters);
}
#endif
float FmaChainsGeneric(const float* seed, int64_t iters) {
  return FmaChainsImpl<4>(seed, iters);
}

// GFLOP/s of the chains at KernelIsa()'s width, fastest of 9 samples.
double FmaPeakGflops() {
  int lanes = 4;
  float (*chains)(const float*, int64_t) = FmaChainsGeneric;
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
  if (std::strcmp(KernelIsa(), "v4") == 0) {
    lanes = 16;
    chains = FmaChainsV4;
  } else if (std::strcmp(KernelIsa(), "v3") == 0) {
    lanes = 8;
    chains = FmaChainsV3;
  }
#endif
  // Values near a fixed point (x -> 0.999 x + 0.001 settles at 1), so the
  // chains never overflow or go subnormal.
  std::vector<float> seed(static_cast<size_t>((kPeakChains + 2) * 16), 1.0f);
  std::fill(seed.begin() + kPeakChains * lanes,
            seed.begin() + (kPeakChains + 1) * lanes, 0.999f);
  std::fill(seed.begin() + (kPeakChains + 1) * lanes, seed.end(), 0.001f);
  constexpr int64_t kIters = 1 << 20;
  float sink = 0.0f;
  const double ms = bench::InterleavedMinMs(
      {[&] { sink += chains(seed.data(), kIters); }})[0];
  benchmark::DoNotOptimize(sink);
  return 2.0 * kPeakChains * lanes * static_cast<double>(kIters) / ms / 1e6;
}

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

// edit_warm's gathered step next to its named ops: one one-member
// RunStepBatchGathered step (the step a patch-batching worker serves a lone
// request with) and, at the same shapes, each src/tensor op the step is
// made of (perfbench's tensor.* set), all timed in one interleaved min-of-N
// so host noise lands on every column alike. The named ops run on whole
// matrices, as the step's ops would with no gather, copy or allocation
// between them; the step's time beyond their sum is its share outside the
// named ops. Appends one JSON entry per mask ratio.
void EditWarmStepLeg(std::ostringstream& json) {
  ComputeThreadsScope scope(1);
  const model::NumericsConfig cfg =
      model::NumericsConfig::ForModelKind(model::ModelKind::kSdxl);
  const model::DiffusionModel dm(cfg);
  const model::ActivationRecord rec = dm.Register(0, /*record_kv=*/true);
  const Matrix tmpl = dm.EncodeTemplate(0);
  const int hidden = cfg.hidden;
  const model::BlockWeights& w = dm.block(0);
  const model::StepActivations& acts = rec.steps.front();
  const float scale = 1.0f / std::sqrt(static_cast<float>(hidden));
  json << "  \"edit_warm_step\": {\"grid\": " << cfg.grid_h
       << ", \"hidden\": " << hidden << ", \"blocks\": " << cfg.num_blocks
       << ", \"legs\": [\n";
  const double ratios[] = {0.07, 0.11};
  for (size_t i = 0; i < std::size(ratios); ++i) {
    Rng rng(7);
    const trace::Mask mask =
        trace::GenerateBlobMask(cfg.grid_h, cfg.grid_w, ratios[i], rng);
    const std::vector<int>& masked = mask.masked_tokens;
    const int rows = static_cast<int>(masked.size());
    Matrix latent = dm.InitEditLatent(tmpl, mask, 5);
    std::vector<RowRef> gather_rows;
    std::vector<RowRefMut> scatter_rows;
    Matrix scatter_target = acts.y.front();
    for (const int t : masked) {
      gather_rows.push_back({&latent, t});
      scatter_rows.push_back({&scatter_target, t});
    }
    const Matrix x = BenchMatrix(rows, hidden, 31);
    const Matrix ff = BenchMatrix(rows, 4 * hidden, 32);
    const Matrix scores = BenchMatrix(rows, cfg.tokens(), 33);
    Matrix work;
    struct Op {
      const char* name;
      int per_block;  // Calls per block.
      std::function<void()> fn;
    };
    const std::vector<Op> ops = {
        {"gather", 1, [&] { benchmark::DoNotOptimize(
                                GatherRowsMulti(gather_rows, hidden)); }},
        {"layernorm", 2, [&] { benchmark::DoNotOptimize(
                                   LayerNorm(x, w.ln1_gamma, w.ln1_beta)); }},
        {"qkv", 3, [&] { benchmark::DoNotOptimize(MatMul(x, w.wq)); }},
        {"attn_scores", 1, [&] { benchmark::DoNotOptimize(
                                     MatMulTransposed(x, acts.k.front())); }},
        {"softmax", 1,
         [&] {
           work = scores;
           ScaleBiasSoftmaxRows(work, scale, dm.attention_bias(), &masked);
         }},
        {"attn_v", 1, [&] { benchmark::DoNotOptimize(
                                MatMul(scores, acts.v.front())); }},
        {"out_proj", 1, [&] { benchmark::DoNotOptimize(MatMul(x, w.wo)); }},
        {"ff1", 1, [&] { benchmark::DoNotOptimize(MatMul(x, w.w1)); }},
        {"gelu", 1,
         [&] {
           work = ff;
           GeluInPlace(work);
         }},
        {"ff2", 1, [&] { benchmark::DoNotOptimize(MatMul(ff, w.w2)); }},
        {"scatter", 1, [&] { ScatterRowsMulti(x, scatter_rows); }},
    };
    // The softmax and GELU legs pay a copy of their input first; time it
    // alone and take it off.
    std::vector<std::function<void()>> calls = {
        [&] {
          model::DiffusionModel::RunStepBatchGathered(
              {{&dm, &latent, &mask, &rec, 0}});
        },
        [&] { work = scores; },
        [&] { work = ff; }};
    for (const Op& op : ops) {
      calls.push_back(op.fn);
    }
    const std::vector<double> ms = bench::InterleavedMinMs(calls);
    const double step_us = ms[0] * 1e3;
    double named_us = 0.0;
    std::ostringstream per_op;
    for (size_t o = 0; o < ops.size(); ++o) {
      double op_ms = ms[o + 3];
      if (std::strcmp(ops[o].name, "softmax") == 0) {
        op_ms -= ms[1];
      } else if (std::strcmp(ops[o].name, "gelu") == 0) {
        op_ms -= ms[2];
      }
      const double us = op_ms * 1e3 * ops[o].per_block * cfg.num_blocks;
      named_us += us;
      per_op << (o == 0 ? "" : ", ") << "\"" << ops[o].name << "\": " << us;
    }
    const double outside = step_us > 0.0 ? 1.0 - named_us / step_us : 0.0;
    json << "    {\"mask_ratio\": " << mask.ratio() << ", \"rows\": " << rows
         << ", \"step_us\": " << step_us
         << ", \"named_ops_us\": " << named_us
         << ", \"outside_named_ops_share\": " << outside
         << ", \"ops_us\": {" << per_op.str() << "}}"
         << (i + 1 < std::size(ratios) ? "," : "") << "\n";
    std::cerr << "edit_warm step m=" << mask.ratio() << " (" << rows
              << " rows): step " << step_us << " us, named ops " << named_us
              << " us, outside named ops " << 100.0 * outside << "%\n";
  }
  json << "  ]},\n";
}

// Returns false when any gathered-vs-dense bitwise gate fails. BENCH
// numbers from a drifting kernel are worthless, so drift fails the run.
bool WriteKernelsJson() {
  bool bitwise_ok = true;
  std::ostringstream json;
  json.setf(std::ios::fixed);
  json.precision(6);
  json << "{\n";
  json << bench::HostHeaderJson();
  json << "  \"kernel_isa\": \"" << KernelIsa() << "\",\n";

  // Naive vs blocked, single thread, at the SDXL block shapes.
  json << "  \"gemm_naive_vs_blocked\": [\n";
  double worst_speedup = 1e30;
  for (size_t i = 0; i < std::size(kSdxlShapes); ++i) {
    const GemmShape& s = kSdxlShapes[i];
    const Matrix a = BenchMatrix(s.m, s.k, 1);
    const Matrix b = BenchMatrix(s.k, s.n, 2);
    const double naive_ms = MedianCallMs([&] {
      benchmark::DoNotOptimize(naive::MatMul(a, b));
    });
    ComputeThreadsScope scope(1);
    const double blocked_ms = MedianCallMs([&] {
      benchmark::DoNotOptimize(MatMul(a, b));
    });
    const double speedup = naive_ms / blocked_ms;
    worst_speedup = std::min(worst_speedup, speedup);
    json << "    {\"shape\": \"" << s.name << "\", \"naive_ms\": " << naive_ms
         << ", \"blocked_ms\": " << blocked_ms << ", \"speedup\": " << speedup
         << "}" << (i + 1 < std::size(kSdxlShapes) ? "," : "") << "\n";
    std::cerr << "gemm " << s.name << ": naive " << naive_ms << " ms, blocked "
              << blocked_ms << " ms, speedup " << speedup << "x\n";
  }
  json << "  ],\n";
  json << "  \"gemm_min_speedup\": " << worst_speedup << ",\n";

  // Naive vs dispatched row-wise kernels, single thread, at the SDXL
  // block's gathered-panel shapes: 20 rows (the median production mask)
  // and 112 (a four-member patch panel) by 256 score columns (softmax and
  // the fused attention epilogue), 256 FF columns (GELU) and 64 hidden
  // columns (LayerNorm). Each pair is timed interleaved, min-of-N. Every
  // call first copies its leg's input into the working panel, so the
  // in-place kernels see the same values each time; both sides' figures
  // include that copy.
  json << "  \"rowwise_naive_vs_dispatched\": [\n";
  double rowwise_worst = 1e30;
  {
    ComputeThreadsScope scope(1);
    const auto& f = Fixture();
    const int rows_list[] = {20, 112};
    std::vector<int> bias_rows;
    for (int r = 0; r < f.x.rows(); r += 2) {
      bias_rows.push_back(r);  // A gathered subset of the bias's rows.
    }
    const float scale = 1.0f / std::sqrt(static_cast<float>(f.hidden));
    bool first = true;
    for (const int rows : rows_list) {
      const Matrix scores = BenchMatrix(rows, f.x.rows(), 5);
      const Matrix ff = BenchMatrix(rows, 4 * f.hidden, 6);
      const Matrix x = BenchMatrix(rows, f.hidden, 7);
      const std::vector<int> panel_bias_rows(bias_rows.begin(),
                                             bias_rows.begin() + rows);
      Matrix work;  // Each call's working panel.
      struct Leg {
        const char* op;
        const Matrix* input;
        std::function<void()> naive;
        std::function<void()> dispatched;
      };
      const Leg legs[] = {
          {"softmax", &scores, [&] { naive::SoftmaxRows(work); },
           [&] { SoftmaxRows(work); }},
          {"scale_bias_softmax", &scores,
           [&] {
             for (int i = 0; i < work.rows(); ++i) {
               float* s = work.row(i);
               const float* b = f.bias.row(panel_bias_rows[i]);
               for (int j = 0; j < work.cols(); ++j) {
                 s[j] = s[j] * scale + b[j];
               }
             }
             naive::SoftmaxRows(work);
           },
           [&] {
             ScaleBiasSoftmaxRows(work, scale, f.bias, &panel_bias_rows);
           }},
          {"gelu", &ff, [&] { naive::GeluInPlace(work); },
           [&] { GeluInPlace(work); }},
          {"layernorm", &x,
           [&] {
             benchmark::DoNotOptimize(naive::LayerNorm(
                 work, f.weights->ln1_gamma, f.weights->ln1_beta));
           },
           [&] {
             benchmark::DoNotOptimize(
                 LayerNorm(work, f.weights->ln1_gamma, f.weights->ln1_beta));
           }},
      };
      for (const Leg& leg : legs) {
        const Matrix& in = *leg.input;
        const auto [naive_ms, dispatched_ms] = bench::InterleavedMinMs(
            [&] {
              work = in;
              leg.naive();
            },
            [&] {
              work = in;
              leg.dispatched();
            });
        const double speedup = naive_ms / dispatched_ms;
        rowwise_worst = std::min(rowwise_worst, speedup);
        json << (first ? "" : ",\n") << "    {\"op\": \"" << leg.op
             << "\", \"rows\": " << in.rows() << ", \"cols\": " << in.cols()
             << ", \"naive_us\": " << naive_ms * 1e3
             << ", \"dispatched_us\": " << dispatched_ms * 1e3
             << ", \"speedup\": " << speedup << "}";
        first = false;
        std::cerr << leg.op << " " << in.rows() << "x" << in.cols()
                  << ": naive " << naive_ms * 1e3 << " us, dispatched "
                  << dispatched_ms * 1e3 << " us, speedup " << speedup
                  << "x\n";
      }
    }
  }
  json << "\n  ],\n";
  json << "  \"rowwise_min_speedup\": " << rowwise_worst << ",\n";

  // Per-op GEMM leg: the eight GEMMs of one gathered SDXL block, at the
  // panel heights of the median production mask (20 rows) and a
  // four-member patch panel (112 rows), single thread, interleaved
  // min-of-N across the ops. q, k and v share the qkv shape; attn_scores
  // runs against K^T (MatMulTransposed). Each op's GFLOP/s sits next to
  // the FMA peak of 12 independent chains at the dispatched ISA: the gap
  // between them is what is left to gain.
  {
    ComputeThreadsScope scope(1);
    const auto& f = Fixture();
    const double peak = FmaPeakGflops();
    json << "  \"fma_peak_gflops\": " << peak << ",\n";
    json << "  \"gemm_per_op\": [\n";
    std::cerr << "FMA peak (12 chains, " << KernelIsa() << "): " << peak
              << " GFLOP/s\n";
    bool first = true;
    for (const int rows : {20, 112}) {
      const Matrix x = BenchMatrix(rows, f.hidden, 8);
      const Matrix h = BenchMatrix(rows, 4 * f.hidden, 9);
      const Matrix p = BenchMatrix(rows, f.x.rows(), 10);
      struct Op {
        const char* name;
        const Matrix* a;
        const Matrix* b;
        bool b_transposed;
      };
      const Op ops[] = {
          {"qkv", &x, &f.weights->wq, false},
          {"attn_scores", &x, &f.cached_k, true},
          {"attn_v", &p, &f.cached_v, false},
          {"out_proj", &x, &f.weights->wo, false},
          {"ff1", &x, &f.weights->w1, false},
          {"ff2", &h, &f.weights->w2, false},
      };
      std::vector<std::function<void()>> calls;
      for (const Op& op : ops) {
        calls.push_back([&op] {
          benchmark::DoNotOptimize(op.b_transposed
                                       ? MatMulTransposed(*op.a, *op.b)
                                       : MatMul(*op.a, *op.b));
        });
      }
      const std::vector<double> ms = bench::InterleavedMinMs(calls);
      for (size_t i = 0; i < std::size(ops); ++i) {
        const Op& op = ops[i];
        const int n = op.b_transposed ? op.b->rows() : op.b->cols();
        const double gflops =
            2.0 * rows * op.a->cols() * n / (ms[i] * 1e-3) / 1e9;
        json << (first ? "" : ",\n") << "    {\"op\": \"" << op.name
             << "\", \"rows\": " << rows << ", \"k\": " << op.a->cols()
             << ", \"n\": " << n << ", \"us\": " << ms[i] * 1e3
             << ", \"gflops\": " << gflops
             << ", \"peak_share\": " << gflops / peak << "}";
        first = false;
        std::cerr << "gemm " << op.name << " " << rows << "x" << op.a->cols()
                  << "x" << n << ": " << ms[i] * 1e3 << " us, " << gflops
                  << " GFLOP/s (" << 100.0 * gflops / peak << "% of peak)\n";
      }
    }
    json << "\n  ],\n";
  }

  // Thread scaling of the blocked GEMM (ff1 shape) and of a whole
  // transformer-block forward. On a host with a single online core the
  // fan-out threads time-share it, so scale_2t ~= 1.0 by construction;
  // hardware_threads above records the ceiling this host imposes.
  const GemmShape& s = kSdxlShapes[1];
  const Matrix a = BenchMatrix(s.m, s.k, 1);
  const Matrix b = BenchMatrix(s.k, s.n, 2);
  double gemm_ms[3] = {0, 0, 0};
  const int counts[3] = {1, 2, 4};
  json << "  \"gemm_thread_scaling\": [\n";
  for (int i = 0; i < 3; ++i) {
    ComputeThreadsScope scope(counts[i]);
    gemm_ms[i] = MedianCallMs([&] { benchmark::DoNotOptimize(MatMul(a, b)); });
    json << "    {\"threads\": " << counts[i] << ", \"shape\": \"" << s.name
         << "\", \"ms\": " << gemm_ms[i] << "}" << (i < 2 ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"gemm_scale_2t\": " << gemm_ms[0] / gemm_ms[1] << ",\n";

  const auto& f = Fixture();
  double block_ms[3] = {0, 0, 0};
  json << "  \"block_forward_thread_scaling\": [\n";
  for (int i = 0; i < 3; ++i) {
    ComputeThreadsScope scope(counts[i]);
    block_ms[i] = MedianCallMs([&] {
      benchmark::DoNotOptimize(
          model::BlockForwardFull(*f.weights, f.x, f.bias));
    });
    json << "    {\"threads\": " << counts[i] << ", \"ms\": " << block_ms[i]
         << "}" << (i < 2 ? "," : "") << "\n";
    std::cerr << "block_forward t=" << counts[i] << ": " << block_ms[i]
              << " ms\n";
  }
  json << "  ],\n";
  json << "  \"block_forward_scale_2t\": " << block_ms[0] / block_ms[1]
       << ",\n";

  // -------------------------------------------------------------------------
  // Gathered sparse compute path (gather→GEMM→scatter). Three levels:
  // the row-gathered GEMM primitive, one transformer block, and a full
  // denoise step. Every level gates on bitwise identity with the dense
  // flow before its timing is trusted.

  // GEMM level: MatMulRows over 10% of the rows vs the full MatMul, ff1
  // shape, single thread. This is the primitive whose cost is O(|rows|).
  {
    ComputeThreadsScope scope(1);
    const GemmShape& g = kSdxlShapes[1];
    const Matrix ga = BenchMatrix(g.m, g.k, 1);
    const Matrix gb = BenchMatrix(g.k, g.n, 2);
    std::vector<int> rows;
    for (int r = 0; r < g.m; r += 10) {
      rows.push_back(r);
    }
    const Matrix dense = MatMul(ga, gb);
    if (!BitwiseEqual(GatherRows(dense, rows), MatMulRows(ga, gb, rows))) {
      std::cerr << "BITWISE DRIFT: MatMulRows vs gathered dense GEMM\n";
      bitwise_ok = false;
    }
    const double dense_ms = MedianCallMs([&] {
      benchmark::DoNotOptimize(MatMul(ga, gb));
    });
    const double rows_ms = MedianCallMs([&] {
      benchmark::DoNotOptimize(MatMulRows(ga, gb, rows));
    });
    json << "  \"gemm_gathered_vs_dense\": {\"shape\": \"" << g.name
         << "\", \"rows_fraction\": "
         << static_cast<double>(rows.size()) / g.m
         << ", \"dense_ms\": " << dense_ms << ", \"gathered_ms\": " << rows_ms
         << ", \"speedup\": " << dense_ms / rows_ms << "},\n";
    std::cerr << "gemm gathered 10% rows: dense " << dense_ms
              << " ms, gathered " << rows_ms << " ms, speedup "
              << dense_ms / rows_ms << "x\n";
  }

  // Block level at m=0.1: BlockForwardMaskedGathered vs the dense
  // mask-aware flows, plus the measured kernel efficiencies the device
  // model consumes. The FISEdit-style figure is what TimingConfig::
  // sparse_kernel_efficiency holds: achieved FLOP/s of BlockForwardSparse
  // relative to the dense full-compute path at the same shape.
  {
    const trace::Mask m10 = f.MaskFor(0.10);
    const Matrix gathered = model::BlockForwardMaskedGathered(
        *f.weights, f.x, f.bias, m10, f.cached_y, f.cached_k, f.cached_v);
    if (!BitwiseEqual(gathered,
                      model::BlockForwardMaskedKV(*f.weights, f.x, f.bias, m10,
                                                  f.cached_y, f.cached_k,
                                                  f.cached_v))) {
      std::cerr << "BITWISE DRIFT: gathered block vs dense masked-KV block\n";
      bitwise_ok = false;
    }
    const auto [dense_y_ms, gathered_ms] = bench::InterleavedMinMs(
        [&] {
          benchmark::DoNotOptimize(
              model::BlockForwardMaskedY(*f.weights, f.x, f.bias, m10,
                                         f.cached_y));
        },
        [&] {
          benchmark::DoNotOptimize(model::BlockForwardMaskedGathered(
              *f.weights, f.x, f.bias, m10, f.cached_y, f.cached_k,
              f.cached_v));
        });
    const double full_ms = MedianCallMs([&] {
      benchmark::DoNotOptimize(
          model::BlockForwardFull(*f.weights, f.x, f.bias));
    });
    const int L = f.grid * f.grid;
    const double ratio = m10.ratio();
    const double full_rate =
        model::FlopsFullBlock(L, f.hidden) / full_ms;
    const double gathered_eff =
        model::FlopsYCacheGatheredBlock(L, f.hidden, ratio) / gathered_ms /
        full_rate;
    // FISEdit-style sparse kernel, averaged over two mask ratios.
    double sparse_eff_sum = 0.0;
    for (const double mr : {0.1, 0.2}) {
      const trace::Mask mask = f.MaskFor(mr);
      const Matrix xm = GatherRows(f.x, mask.masked_tokens);
      const int n = xm.rows();
      Matrix sub_bias(n, n);
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          sub_bias.at(i, j) =
              f.bias.at(mask.masked_tokens[i], mask.masked_tokens[j]);
        }
      }
      const double sparse_ms = MedianCallMs([&] {
        benchmark::DoNotOptimize(
            model::BlockForwardSparse(*f.weights, xm, sub_bias));
      });
      sparse_eff_sum += model::FlopsSparseBlock(L, f.hidden, mask.ratio()) /
                        sparse_ms / full_rate;
    }
    const double sparse_eff = sparse_eff_sum / 2.0;
    json << "  \"block_gathered_vs_dense\": {\"mask_ratio\": " << ratio
         << ", \"dense_y_ms\": " << dense_y_ms
         << ", \"gathered_ms\": " << gathered_ms
         << ", \"speedup\": " << dense_y_ms / gathered_ms << "},\n";
    json << "  \"gathered_kernel_efficiency\": " << gathered_eff << ",\n";
    json << "  \"sparse_kernel_efficiency_measured\": " << sparse_eff
         << ",\n";
    std::cerr << "block m=0.1: dense-Y " << dense_y_ms << " ms, gathered "
              << gathered_ms << " ms, speedup " << dense_y_ms / gathered_ms
              << "x; efficiency gathered " << gathered_eff << ", sparse "
              << sparse_eff << "\n";
  }

  // Step level: one RunStepRange step, dense vs gathered, at a bench-scale
  // shape (grid 20, hidden 512) where the Y-mode K/V recompute dominates —
  // the hot path the sparse option exists for. hidden >> grid keeps the
  // O(m·L^2) attention share small (the FLOP ratio nears its 2.67
  // asymptote), hidden = 512 keeps the weight panels within reach of L2
  // (wider hidden turns the panel walk TLB-bound), and grid 20 gathers 40
  // masked rows at m = 0.1. The full-denoise outputs are compared bitwise
  // in BOTH mask-aware modes before timing.
  {
    model::NumericsConfig cfg;
    cfg.grid_h = 20;
    cfg.grid_w = 20;
    cfg.hidden = 512;
    cfg.num_blocks = 3;
    cfg.num_steps = 2;
    const model::DiffusionModel dm(cfg);
    const Matrix tmpl = dm.EncodeTemplate(0);
    const model::ActivationRecord rec = dm.Register(0, /*record_kv=*/true);
    double speedup_m10 = 0.0;
    json << "  \"step_latency_sparse_compute\": [\n";
    const double ratios[] = {0.1, 0.3, 0.5};
    for (size_t i = 0; i < std::size(ratios); ++i) {
      Rng rng(17);
      const trace::Mask mask =
          trace::GenerateBlobMask(cfg.grid_h, cfg.grid_w, ratios[i], rng);
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
          std::cerr << "BITWISE DRIFT: sparse denoise, mode "
                    << (mode == model::ComputeMode::kMaskAwareY ? "Y" : "KV")
                    << ", m=" << ratios[i] << "\n";
          bitwise_ok = false;
        }
      }
      opts.mode = model::ComputeMode::kMaskAwareY;
      model::DiffusionModel::RunOptions dense_opts = opts;
      dense_opts.sparse_compute = false;
      model::DiffusionModel::RunOptions sparse_opts = opts;
      sparse_opts.sparse_compute = true;
      const auto [dense_ms, sparse_ms] = bench::InterleavedMinMs(
          [&] {
            benchmark::DoNotOptimize(dm.RunStepRange(latent, dense_opts, 0, 1));
          },
          [&] {
            benchmark::DoNotOptimize(
                dm.RunStepRange(latent, sparse_opts, 0, 1));
          });
      const double speedup = dense_ms / sparse_ms;
      if (i == 0) {
        speedup_m10 = speedup;
      }
      json << "    {\"mask_ratio\": " << mask.ratio()
           << ", \"dense_step_ms\": " << dense_ms
           << ", \"sparse_step_ms\": " << sparse_ms
           << ", \"speedup\": " << speedup << "}"
           << (i + 1 < std::size(ratios) ? "," : "") << "\n";
      std::cerr << "step m=" << ratios[i] << ": dense " << dense_ms
                << " ms, sparse " << sparse_ms << " ms, speedup " << speedup
                << "x\n";
    }
    json << "  ],\n";
    json << "  \"sparse_step_speedup_m10\": " << speedup_m10 << ",\n";
  }

  EditWarmStepLeg(json);

  json << "  \"bitwise_gathered_vs_dense_ok\": "
       << (bitwise_ok ? "true" : "false") << "\n";
  json << "}\n";

  std::ofstream out("BENCH_kernels.json");
  out << json.str();
  std::cerr << "wrote BENCH_kernels.json\n";
  return bitwise_ok;
}

}  // namespace
}  // namespace flashps

int main(int argc, char** argv) {
  bool json_only = false;
  // Strip --json-only before google-benchmark sees (and rejects) it.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-only") == 0) {
      json_only = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!json_only) {
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  // Non-zero exit when a gathered-vs-dense bitwise gate fails: numbers
  // from a drifting sparse path must not land in BENCH_kernels.json
  // unflagged.
  return flashps::WriteKernelsJson() ? 0 : 1;
}
