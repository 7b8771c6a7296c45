// The gathered-panel sparse compute path (gather→GEMM→scatter), validated
// bitwise against the dense kernels and flows it replaces at every level:
// indexed-row GEMMs vs gather-then-GEMM, BlockForwardMaskedGathered vs the
// dense mask-aware block flows, and whole denoise runs with sparse_compute
// on vs off — including the edge masks (empty, full, single-row), partial
// cache plans, and thread-count invariance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "src/common/parallel_for.h"
#include "src/model/diffusion_model.h"
#include "src/model/transformer.h"
#include "src/tensor/matrix.h"
#include "src/tensor/naive.h"
#include "tests/row_gemm.h"

namespace flashps {
namespace {

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return false;
  }
  return a.size() == 0 ||
         std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

Matrix RandomMatrix(int rows, int cols, uint64_t seed, float stddev = 1.0f) {
  Rng rng(seed);
  Matrix m(rows, cols);
  m.FillNormal(rng, stddev);
  return m;
}

// Random distinct sorted row subset of [0, rows) with ~ratio coverage.
std::vector<int> RandomRows(int rows, double ratio, Rng& rng) {
  std::vector<int> out;
  for (int r = 0; r < rows; ++r) {
    if (rng.Uniform(0.0, 1.0) < ratio) {
      out.push_back(r);
    }
  }
  return out;
}

trace::Mask MakeMask(int grid_h, int grid_w, const std::vector<int>& masked) {
  trace::Mask mask;
  mask.grid_h = grid_h;
  mask.grid_w = grid_w;
  mask.masked_tokens = masked;
  std::vector<bool> is_masked(static_cast<size_t>(grid_h * grid_w), false);
  for (const int t : masked) {
    is_masked[static_cast<size_t>(t)] = true;
  }
  for (int t = 0; t < grid_h * grid_w; ++t) {
    if (!is_masked[static_cast<size_t>(t)]) {
      mask.unmasked_tokens.push_back(t);
    }
  }
  return mask;
}

// ---------------------------------------------------------------------------
// Kernel level: the fused gather/scatter GEMMs vs their unfused compositions.

TEST(SparseComputeKernelTest, GatherGemmMatchesGatherThenMatMul) {
  Rng rng(0xA11CE);
  for (const int m : {1, 7, 64, 130}) {
    for (const int k : {8, 96}) {
      const Matrix a = RandomMatrix(m, k, 1000 + static_cast<uint64_t>(m));
      const Matrix b = RandomMatrix(k, 48, 2000 + static_cast<uint64_t>(k));
      const Matrix dense = MatMul(a, b);
      for (const double ratio : {0.1, 0.5, 0.9}) {
        const std::vector<int> rows = RandomRows(m, ratio, rng);
        const Matrix got = GatherGemm(a, b, rows);
        ASSERT_EQ(got.rows(), static_cast<int>(rows.size()));
        for (size_t i = 0; i < rows.size(); ++i) {
          for (int j = 0; j < dense.cols(); ++j) {
            ASSERT_EQ(got.at(static_cast<int>(i), j), dense.at(rows[i], j))
                << "m=" << m << " k=" << k << " row " << rows[i];
          }
        }
      }
    }
  }
}

TEST(SparseComputeKernelTest, ScatterGemmMatchesDenseThenMask) {
  // Property: scattering the gathered panel's GEMM into a prefilled output
  // equals computing the dense GEMM and masking — written rows bitwise from
  // MatMul, untouched rows bitwise from the prefill. Random masks.
  Rng rng(0xB0B);
  for (int trial = 0; trial < 20; ++trial) {
    const int m = 3 + static_cast<int>(rng.Uniform(0.0, 150.0));
    const int k = 4 + static_cast<int>(rng.Uniform(0.0, 100.0));
    const int n = 4 + static_cast<int>(rng.Uniform(0.0, 80.0));
    const Matrix x = RandomMatrix(m, k, 31 * static_cast<uint64_t>(trial) + 1);
    const Matrix b = RandomMatrix(k, n, 37 * static_cast<uint64_t>(trial) + 2);
    const std::vector<int> rows = RandomRows(m, rng.Uniform(0.0, 1.0), rng);
    const Matrix panel = GatherRows(x, rows);
    const Matrix cached =
        RandomMatrix(m, n, 41 * static_cast<uint64_t>(trial) + 3);

    Matrix out = cached;
    ScatterGemm(panel, b, rows, out);

    const Matrix dense = MatMul(x, b);
    std::vector<bool> written(static_cast<size_t>(m), false);
    for (const int r : rows) {
      written[static_cast<size_t>(r)] = true;
    }
    for (int r = 0; r < m; ++r) {
      const Matrix& want = written[static_cast<size_t>(r)] ? dense : cached;
      for (int j = 0; j < n; ++j) {
        ASSERT_EQ(out.at(r, j), want.at(r, j))
            << "trial " << trial << " row " << r << " written "
            << written[static_cast<size_t>(r)];
      }
    }
  }
}

TEST(SparseComputeKernelTest, EmptyFullAndSingleRowSubsets) {
  const Matrix a = RandomMatrix(33, 20, 7);
  const Matrix b = RandomMatrix(20, 16, 8);
  const Matrix dense = MatMul(a, b);

  const Matrix empty = GatherGemm(a, b, {});
  EXPECT_EQ(empty.rows(), 0);
  EXPECT_EQ(empty.cols(), 16);

  std::vector<int> all(33);
  for (int i = 0; i < 33; ++i) {
    all[static_cast<size_t>(i)] = i;
  }
  EXPECT_TRUE(BitwiseEqual(GatherGemm(a, b, all), dense));

  for (const int r : {0, 17, 32}) {
    const Matrix one = GatherGemm(a, b, {r});
    ASSERT_EQ(one.rows(), 1);
    for (int j = 0; j < 16; ++j) {
      EXPECT_EQ(one.at(0, j), dense.at(r, j));
    }
  }

  // Scatter with an empty panel must leave the output untouched.
  Matrix out = RandomMatrix(33, 16, 9);
  const Matrix before = out;
  ScatterGemm(Matrix(0, 20), b, {}, out);
  EXPECT_TRUE(BitwiseEqual(out, before));
}

TEST(SparseComputeKernelTest, ThreadCountInvariance) {
  // Large enough to cross the kernels' parallel dispatch threshold.
  const Matrix a = RandomMatrix(256, 192, 11);
  const Matrix b = RandomMatrix(192, 128, 12);
  Rng rng(13);
  const std::vector<int> rows = RandomRows(256, 0.4, rng);
  const Matrix panel = GatherRows(a, rows);
  const Matrix prefill = RandomMatrix(256, 128, 14);

  Matrix serial_gather, serial_scatter;
  {
    ComputeThreadsScope scope(1);
    serial_gather = GatherGemm(a, b, rows);
    serial_scatter = prefill;
    ScatterGemm(panel, b, rows, serial_scatter);
  }
  for (const int threads : {2, 5, 8}) {
    ComputeThreadsScope scope(threads);
    const Matrix gather = GatherGemm(a, b, rows);
    Matrix scatter = prefill;
    ScatterGemm(panel, b, rows, scatter);
    EXPECT_TRUE(BitwiseEqual(gather, serial_gather)) << threads << " threads";
    EXPECT_TRUE(BitwiseEqual(scatter, serial_scatter)) << threads << " threads";
  }
}

TEST(SparseComputeKernelTest, MatchesNaiveReferenceWithinTolerance) {
  // Against the scalar reference the blocked kernels may differ only by
  // FMA-contraction rounding (same bound the kernel-equivalence suite uses
  // for the dense kernels).
  const Matrix a = RandomMatrix(120, 100, 21);
  const Matrix b = RandomMatrix(100, 64, 22);
  Rng rng(23);
  const std::vector<int> rows = RandomRows(120, 0.3, rng);
  const Matrix got = GatherGemm(a, b, rows);
  const Matrix want = naive::MatMul(GatherRows(a, rows), b);
  ASSERT_EQ(got.rows(), want.rows());
  for (int r = 0; r < got.rows(); ++r) {
    for (int j = 0; j < got.cols(); ++j) {
      EXPECT_NEAR(got.at(r, j), want.at(r, j),
                  1e-4 * (1.0 + std::abs(want.at(r, j))));
    }
  }
}

// ---------------------------------------------------------------------------
// Block level: BlockForwardMaskedGathered vs the dense mask-aware flows.

struct BlockFixture {
  static constexpr int kGrid = 8;
  static constexpr int kTokens = kGrid * kGrid;
  static constexpr int kHidden = 24;

  BlockFixture() : rng(404), weights(model::BlockWeights::Random(kHidden, rng)) {
    bias = model::MakeDistanceBias(kGrid, kGrid, 0.5f);
    x0 = RandomMatrix(kTokens, kHidden, 71);
    cached_y = model::BlockForwardFull(weights, x0, bias, &cached_k, &cached_v);
  }

  // An input satisfying the replenish invariant wrt x0: unmasked rows equal
  // x0's, masked rows are fresh.
  Matrix PristineInput(const trace::Mask& mask, uint64_t seed) const {
    Matrix x = x0;
    const Matrix fresh = RandomMatrix(kTokens, kHidden, seed);
    ScatterRows(x, GatherRows(fresh, mask.masked_tokens), mask.masked_tokens);
    return x;
  }

  Rng rng;
  model::BlockWeights weights;
  Matrix bias;
  Matrix x0;
  Matrix cached_y, cached_k, cached_v;
};

TEST(SparseComputeBlockTest, GatheredMatchesMaskedKVForAnyInput) {
  BlockFixture f;
  Rng mask_rng(1);
  for (const double ratio : {0.1, 0.4, 0.8}) {
    const trace::Mask mask = trace::GenerateBlobMask(
        BlockFixture::kGrid, BlockFixture::kGrid, ratio, mask_rng);
    // Deliberately NOT pristine: arbitrary input.
    const Matrix x = RandomMatrix(BlockFixture::kTokens, BlockFixture::kHidden,
                                  900 + static_cast<uint64_t>(100 * ratio));
    const Matrix dense = model::BlockForwardMaskedKV(
        f.weights, x, f.bias, mask, f.cached_y, f.cached_k, f.cached_v);
    const Matrix gathered = model::BlockForwardMaskedGathered(
        f.weights, x, f.bias, mask, f.cached_y, f.cached_k, f.cached_v);
    EXPECT_TRUE(BitwiseEqual(gathered, dense)) << "ratio " << ratio;
  }
}

TEST(SparseComputeBlockTest, GatheredMatchesMaskedYUnderReplenishInvariant) {
  BlockFixture f;
  Rng mask_rng(2);
  for (const double ratio : {0.1, 0.4, 0.8}) {
    const trace::Mask mask = trace::GenerateBlobMask(
        BlockFixture::kGrid, BlockFixture::kGrid, ratio, mask_rng);
    const Matrix x =
        f.PristineInput(mask, 700 + static_cast<uint64_t>(100 * ratio));
    const Matrix dense =
        model::BlockForwardMaskedY(f.weights, x, f.bias, mask, f.cached_y);
    const Matrix gathered = model::BlockForwardMaskedGathered(
        f.weights, x, f.bias, mask, f.cached_y, f.cached_k, f.cached_v);
    EXPECT_TRUE(BitwiseEqual(gathered, dense)) << "ratio " << ratio;
  }
}

TEST(SparseComputeBlockTest, EdgeMasksEmptyFullSingle) {
  BlockFixture f;
  std::vector<int> all(BlockFixture::kTokens);
  for (int t = 0; t < BlockFixture::kTokens; ++t) {
    all[static_cast<size_t>(t)] = t;
  }
  const std::vector<std::vector<int>> masked_sets = {
      {}, all, {0}, {BlockFixture::kTokens - 1}, {17}};
  for (const auto& masked : masked_sets) {
    const trace::Mask mask =
        MakeMask(BlockFixture::kGrid, BlockFixture::kGrid, masked);
    const Matrix x = f.PristineInput(mask, 50 + masked.size());
    const Matrix dense_y =
        model::BlockForwardMaskedY(f.weights, x, f.bias, mask, f.cached_y);
    const Matrix dense_kv = model::BlockForwardMaskedKV(
        f.weights, x, f.bias, mask, f.cached_y, f.cached_k, f.cached_v);
    const Matrix gathered = model::BlockForwardMaskedGathered(
        f.weights, x, f.bias, mask, f.cached_y, f.cached_k, f.cached_v);
    EXPECT_TRUE(BitwiseEqual(gathered, dense_y)) << masked.size() << " masked";
    EXPECT_TRUE(BitwiseEqual(gathered, dense_kv)) << masked.size() << " masked";
  }
}

// ---------------------------------------------------------------------------
// Run level: whole denoise trajectories with sparse_compute on vs off.

struct RunFixture {
  RunFixture()
      : config(model::NumericsConfig::ForTests()),
        m(config),
        cache_kv(m.Register(0, /*record_kv=*/true)),
        cache_y(m.Register(0, /*record_kv=*/false)) {}

  Matrix Run(model::ComputeMode mode, const trace::Mask& mask, bool sparse,
             const model::ActivationRecord& cache,
             std::vector<bool> use_cache_blocks = {}) const {
    model::DiffusionModel::RunOptions opts;
    opts.mode = mode;
    opts.cache = &cache;
    opts.mask = &mask;
    opts.sparse_compute = sparse;
    opts.use_cache_blocks = std::move(use_cache_blocks);
    const Matrix tmpl = m.EncodeTemplate(0);
    Matrix latent = m.InitEditLatent(tmpl, mask, /*prompt_seed=*/5);
    return m.RunDenoise(std::move(latent), opts).final_latent;
  }

  model::NumericsConfig config;
  model::DiffusionModel m;
  model::ActivationRecord cache_kv;
  model::ActivationRecord cache_y;
};

TEST(SparseComputeRunTest, DenoiseBitwiseAcrossMaskRatiosBothModes) {
  RunFixture f;
  Rng mask_rng(9);
  for (const double ratio : {0.05, 0.1, 0.3, 0.6, 0.9}) {
    const trace::Mask mask = trace::GenerateBlobMask(
        f.config.grid_h, f.config.grid_w, ratio, mask_rng);
    for (const auto mode : {model::ComputeMode::kMaskAwareY,
                            model::ComputeMode::kMaskAwareKV}) {
      const Matrix dense = f.Run(mode, mask, /*sparse=*/false, f.cache_kv);
      const Matrix sparse = f.Run(mode, mask, /*sparse=*/true, f.cache_kv);
      EXPECT_TRUE(BitwiseEqual(sparse, dense))
          << model::ToString(mode) << " ratio " << ratio;
    }
  }
}

TEST(SparseComputeRunTest, DenoiseBitwiseOnEdgeMasks) {
  RunFixture f;
  std::vector<int> all(f.config.tokens());
  for (int t = 0; t < f.config.tokens(); ++t) {
    all[static_cast<size_t>(t)] = t;
  }
  for (const auto& masked :
       std::vector<std::vector<int>>{{}, all, {0}, {f.config.tokens() / 2}}) {
    const trace::Mask mask = MakeMask(f.config.grid_h, f.config.grid_w, masked);
    for (const auto mode : {model::ComputeMode::kMaskAwareY,
                            model::ComputeMode::kMaskAwareKV}) {
      const Matrix dense = f.Run(mode, mask, /*sparse=*/false, f.cache_kv);
      const Matrix sparse = f.Run(mode, mask, /*sparse=*/true, f.cache_kv);
      EXPECT_TRUE(BitwiseEqual(sparse, dense))
          << model::ToString(mode) << " " << masked.size() << " masked";
    }
  }
}

TEST(SparseComputeRunTest, PartialCachePlansFallBackBitwise) {
  // Full-computed blocks break the replenish invariant; the step loop must
  // fall back to the dense path exactly where needed and still match the
  // dense run bitwise. Plans cover: break mid-step (restored by the next
  // cached block), break at the last block (permanent latent drift), and
  // first block uncached.
  RunFixture f;
  Rng mask_rng(10);
  const trace::Mask mask =
      trace::GenerateBlobMask(f.config.grid_h, f.config.grid_w, 0.2, mask_rng);
  const int blocks = f.config.num_blocks;
  std::vector<std::vector<bool>> plans;
  plans.push_back(std::vector<bool>(static_cast<size_t>(blocks), true));
  for (int off : {0, 1, blocks - 1}) {
    std::vector<bool> plan(static_cast<size_t>(blocks), true);
    plan[static_cast<size_t>(off)] = false;
    plans.push_back(plan);
  }
  for (const auto& plan : plans) {
    for (const auto mode : {model::ComputeMode::kMaskAwareY,
                            model::ComputeMode::kMaskAwareKV}) {
      const Matrix dense = f.Run(mode, mask, false, f.cache_kv, plan);
      const Matrix sparse = f.Run(mode, mask, true, f.cache_kv, plan);
      EXPECT_TRUE(BitwiseEqual(sparse, dense)) << model::ToString(mode);
    }
  }
}

TEST(SparseComputeRunTest, YModeWithoutKvRecordDegradesToDense) {
  // A Y-only record (e.g. from a remote tier that never stored K/V) cannot
  // feed the gathered path; sparse_compute must silently serve the dense
  // flow instead of crashing or drifting.
  RunFixture f;
  Rng mask_rng(11);
  const trace::Mask mask =
      trace::GenerateBlobMask(f.config.grid_h, f.config.grid_w, 0.25, mask_rng);
  const Matrix dense =
      f.Run(model::ComputeMode::kMaskAwareY, mask, false, f.cache_y);
  const Matrix sparse =
      f.Run(model::ComputeMode::kMaskAwareY, mask, true, f.cache_y);
  EXPECT_TRUE(BitwiseEqual(sparse, dense));
}

TEST(SparseComputeRunTest, StepRangeChunksMatchWholeRun) {
  // The serving engines advance one step at a time; chunked sparse runs
  // must land on the same bits as one whole-trajectory call.
  RunFixture f;
  Rng mask_rng(12);
  const trace::Mask mask =
      trace::GenerateBlobMask(f.config.grid_h, f.config.grid_w, 0.15, mask_rng);
  model::DiffusionModel::RunOptions opts;
  opts.mode = model::ComputeMode::kMaskAwareY;
  opts.cache = &f.cache_kv;
  opts.mask = &mask;
  opts.sparse_compute = true;

  const Matrix tmpl = f.m.EncodeTemplate(0);
  const Matrix init = f.m.InitEditLatent(tmpl, mask, /*prompt_seed=*/5);

  Matrix chunked = init;
  for (int s = 0; s < f.config.num_steps; ++s) {
    chunked = f.m.RunStepRange(std::move(chunked), opts, s, s + 1);
  }
  const Matrix whole =
      f.m.RunStepRange(init, opts, 0, f.config.num_steps);
  EXPECT_TRUE(BitwiseEqual(chunked, whole));

  const Matrix dense_whole = [&] {
    model::DiffusionModel::RunOptions dense_opts = opts;
    dense_opts.sparse_compute = false;
    return f.m.RunStepRange(init, dense_opts, 0, f.config.num_steps);
  }();
  EXPECT_TRUE(BitwiseEqual(whole, dense_whole));
}

// ---------------------------------------------------------------------------
// Batch level: the cross-request (and cross-resolution) gathered step panel.

TEST(SparseComputeBatchTest, StepBatchGatheredMatchesSoloAcrossResolutions) {
  // Three models sharing one weight family (equal weight_seed, hidden,
  // num_blocks) at three latent grids. Advancing all requests through the
  // shared panel must land every latent on the same bits as solo
  // per-request RunStepRange calls — the property that makes hybrid-
  // resolution patch batching free of quality drift.
  const model::NumericsConfig native = model::NumericsConfig::ForTests();
  model::NumericsConfig small = native;
  small.grid_h = 8;
  small.grid_w = 8;
  model::NumericsConfig large = native;
  large.grid_h = 16;
  large.grid_w = 12;
  const model::DiffusionModel m_native(native);
  const model::DiffusionModel m_small(small);
  const model::DiffusionModel m_large(large);

  struct Member {
    const model::DiffusionModel* m;
    const model::NumericsConfig* c;
    double ratio;
    uint64_t seed;
  };
  const std::vector<Member> members = {
      {&m_native, &native, 0.2, 41},
      {&m_small, &small, 0.5, 42},
      {&m_large, &large, 0.1, 43},
      {&m_native, &native, 0.7, 44},  // Two requests on one model.
  };

  Rng mask_rng(0xBA7C4);
  std::vector<model::ActivationRecord> caches;
  std::vector<trace::Mask> masks;
  std::vector<Matrix> solo;
  std::vector<Matrix> batched;
  caches.reserve(members.size());
  for (const Member& member : members) {
    caches.push_back(member.m->Register(0, /*record_kv=*/true));
    masks.push_back(trace::GenerateBlobMask(member.c->grid_h, member.c->grid_w,
                                            member.ratio, mask_rng));
    const Matrix tmpl = member.m->EncodeTemplate(0);
    Matrix latent = member.m->InitEditLatent(tmpl, masks.back(), member.seed);
    solo.push_back(latent);
    batched.push_back(std::move(latent));
  }

  for (int step = 0; step < native.num_steps; ++step) {
    std::vector<model::DiffusionModel::StepBatchMember> panel;
    for (size_t i = 0; i < members.size(); ++i) {
      panel.push_back({members[i].m, &batched[i], &masks[i], &caches[i], step});
    }
    model::DiffusionModel::RunStepBatchGathered(panel);
    for (size_t i = 0; i < members.size(); ++i) {
      model::DiffusionModel::RunOptions opts;
      opts.mode = model::ComputeMode::kMaskAwareY;
      opts.cache = &caches[i];
      opts.mask = &masks[i];
      opts.sparse_compute = true;
      solo[i] = members[i].m->RunStepRange(std::move(solo[i]), opts, step,
                                           step + 1);
      ASSERT_TRUE(BitwiseEqual(batched[i], solo[i]))
          << "member " << i << " step " << step;
    }
  }
}

TEST(SparseComputeBatchTest, SingleMemberPanelIsTheSoloPath) {
  // Degenerate batch: a panel of one must be exactly the solo step.
  const model::NumericsConfig config = model::NumericsConfig::ForTests();
  const model::DiffusionModel m(config);
  const model::ActivationRecord cache = m.Register(0, /*record_kv=*/true);
  Rng mask_rng(0x50F0);
  const trace::Mask mask =
      trace::GenerateBlobMask(config.grid_h, config.grid_w, 0.3, mask_rng);
  const Matrix tmpl = m.EncodeTemplate(0);
  Matrix batched = m.InitEditLatent(tmpl, mask, /*prompt_seed=*/6);
  Matrix solo = batched;

  model::DiffusionModel::RunOptions opts;
  opts.mode = model::ComputeMode::kMaskAwareY;
  opts.cache = &cache;
  opts.mask = &mask;
  opts.sparse_compute = true;
  for (int step = 0; step < config.num_steps; ++step) {
    std::vector<model::DiffusionModel::StepBatchMember> panel = {
        {&m, &batched, &mask, &cache, step}};
    model::DiffusionModel::RunStepBatchGathered(panel);
    solo = m.RunStepRange(std::move(solo), opts, step, step + 1);
  }
  EXPECT_TRUE(BitwiseEqual(batched, solo));
}

// A copy of `record` with NaN in every byte the copy-free step must never
// read: every non-final Y, and the masked rows of the last Y and of every
// K and V.
model::ActivationRecord PoisonUnreadBytes(const model::ActivationRecord& record,
                                          const trace::Mask& mask) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  model::ActivationRecord poisoned;
  poisoned.steps = record.steps;
  for (model::StepActivations& step : poisoned.steps) {
    for (size_t b = 0; b + 1 < step.y.size(); ++b) {
      step.y[b].FillConstant(nan);
    }
    auto poison_rows = [&](Matrix& m) {
      for (const int t : mask.masked_tokens) {
        std::fill(m.row(t), m.row(t) + m.cols(), nan);
      }
    };
    poison_rows(step.y.back());
    for (size_t b = 0; b < step.k.size(); ++b) {
      poison_rows(step.k[b]);
      poison_rows(step.v[b]);
    }
  }
  return poisoned;
}

bool HasNaN(const Matrix& m) {
  for (size_t i = 0; i < m.size(); ++i) {
    if (std::isnan(m.data()[i])) {
      return true;
    }
  }
  return false;
}

TEST(SparseComputeRunTest, CopyFreeStepNeverReadsPoisonedRecordBytes) {
  RunFixture f;
  Rng mask_rng(14);
  const trace::Mask mask =
      trace::GenerateBlobMask(f.config.grid_h, f.config.grid_w, 0.2, mask_rng);
  const model::ActivationRecord poisoned = PoisonUnreadBytes(f.cache_kv, mask);
  for (const auto mode : {model::ComputeMode::kMaskAwareY,
                          model::ComputeMode::kMaskAwareKV}) {
    const Matrix clean = f.Run(mode, mask, /*sparse=*/true, f.cache_kv);
    EXPECT_TRUE(BitwiseEqual(f.Run(mode, mask, /*sparse=*/true, poisoned),
                             clean))
        << model::ToString(mode);
  }
  // Step by step, as the serving engines run it.
  model::DiffusionModel::RunOptions opts;
  opts.mode = model::ComputeMode::kMaskAwareY;
  opts.mask = &mask;
  opts.sparse_compute = true;
  const Matrix init =
      f.m.InitEditLatent(f.m.EncodeTemplate(0), mask, /*prompt_seed=*/5);
  Matrix clean = init;
  Matrix dirty = init;
  for (int s = 0; s < f.config.num_steps; ++s) {
    opts.cache = &f.cache_kv;
    clean = f.m.RunStepRange(std::move(clean), opts, s, s + 1);
    opts.cache = &poisoned;
    dirty = f.m.RunStepRange(std::move(dirty), opts, s, s + 1);
  }
  EXPECT_TRUE(BitwiseEqual(dirty, clean));
  // The poison is live: the dense flow, which reads every Y, picks it up.
  EXPECT_TRUE(HasNaN(f.Run(model::ComputeMode::kMaskAwareY, mask,
                           /*sparse=*/false, poisoned)));
}

TEST(SparseComputeBatchTest, CopyFreePanelNeverReadsPoisonedRecordBytes) {
  // A mixed-resolution panel holding an empty-mask and a full-mask member
  // steps to the same bits on poisoned records as on clean ones.
  const model::NumericsConfig native = model::NumericsConfig::ForTests();
  model::NumericsConfig small = native;
  small.grid_h = 8;
  small.grid_w = 8;
  model::NumericsConfig large = native;
  large.grid_h = 16;
  large.grid_w = 12;
  const model::DiffusionModel m_native(native);
  const model::DiffusionModel m_small(small);
  const model::DiffusionModel m_large(large);
  std::vector<int> all(static_cast<size_t>(small.tokens()));
  for (int t = 0; t < small.tokens(); ++t) {
    all[static_cast<size_t>(t)] = t;
  }
  Rng mask_rng(0x9015);
  const std::vector<const model::DiffusionModel*> models = {
      &m_native, &m_large, &m_small, &m_native};
  const std::vector<trace::Mask> masks = {
      trace::GenerateBlobMask(native.grid_h, native.grid_w, 0.2, mask_rng),
      MakeMask(large.grid_h, large.grid_w, {}),
      MakeMask(small.grid_h, small.grid_w, all),
      trace::GenerateBlobMask(native.grid_h, native.grid_w, 0.6, mask_rng)};
  std::vector<model::ActivationRecord> clean_records;
  std::vector<model::ActivationRecord> poisoned_records;
  std::vector<Matrix> clean;
  std::vector<Matrix> dirty;
  for (size_t i = 0; i < models.size(); ++i) {
    clean_records.push_back(models[i]->Register(0, /*record_kv=*/true));
    poisoned_records.push_back(PoisonUnreadBytes(clean_records[i], masks[i]));
    clean.push_back(models[i]->InitEditLatent(models[i]->EncodeTemplate(0),
                                              masks[i], 60 + i));
    dirty.push_back(clean.back());
  }
  for (int step = 0; step < native.num_steps; ++step) {
    std::vector<model::DiffusionModel::StepBatchMember> clean_panel;
    std::vector<model::DiffusionModel::StepBatchMember> dirty_panel;
    for (size_t i = 0; i < models.size(); ++i) {
      clean_panel.push_back(
          {models[i], &clean[i], &masks[i], &clean_records[i], step});
      dirty_panel.push_back(
          {models[i], &dirty[i], &masks[i], &poisoned_records[i], step});
    }
    model::DiffusionModel::RunStepBatchGathered(clean_panel);
    model::DiffusionModel::RunStepBatchGathered(dirty_panel);
    for (size_t i = 0; i < models.size(); ++i) {
      ASSERT_TRUE(BitwiseEqual(dirty[i], clean[i]))
          << "member " << i << " step " << step;
    }
  }
  for (const Matrix& latent : clean) {
    EXPECT_FALSE(HasNaN(latent));
  }
}

TEST(SparseComputeRunTest, ThreadCountInvariance) {
  RunFixture f;
  Rng mask_rng(13);
  const trace::Mask mask =
      trace::GenerateBlobMask(f.config.grid_h, f.config.grid_w, 0.2, mask_rng);
  Matrix serial;
  {
    ComputeThreadsScope scope(1);
    serial = f.Run(model::ComputeMode::kMaskAwareY, mask, true, f.cache_kv);
  }
  ComputeThreadsScope scope(4);
  const Matrix threaded =
      f.Run(model::ComputeMode::kMaskAwareY, mask, true, f.cache_kv);
  EXPECT_TRUE(BitwiseEqual(threaded, serial));
}

}  // namespace
}  // namespace flashps
