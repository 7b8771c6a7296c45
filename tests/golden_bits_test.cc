// Golden bits: pins the numerics of the whole denoise path across commits.
// Every other bitwise gate compares two paths of one binary (sparse vs
// dense, panel vs solo, threaded vs serial), so a kernel change that moved
// every output the same way — say, splitting a GEMM's k chain into two
// accumulators — would pass them all. This suite hashes fixed runs and
// compares them against constants recorded before such changes.
//
// Two constant sets: the generic level rounds each multiply and add, the
// FMA levels (v3, v4) contract them, and the two FMA levels agree bit for
// bit. scripts/check.sh runs the suite at every ISA level the CPU has.
//
// If a change is meant to move the bits, record the new constants from
// the failure messages at every level and say why in the commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/model/diffusion_model.h"
#include "src/tensor/matrix.h"
#include "src/trace/workload.h"

namespace flashps {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

// FNV-1a over a matrix's shape and raw float bytes.
uint64_t Fnv1a(const Matrix& m, uint64_t h) {
  auto mix = [&h](const void* p, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h = (h ^ bytes[i]) * kFnvPrime;
    }
  };
  const int shape[2] = {m.rows(), m.cols()};
  mix(shape, sizeof(shape));
  mix(m.data(), m.bytes());
  return h;
}

struct Golden {
  uint64_t record;
  uint64_t solo;
  uint64_t batch;
};

const Golden& Expected() {
  static const Golden kGeneric = {0x83560713b1cca2c8ULL, 0x4f6e77fc0edb4c71ULL,
                                  0x9fe8391aa8db6a6cULL};
  static const Golden kFma = {0xf6eb0022c9b501feULL, 0xc5900ad8219673caULL,
                              0xe72550dfa3a3ece1ULL};
  return std::strcmp(KernelIsa(), "generic") == 0 ? kGeneric : kFma;
}

struct GoldenFixture {
  GoldenFixture()
      : config(model::NumericsConfig::ForTests()),
        m(config),
        record(m.Register(kTemplate, /*record_kv=*/true)) {}

  trace::Mask Mask(double ratio, Rng& rng) const {
    return trace::GenerateBlobMask(config.grid_h, config.grid_w, ratio, rng);
  }

  model::DiffusionModel::RunOptions SparseOptions(
      const trace::Mask& mask) const {
    model::DiffusionModel::RunOptions opts;
    opts.mode = model::ComputeMode::kMaskAwareY;
    opts.cache = &record;
    opts.mask = &mask;
    opts.sparse_compute = true;
    return opts;
  }

  static constexpr int kTemplate = 3;
  static constexpr uint64_t kMaskSeed = 0x601D;
  static constexpr uint64_t kPromptSeed = 17;

  model::NumericsConfig config;
  model::DiffusionModel m;
  model::ActivationRecord record;
};

TEST(GoldenBitsTest, RegistrationRecord) {
  const GoldenFixture f;
  uint64_t h = kFnvOffset;
  for (const model::StepActivations& step : f.record.steps) {
    for (size_t b = 0; b < step.y.size(); ++b) {
      h = Fnv1a(step.y[b], h);
      h = Fnv1a(step.k[b], h);
      h = Fnv1a(step.v[b], h);
    }
  }
  EXPECT_EQ(h, Expected().record)
      << "isa " << KernelIsa() << ": record hash 0x" << std::hex << h;
}

TEST(GoldenBitsTest, SoloSparseStepRange) {
  const GoldenFixture f;
  Rng mask_rng(GoldenFixture::kMaskSeed);
  const trace::Mask mask = f.Mask(0.2, mask_rng);
  const Matrix latent = f.m.InitEditLatent(
      f.m.EncodeTemplate(GoldenFixture::kTemplate), mask,
      GoldenFixture::kPromptSeed);
  const Matrix out = f.m.RunStepRange(latent, f.SparseOptions(mask), 0,
                                      f.config.num_steps);
  const uint64_t h = Fnv1a(out, kFnvOffset);
  EXPECT_EQ(h, Expected().solo)
      << "isa " << KernelIsa() << ": solo hash 0x" << std::hex << h;
}

TEST(GoldenBitsTest, ThreeMemberBatchGathered) {
  // Three mask sizes whose joint panel (~140 rows) is taller than any
  // single member's.
  const GoldenFixture f;
  Rng mask_rng(GoldenFixture::kMaskSeed);
  std::vector<trace::Mask> masks;
  std::vector<Matrix> latents;
  for (const double ratio : {0.15, 0.3, 0.5}) {
    masks.push_back(f.Mask(ratio, mask_rng));
    latents.push_back(f.m.InitEditLatent(
        f.m.EncodeTemplate(GoldenFixture::kTemplate), masks.back(),
        GoldenFixture::kPromptSeed + latents.size()));
  }
  for (int step = 0; step < f.config.num_steps; ++step) {
    std::vector<model::DiffusionModel::StepBatchMember> panel;
    for (size_t i = 0; i < masks.size(); ++i) {
      panel.push_back({&f.m, &latents[i], &masks[i], &f.record, step});
    }
    model::DiffusionModel::RunStepBatchGathered(panel);
  }
  uint64_t h = kFnvOffset;
  for (const Matrix& latent : latents) {
    h = Fnv1a(latent, h);
  }
  EXPECT_EQ(h, Expected().batch)
      << "isa " << KernelIsa() << ": batch hash 0x" << std::hex << h;
}

}  // namespace
}  // namespace flashps
