// Quality gate for the lossy cache-precision modes (--cache-precision).
//
// A worker that fetches a template's activation record from an fp16 or
// staged cache tier denoises against codec-degraded activations. This
// suite round-trips records through the codec exactly as the wire does
// and asserts the two properties the serving tier sells:
//
//   1. lossless mode is bitwise — cached-edit outputs are unchanged;
//   2. the lossy modes stay inside the Table 2 quality envelope: SSIM
//      against the Diffusers-style full-compute reference stays in the
//      visually-indistinguishable band, and FlashPS-on-a-lossy-cache
//      still orders ahead of the TeaCache baseline on SSIM, FID, and
//      CLIP — compression never flips the paper's comparison.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "src/model/diffusion_model.h"
#include "src/quality/metrics.h"
#include "src/tensor/quant.h"
#include "src/trace/workload.h"

namespace flashps {
namespace {

// Same visually-indistinguishable band as bench_table2_quality.
constexpr double kAcceptSsim = 0.90;

bool MatrixBitwise(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

// Round-trips every matrix of `record` through the codec at `mode` — the
// exact degradation a worker sees after a fetch from a lossy cache tier.
model::ActivationRecord CodecRoundTrip(const model::ActivationRecord& record,
                                       quant::PrecisionMode mode) {
  const int num_steps = static_cast<int>(record.steps.size());
  model::ActivationRecord out;
  out.steps.resize(record.steps.size());
  auto roundtrip = [&](const Matrix& m, int step) {
    const quant::Dtype dtype = quant::DtypeForStep(mode, step, num_steps);
    std::vector<uint8_t> scales(quant::ScaleCount(dtype, m.rows()) *
                                sizeof(float));
    std::vector<uint8_t> elements(m.size() * quant::DtypeBytes(dtype));
    quant::EncodeTo(m, dtype, scales.data(), elements.data());
    Matrix back;
    quant::DecodeFrom(dtype, m.rows(), m.cols(), scales.data(),
                      elements.data(), &back);
    return back;
  };
  for (size_t s = 0; s < record.steps.size(); ++s) {
    const int step = static_cast<int>(s);
    for (const Matrix& y : record.steps[s].y) {
      out.steps[s].y.push_back(roundtrip(y, step));
    }
    for (const Matrix& k : record.steps[s].k) {
      out.steps[s].k.push_back(roundtrip(k, step));
    }
    for (const Matrix& v : record.steps[s].v) {
      out.steps[s].v.push_back(roundtrip(v, step));
    }
  }
  return out;
}

class CodecQualityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = model::NumericsConfig::ForTests();
    model_ = std::make_unique<model::DiffusionModel>(config_);
    Rng rng(77);
    for (int i = 0; i < kEdits; ++i) {
      masks_.push_back(trace::GenerateBlobMask(
          config_.grid_h, config_.grid_w, 0.25 + 0.1 * (i % 3), rng));
    }
  }

  // One edit per mask against one shared template record.
  std::vector<Matrix> EditAll(const model::ActivationRecord* cache,
                              model::ComputeMode mode,
                              double teacache_threshold = 0.5) {
    std::vector<Matrix> images;
    for (int i = 0; i < kEdits; ++i) {
      model::DiffusionModel::RunOptions options;
      options.mode = mode;
      options.cache = cache;
      options.mask = &masks_[static_cast<size_t>(i)];
      options.teacache_threshold = teacache_threshold;
      images.push_back(model_->EditImage(kTemplate, masks_[static_cast<size_t>(i)],
                                         PromptSeed(i), options));
    }
    return images;
  }

  double MeanSsim(const std::vector<Matrix>& images,
                  const std::vector<Matrix>& reference) {
    double acc = 0.0;
    for (int i = 0; i < kEdits; ++i) {
      acc += quality::Ssim(images[static_cast<size_t>(i)],
                           reference[static_cast<size_t>(i)]);
    }
    return acc / kEdits;
  }

  double MeanClip(const std::vector<Matrix>& images) {
    double acc = 0.0;
    for (int i = 0; i < kEdits; ++i) {
      acc += quality::ClipProxyScore(
          images[static_cast<size_t>(i)], model_->PromptTexture(PromptSeed(i)),
          masks_[static_cast<size_t>(i)], config_.patch);
    }
    return acc / kEdits;
  }

  static uint64_t PromptSeed(int i) { return 10'000 + static_cast<uint64_t>(i); }

  static constexpr int kEdits = 6;
  static constexpr int kTemplate = 3;

  model::NumericsConfig config_;
  std::unique_ptr<model::DiffusionModel> model_;
  std::vector<trace::Mask> masks_;
};

TEST_F(CodecQualityTest, LosslessRoundTripIsBitwise) {
  const model::ActivationRecord record =
      model_->Register(kTemplate, /*record_kv=*/true);
  const model::ActivationRecord back =
      CodecRoundTrip(record, quant::PrecisionMode::kLossless);
  ASSERT_EQ(back.steps.size(), record.steps.size());
  for (size_t s = 0; s < record.steps.size(); ++s) {
    for (size_t b = 0; b < record.steps[s].y.size(); ++b) {
      EXPECT_TRUE(MatrixBitwise(back.steps[s].y[b], record.steps[s].y[b]));
      EXPECT_TRUE(MatrixBitwise(back.steps[s].k[b], record.steps[s].k[b]));
      EXPECT_TRUE(MatrixBitwise(back.steps[s].v[b], record.steps[s].v[b]));
    }
  }
  // And therefore so are the edits computed against it.
  const std::vector<Matrix> exact =
      EditAll(&record, model::ComputeMode::kMaskAwareY);
  const std::vector<Matrix> routed =
      EditAll(&back, model::ComputeMode::kMaskAwareY);
  for (int i = 0; i < kEdits; ++i) {
    EXPECT_TRUE(MatrixBitwise(exact[static_cast<size_t>(i)],
                              routed[static_cast<size_t>(i)]));
  }
}

TEST_F(CodecQualityTest, LossyModesStayInTheTable2Envelope) {
  const model::ActivationRecord record =
      model_->Register(kTemplate, /*record_kv=*/false);
  // Diffusers-style reference: exact full computation, no cache.
  const std::vector<Matrix> reference =
      EditAll(nullptr, model::ComputeMode::kFull);
  // Table 2's baselines at the serving-side configuration. The codec gate
  // is ordering *preservation*: whatever comparison the lossless FlashPS
  // run wins or loses against each baseline, the compressed runs must
  // reproduce — compression may not flip a Table 2 conclusion.
  const std::vector<Matrix> teacache =
      EditAll(nullptr, model::ComputeMode::kTeaCache);
  const double teacache_ssim = MeanSsim(teacache, reference);
  const double teacache_fid = quality::FidScore(teacache, reference);
  const std::vector<Matrix> sparse =
      EditAll(nullptr, model::ComputeMode::kSparse);
  const double sparse_ssim = MeanSsim(sparse, reference);
  const double sparse_fid = quality::FidScore(sparse, reference);

  const std::vector<Matrix> lossless =
      EditAll(&record, model::ComputeMode::kMaskAwareY);
  const double lossless_ssim = MeanSsim(lossless, reference);
  const double lossless_fid = quality::FidScore(lossless, reference);
  const double lossless_clip = MeanClip(lossless);

  for (const quant::PrecisionMode mode :
       {quant::PrecisionMode::kF16, quant::PrecisionMode::kStaged}) {
    const model::ActivationRecord degraded = CodecRoundTrip(record, mode);
    const std::vector<Matrix> images =
        EditAll(&degraded, model::ComputeMode::kMaskAwareY);
    const double ssim = MeanSsim(images, reference);
    const double fid = quality::FidScore(images, reference);
    const double clip = MeanClip(images);
    std::printf("[codec-quality] %s: ssim=%.6f fid=%.6f clip=%.6f "
                "(lossless ssim=%.6f fid=%.6f clip=%.6f; teacache "
                "ssim=%.6f fid=%.6f; sparse ssim=%.6f fid=%.6f)\n",
                quant::ToString(mode).c_str(), ssim, fid, clip,
                lossless_ssim, lossless_fid, lossless_clip, teacache_ssim,
                teacache_fid, sparse_ssim, sparse_fid);

    // Inside the acceptance band, and within a hair of the lossless run
    // on every metric.
    EXPECT_GE(ssim, kAcceptSsim) << quant::ToString(mode);
    EXPECT_GE(ssim, lossless_ssim - 0.02) << quant::ToString(mode);
    EXPECT_LE(fid, lossless_fid * 1.05) << quant::ToString(mode);
    EXPECT_GE(clip, lossless_clip - 0.02) << quant::ToString(mode);
    // Ordering preservation against both baselines.
    EXPECT_EQ(ssim > teacache_ssim, lossless_ssim > teacache_ssim)
        << quant::ToString(mode);
    EXPECT_EQ(fid < teacache_fid, lossless_fid < teacache_fid)
        << quant::ToString(mode);
    EXPECT_EQ(ssim > sparse_ssim, lossless_ssim > sparse_ssim)
        << quant::ToString(mode);
    EXPECT_EQ(fid < sparse_fid, lossless_fid < sparse_fid)
        << quant::ToString(mode);
  }
}

}  // namespace
}  // namespace flashps
