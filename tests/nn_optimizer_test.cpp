#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace marsit {
namespace {

TEST(SgdOptimizerTest, IdentityTransform) {
  SgdOptimizer opt;
  std::vector<float> grad{1.0f, -2.0f, 3.0f};
  std::vector<float> direction(3);
  opt.transform({grad.data(), 3}, {direction.data(), 3});
  EXPECT_EQ(direction, grad);
}

TEST(MomentumOptimizerTest, VelocityRecursion) {
  MomentumOptimizer opt(0.5f);
  std::vector<float> grad{1.0f};
  std::vector<float> direction(1);
  opt.transform({grad.data(), 1}, {direction.data(), 1});
  EXPECT_FLOAT_EQ(direction[0], 1.0f);  // v1 = 0.5·0 + 1
  opt.transform({grad.data(), 1}, {direction.data(), 1});
  EXPECT_FLOAT_EQ(direction[0], 1.5f);  // v2 = 0.5·1 + 1
  opt.transform({grad.data(), 1}, {direction.data(), 1});
  EXPECT_FLOAT_EQ(direction[0], 1.75f);
}

TEST(MomentumOptimizerTest, RejectsBadMu) {
  EXPECT_THROW(MomentumOptimizer(1.0f), CheckError);
  EXPECT_THROW(MomentumOptimizer(-0.1f), CheckError);
}

TEST(AdamOptimizerTest, FirstStepIsSignLikeUnitStep) {
  // With bias correction, step 1 gives m̂ = g, v̂ = g², so direction =
  // g/(|g|+ε) ≈ sign(g).
  AdamOptimizer opt;
  std::vector<float> grad{0.3f, -0.7f};
  std::vector<float> direction(2);
  opt.transform({grad.data(), 2}, {direction.data(), 2});
  EXPECT_NEAR(direction[0], 1.0f, 1e-4f);
  EXPECT_NEAR(direction[1], -1.0f, 1e-4f);
}

TEST(AdamOptimizerTest, MatchesReferenceImplementation) {
  const float b1 = 0.9f, b2 = 0.999f, eps = 1e-8f;
  AdamOptimizer opt(b1, b2, eps);
  std::vector<float> direction(1);

  double m = 0.0, v = 0.0;
  const std::vector<float> grads{0.5f, -0.25f, 1.0f, 0.0f, 2.0f};
  for (std::size_t step = 1; step <= grads.size(); ++step) {
    const double g = grads[step - 1];
    m = b1 * m + (1.0 - b1) * g;
    v = b2 * v + (1.0 - b2) * g * g;
    const double m_hat = m / (1.0 - std::pow(b1, step));
    const double v_hat = v / (1.0 - std::pow(b2, step));
    const double expected = m_hat / (std::sqrt(v_hat) + eps);

    std::vector<float> grad{grads[step - 1]};
    opt.transform({grad.data(), 1}, {direction.data(), 1});
    EXPECT_NEAR(direction[0], expected, 1e-4) << "step " << step;
  }
}

/// The Adam step as the plain scalar member loop it was before it was
/// vectorized, copied verbatim: the bit-exact reference for the shipped one.
struct ScalarAdam {
  float beta1_ = 0.9f;
  float beta2_ = 0.999f;
  float epsilon_ = 1e-8f;
  std::vector<float> m_, v_;
  std::size_t step_ = 0;

  void transform(std::span<const float> grad, std::span<float> direction) {
    if (m_.size() != grad.size()) {
      m_.assign(grad.size(), 0.0f);
      v_.assign(grad.size(), 0.0f);
      step_ = 0;
    }
    ++step_;
    auto& m = m_;
    auto& v = v_;
    const double bc1 =
        1.0 - std::pow(static_cast<double>(beta1_), static_cast<double>(step_));
    const double bc2 =
        1.0 - std::pow(static_cast<double>(beta2_), static_cast<double>(step_));
    for (std::size_t i = 0; i < grad.size(); ++i) {
      m[i] = beta1_ * m[i] + (1.0f - beta1_) * grad[i];
      v[i] = beta2_ * v[i] + (1.0f - beta2_) * grad[i] * grad[i];
      const double m_hat = static_cast<double>(m[i]) / bc1;
      const double v_hat = static_cast<double>(v[i]) / bc2;
      direction[i] = static_cast<float>(
          m_hat / (std::sqrt(v_hat) + static_cast<double>(epsilon_)));
    }
  }

  /// The byte layout of AdamOptimizer::save_state.
  std::vector<std::uint8_t> state() const {
    ckpt::SnapshotWriter writer;
    writer.u64(static_cast<std::uint64_t>(step_));
    writer.f32_span(m_);
    writer.f32_span(v_);
    return writer.bytes();
  }
};

/// Normal gradients salted with ±0, ±subnormal and ±1e30 entries.
std::vector<float> adversarial_grad(std::size_t n, std::uint64_t seed) {
  std::vector<float> grad(n);
  Rng rng(seed);
  fill_normal({grad.data(), n}, rng, 0.0f, 1.0f);
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -3e-40f,
                            1e30f,
                            -1e30f};
  for (std::size_t i = 0; i < n; i += 3) {
    grad[i] = specials[(i / 3 + seed) % std::size(specials)];
  }
  return grad;
}

TEST(AdamOptimizerTest, BitExactWithScalarLoop) {
  // m, v (through the save_state bytes) and the direction must equal the
  // scalar loop's bit for bit: every vector-body remainder (lengths 1–67)
  // plus one large vector, over several steps so the moments carry.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 67; ++n) {
    lengths.push_back(n);
  }
  lengths.push_back(3 * 65536 + 5);
  for (const std::size_t n : lengths) {
    AdamOptimizer shipped;
    ScalarAdam reference;
    std::vector<float> direction(n), expected(n);
    for (std::uint64_t step = 0; step < 4; ++step) {
      const std::vector<float> grad = adversarial_grad(n, n * 16 + step);
      shipped.transform(grad, direction);
      reference.transform(grad, expected);
      ASSERT_EQ(std::memcmp(direction.data(), expected.data(),
                            n * sizeof(float)),
                0)
          << "direction, n=" << n << " step " << step;
      ckpt::SnapshotWriter writer;
      shipped.save_state(writer);
      ASSERT_EQ(writer.bytes(), reference.state())
          << "m/v state, n=" << n << " step " << step;
    }
  }
}

TEST(AdamOptimizerTest, RejectsBadHyperparameters) {
  EXPECT_THROW(AdamOptimizer(1.0f, 0.999f, 1e-8f), CheckError);
  EXPECT_THROW(AdamOptimizer(0.9f, 1.0f, 1e-8f), CheckError);
  EXPECT_THROW(AdamOptimizer(0.9f, 0.999f, 0.0f), CheckError);
}

TEST(CloneFreshTest, ClonesStartStateless) {
  MomentumOptimizer opt(0.9f);
  std::vector<float> grad{1.0f};
  std::vector<float> direction(1);
  opt.transform({grad.data(), 1}, {direction.data(), 1});
  opt.transform({grad.data(), 1}, {direction.data(), 1});

  auto fresh = opt.clone_fresh();
  fresh->transform({grad.data(), 1}, {direction.data(), 1});
  EXPECT_FLOAT_EQ(direction[0], 1.0f);  // no inherited velocity
}

TEST(FactoryTest, BuildsEachKind) {
  EXPECT_EQ(make_optimizer(OptimizerKind::kSgd)->name(), "SGD");
  EXPECT_EQ(make_optimizer(OptimizerKind::kMomentum)->name(), "Momentum");
  EXPECT_EQ(make_optimizer(OptimizerKind::kAdam)->name(), "Adam");
}

TEST(OptimizerTest, StateResizesWithDimension) {
  // Dimension change mid-stream (new model) must not crash; state resets.
  MomentumOptimizer opt(0.9f);
  std::vector<float> g1{1.0f}, d1(1);
  opt.transform({g1.data(), 1}, {d1.data(), 1});
  std::vector<float> g2{1.0f, 2.0f}, d2(2);
  opt.transform({g2.data(), 2}, {d2.data(), 2});
  EXPECT_FLOAT_EQ(d2[0], 1.0f);
  EXPECT_FLOAT_EQ(d2[1], 2.0f);
}

}  // namespace
}  // namespace marsit
