#include "nn/optimizer.hpp"

#include <cmath>
#include <vector>

#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace marsit {

namespace {

/// Rebuilds a tensor from a length-prefixed float array; an empty array maps
/// to an empty tensor (state not yet materialized when the snapshot was
/// taken — the lazy-sizing path recreates it on the next transform).
Tensor tensor_from_vec(const std::vector<float>& values) {
  Tensor tensor(values.size());
  copy_into(values, tensor.span());
  return tensor;
}

}  // namespace

void LocalOptimizer::save_state(ckpt::SnapshotWriter& /*writer*/) const {}

void LocalOptimizer::load_state(ckpt::SnapshotReader& /*reader*/) {}

void SgdOptimizer::transform(std::span<const float> grad,
                             std::span<float> direction) {
  copy_into(grad, direction);
}

std::unique_ptr<LocalOptimizer> SgdOptimizer::clone_fresh() const {
  return std::make_unique<SgdOptimizer>();
}

MomentumOptimizer::MomentumOptimizer(float mu) : mu_(mu) {
  MARSIT_CHECK(mu_ >= 0.0f && mu_ < 1.0f) << "momentum out of [0,1)";
}

void MomentumOptimizer::transform(std::span<const float> grad,
                                  std::span<float> direction) {
  if (velocity_.size() != grad.size()) {
    velocity_ = Tensor(grad.size());
  }
  auto v = velocity_.span();
  scale(v, mu_);
  axpy(1.0f, grad, v);
  copy_into(v, direction);
}

std::unique_ptr<LocalOptimizer> MomentumOptimizer::clone_fresh() const {
  return std::make_unique<MomentumOptimizer>(mu_);
}

void MomentumOptimizer::save_state(ckpt::SnapshotWriter& writer) const {
  writer.f32_span(velocity_.span());
}

void MomentumOptimizer::load_state(ckpt::SnapshotReader& reader) {
  velocity_ = tensor_from_vec(reader.f32_vec());
}

AdamOptimizer::AdamOptimizer(float beta1, float beta2, float epsilon)
    : beta1_(beta1), beta2_(beta2), epsilon_(epsilon) {
  MARSIT_CHECK(beta1_ >= 0.0f && beta1_ < 1.0f) << "beta1 out of [0,1)";
  MARSIT_CHECK(beta2_ >= 0.0f && beta2_ < 1.0f) << "beta2 out of [0,1)";
  MARSIT_CHECK(epsilon_ > 0.0f) << "epsilon must be positive";
}

void AdamOptimizer::transform(std::span<const float> grad,
                              std::span<float> direction) {
  if (m_.size() != grad.size()) {
    m_ = Tensor(grad.size());
    v_ = Tensor(grad.size());
    step_ = 0;
  }
  ++step_;
  const double bc1 =
      1.0 - std::pow(static_cast<double>(beta1_), static_cast<double>(step_));
  const double bc2 =
      1.0 - std::pow(static_cast<double>(beta2_), static_cast<double>(step_));
  // Locals, not members: a store through `direction` could alias beta1_ and
  // friends, which would force a reload per element and block the
  // vectorizer.  The ops and their order are the scalar loop's; with
  // -fno-math-errno (this file only, src/nn/CMakeLists.txt) std::sqrt has
  // no errno branch and compiles to the correctly rounded sqrt instruction.
  const float beta1 = beta1_;
  const float beta2 = beta2_;
  const float one_minus_beta1 = 1.0f - beta1_;
  const float one_minus_beta2 = 1.0f - beta2_;
  const double epsilon = static_cast<double>(epsilon_);
  float* const m = m_.data();
  float* const v = v_.data();
  const std::size_t n = grad.size();
  for (std::size_t i = 0; i < n; ++i) {
    const float g = grad[i];
    const float m_i = beta1 * m[i] + one_minus_beta1 * g;
    const float v_i = beta2 * v[i] + one_minus_beta2 * g * g;
    m[i] = m_i;
    v[i] = v_i;
    const double m_hat = static_cast<double>(m_i) / bc1;
    const double v_hat = static_cast<double>(v_i) / bc2;
    direction[i] = static_cast<float>(m_hat / (std::sqrt(v_hat) + epsilon));
  }
}

std::unique_ptr<LocalOptimizer> AdamOptimizer::clone_fresh() const {
  return std::make_unique<AdamOptimizer>(beta1_, beta2_, epsilon_);
}

void AdamOptimizer::save_state(ckpt::SnapshotWriter& writer) const {
  writer.u64(static_cast<std::uint64_t>(step_));
  writer.f32_span(m_.span());
  writer.f32_span(v_.span());
}

void AdamOptimizer::load_state(ckpt::SnapshotReader& reader) {
  step_ = static_cast<std::size_t>(reader.u64());
  m_ = tensor_from_vec(reader.f32_vec());
  v_ = tensor_from_vec(reader.f32_vec());
  MARSIT_CHECK(m_.size() == v_.size())
      << "Adam moment tensors disagree in size";
}

std::unique_ptr<LocalOptimizer> make_optimizer(OptimizerKind kind) {
  switch (kind) {
    case OptimizerKind::kSgd:
      return std::make_unique<SgdOptimizer>();
    case OptimizerKind::kMomentum:
      return std::make_unique<MomentumOptimizer>();
    case OptimizerKind::kAdam:
      return std::make_unique<AdamOptimizer>();
  }
  MARSIT_CHECK(false) << "unknown optimizer kind";
  return nullptr;
}

}  // namespace marsit
