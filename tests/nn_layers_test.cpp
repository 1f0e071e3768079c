// Behavioral (non-gradient) layer tests: shapes, caching contracts,
// forward semantics on known inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/embedding.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/residual.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace marsit {
namespace {

TEST(LinearTest, KnownAffineMap) {
  Linear layer(2, 2);
  // W = [[1, 2], [3, 4]], b = [10, 20].
  auto w = layer.weights();
  w[0] = 1;
  w[1] = 2;
  w[2] = 3;
  w[3] = 4;
  auto b = layer.bias();
  b[0] = 10;
  b[1] = 20;
  std::vector<float> x{1.0f, 1.0f};
  std::vector<float> y(2);
  layer.forward({x.data(), 2}, 1, {y.data(), 2});
  EXPECT_FLOAT_EQ(y[0], 13.0f);  // 1·1 + 2·1 + 10
  EXPECT_FLOAT_EQ(y[1], 27.0f);  // 3·1 + 4·1 + 20
}

TEST(LinearTest, ParamLayout) {
  Linear with_bias(3, 4);
  EXPECT_EQ(with_bias.param_count(), 16u);
  Linear no_bias(3, 4, false);
  EXPECT_EQ(no_bias.param_count(), 12u);
  EXPECT_TRUE(no_bias.bias().empty());
}

TEST(LinearTest, ExtentChecks) {
  Linear layer(2, 3);
  std::vector<float> x(4), y(5);
  EXPECT_THROW(layer.forward({x.data(), 4}, 1, {y.data(), 5}), CheckError);
}

TEST(LinearTest, BackwardWithoutForwardThrows) {
  Linear layer(2, 3);
  std::vector<float> dy(3), dx(2);
  EXPECT_THROW(layer.backward({dy.data(), 3}, 1, {dx.data(), 2}),
               CheckError);
}

TEST(ReluTest, ClampsNegatives) {
  Relu layer(4);
  std::vector<float> x{-1.0f, 0.0f, 2.0f, -3.0f};
  std::vector<float> y(4);
  layer.forward({x.data(), 4}, 1, {y.data(), 4});
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(ReluTest, MaskGatesGradient) {
  Relu layer(3);
  std::vector<float> x{-1.0f, 1.0f, 0.0f};
  std::vector<float> y(3), dy{5.0f, 5.0f, 5.0f}, dx(3);
  layer.forward({x.data(), 3}, 1, {y.data(), 3});
  layer.backward({dy.data(), 3}, 1, {dx.data(), 3});
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 5.0f);
  EXPECT_FLOAT_EQ(dx[2], 0.0f);  // x == 0 has zero sub-gradient
}

TEST(Conv2dTest, OutputGeometry) {
  Conv2d same({3, 8, 8}, 16, 3, 1, 1);
  EXPECT_EQ(same.out_dims().height, 8u);
  EXPECT_EQ(same.out_dims().channels, 16u);
  Conv2d strided({3, 8, 8}, 16, 3, 2, 1);
  EXPECT_EQ(strided.out_dims().height, 4u);
  Conv2d valid({1, 5, 5}, 1, 3, 1, 0);
  EXPECT_EQ(valid.out_dims().height, 3u);
}

TEST(Conv2dTest, IdentityKernelPassesThrough) {
  Conv2d layer({1, 3, 3}, 1, 1, 1, 0);  // 1×1 kernel
  layer.params()[0] = 1.0f;             // weight
  layer.params()[1] = 0.0f;             // bias
  std::vector<float> x{1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> y(9);
  layer.forward({x.data(), 9}, 1, {y.data(), 9});
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(y[i], x[i]);
  }
}

TEST(Conv2dTest, BoxFilterSumsNeighborhood) {
  Conv2d layer({1, 3, 3}, 1, 3, 1, 1);
  for (std::size_t i = 0; i < 9; ++i) {
    layer.params()[i] = 1.0f;  // all-ones 3×3 kernel
  }
  layer.params()[9] = 0.0f;  // bias
  std::vector<float> x(9, 1.0f);
  std::vector<float> y(9);
  layer.forward({x.data(), 9}, 1, {y.data(), 9});
  EXPECT_FLOAT_EQ(y[4], 9.0f);  // center sees the full neighborhood
  EXPECT_FLOAT_EQ(y[0], 4.0f);  // corner sees 2×2
}

TEST(Conv2dTest, KernelLargerThanInputThrows) {
  EXPECT_THROW(Conv2d({1, 2, 2}, 1, 5, 1, 0), CheckError);
}

TEST(Conv2dTest, BackwardNeedsMatchingForward) {
  // Stride 1 caches a padded input, stride 2 an im2col image; both must
  // refuse a backward with no forward before it or at another batch size.
  for (const std::size_t stride : {1, 2}) {
    Conv2d layer({2, 6, 6}, 3, 3, stride, 1);
    const std::size_t batch = 2;
    std::vector<float> x(batch * layer.in_size(), 1.0f);
    std::vector<float> y(batch * layer.out_size());
    std::vector<float> dy(y.size(), 1.0f), dx(x.size());
    EXPECT_THROW(
        layer.backward({dy.data(), dy.size()}, batch, {dx.data(), dx.size()}),
        CheckError)
        << "stride " << stride;

    layer.forward({x.data(), x.size()}, batch, {y.data(), y.size()});
    const std::size_t other = 1;
    EXPECT_THROW(layer.backward({dy.data(), other * layer.out_size()}, other,
                                {dx.data(), other * layer.in_size()}),
                 CheckError)
        << "stride " << stride;
    EXPECT_NO_THROW(
        layer.backward({dy.data(), dy.size()}, batch, {dx.data(), dx.size()}))
        << "stride " << stride;
  }
}

TEST(MaxPoolTest, PicksMaxima) {
  MaxPool2d layer({1, 2, 4}, 2);
  std::vector<float> x{1, 5, 2, 0,
                       3, 4, 8, 7};
  std::vector<float> y(2);
  layer.forward({x.data(), 8}, 1, {y.data(), 2});
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_FLOAT_EQ(y[1], 8.0f);
}

TEST(MaxPoolTest, GradientRoutesToArgmax) {
  MaxPool2d layer({1, 2, 2}, 2);
  std::vector<float> x{1, 9, 3, 4};
  std::vector<float> y(1), dy{2.0f}, dx(4);
  layer.forward({x.data(), 4}, 1, {y.data(), 1});
  layer.backward({dy.data(), 1}, 1, {dx.data(), 4});
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 2.0f);
  EXPECT_FLOAT_EQ(dx[2], 0.0f);
  EXPECT_FLOAT_EQ(dx[3], 0.0f);
}

TEST(GlobalAvgPoolTest, AveragesPerChannel) {
  GlobalAvgPool layer({2, 2, 2});
  std::vector<float> x{1, 2, 3, 4,    // channel 0
                       10, 20, 30, 40};  // channel 1
  std::vector<float> y(2);
  layer.forward({x.data(), 8}, 1, {y.data(), 2});
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_FLOAT_EQ(y[1], 25.0f);
}

TEST(EmbeddingTest, LooksUpRows) {
  Embedding layer(3, 2, 2);
  auto table = layer.params();
  // Row r = [r, 10r].
  for (std::size_t r = 0; r < 3; ++r) {
    table[r * 2] = static_cast<float>(r);
    table[r * 2 + 1] = static_cast<float>(10 * r);
  }
  std::vector<float> ids{2.0f, 0.0f};
  std::vector<float> y(4);
  layer.forward({ids.data(), 2}, 1, {y.data(), 4});
  EXPECT_FLOAT_EQ(y[0], 2.0f);
  EXPECT_FLOAT_EQ(y[1], 20.0f);
  EXPECT_FLOAT_EQ(y[2], 0.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(EmbeddingTest, RejectsOutOfVocabIds) {
  Embedding layer(3, 2, 1);
  std::vector<float> ids{3.0f};
  std::vector<float> y(2);
  EXPECT_THROW(layer.forward({ids.data(), 1}, 1, {y.data(), 2}), CheckError);
}

TEST(MeanPoolTest, AveragesSequence) {
  MeanPool layer(2, 3);
  std::vector<float> x{1, 2, 3, 5, 6, 7};
  std::vector<float> y(3);
  layer.forward({x.data(), 6}, 1, {y.data(), 3});
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[1], 4.0f);
  EXPECT_FLOAT_EQ(y[2], 5.0f);
}

TEST(ResidualBlockTest, ZeroWeightsActAsReluIdentity) {
  ResidualConvBlock block({1, 3, 3});
  // Zero convolutions: y = ReLU(0 + x) = ReLU(x).
  Rng rng(55);
  block.init(rng);
  std::vector<Layer*> leaves;
  block.collect_leaves(leaves);
  for (Layer* leaf : leaves) {
    zero(leaf->params());
  }
  std::vector<float> x{-1, 2, -3, 4, -5, 6, -7, 8, -9};
  std::vector<float> y(9);
  block.forward({x.data(), 9}, 1, {y.data(), 9});
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(y[i], x[i] > 0 ? x[i] : 0.0f) << "index " << i;
  }
}

TEST(ResidualBlockTest, CollectsTwoConvLeaves) {
  ResidualConvBlock block({2, 4, 4});
  std::vector<Layer*> leaves;
  block.collect_leaves(leaves);
  EXPECT_EQ(leaves.size(), 2u);
  EXPECT_GT(leaves[0]->param_count(), 0u);
}

TEST(ResidualBlockTest, BitExactAcrossBatchChange) {
  // Train at batch 2, run a larger eval forward, train at batch 2 again:
  // the buffers grow for the eval batch and the second training step runs
  // on their prefix, so its output and gradients equal a fresh block's.
  const ImageDims dims{2, 4, 4};
  const std::size_t n = dims.size();
  ResidualConvBlock warm(dims);
  ResidualConvBlock fresh(dims);
  Rng rng_warm(77);
  Rng rng_fresh(77);
  warm.init(rng_warm);
  fresh.init(rng_fresh);
  std::vector<Layer*> warm_leaves, fresh_leaves;
  warm.collect_leaves(warm_leaves);
  fresh.collect_leaves(fresh_leaves);
  // A non-zero second conv so both branches carry gradient.
  Rng fill(78);
  fill_normal(warm_leaves[1]->params(), fill, 0.0f, 0.5f);
  copy_into(warm_leaves[1]->params(), fresh_leaves[1]->params());

  Rng data(79);
  std::vector<float> x(2 * n), dy(2 * n), big_x(5 * n), big_y(5 * n);
  fill_normal({x.data(), x.size()}, data, 0.0f, 1.0f);
  fill_normal({dy.data(), dy.size()}, data, 0.0f, 1.0f);
  fill_normal({big_x.data(), big_x.size()}, data, 0.0f, 1.0f);
  std::vector<float> y(2 * n), dx(2 * n), want_y(2 * n), want_dx(2 * n);

  warm.zero_grads();
  warm.forward({x.data(), x.size()}, 2, {y.data(), y.size()});
  warm.backward({dy.data(), dy.size()}, 2, {dx.data(), dx.size()});
  warm.forward({big_x.data(), big_x.size()}, 5,
               {big_y.data(), big_y.size()});
  warm.zero_grads();
  warm.forward({x.data(), x.size()}, 2, {y.data(), y.size()});
  warm.backward({dy.data(), dy.size()}, 2, {dx.data(), dx.size()});

  fresh.zero_grads();
  fresh.forward({x.data(), x.size()}, 2, {want_y.data(), want_y.size()});
  fresh.backward({dy.data(), dy.size()}, 2,
                 {want_dx.data(), want_dx.size()});

  EXPECT_EQ(y, want_y);
  EXPECT_EQ(dx, want_dx);
  for (std::size_t leaf = 0; leaf < 2; ++leaf) {
    const auto got = warm_leaves[leaf]->grads();
    const auto want = fresh_leaves[leaf]->grads();
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
        << "leaf " << leaf;
  }
}

TEST(LossTest, UniformLogitsGiveLogC) {
  const std::size_t classes = 4;
  std::vector<float> logits(classes, 0.0f);
  std::vector<std::size_t> labels{1};
  const auto result = softmax_cross_entropy_eval(
      {logits.data(), logits.size()}, {labels.data(), 1}, classes);
  EXPECT_NEAR(result.loss, std::log(4.0), 1e-6);
}

TEST(LossTest, CorrectCountsTop1) {
  std::vector<float> logits{
      5.0f, 0.0f, 0.0f,   // predicts 0
      0.0f, 5.0f, 0.0f};  // predicts 1
  std::vector<std::size_t> labels{0, 2};
  const auto result = softmax_cross_entropy_eval(
      {logits.data(), logits.size()}, {labels.data(), 2}, 3);
  EXPECT_EQ(result.correct, 1u);
}

TEST(LossTest, GradientRowsSumToZero) {
  std::vector<float> logits{1.0f, 2.0f, 3.0f};
  std::vector<std::size_t> labels{0};
  std::vector<float> dlogits(3);
  softmax_cross_entropy({logits.data(), 3}, {labels.data(), 1}, 3,
                        {dlogits.data(), 3});
  EXPECT_NEAR(dlogits[0] + dlogits[1] + dlogits[2], 0.0f, 1e-6f);
}

TEST(LossTest, RejectsBadLabels) {
  std::vector<float> logits(3);
  std::vector<std::size_t> labels{5};
  std::vector<float> dlogits(3);
  EXPECT_THROW(softmax_cross_entropy({logits.data(), 3}, {labels.data(), 1},
                                     3, {dlogits.data(), 3}),
               CheckError);
}

TEST(LossTest, ExtremeLogitsStayFinite) {
  std::vector<float> logits{1000.0f, -1000.0f};
  std::vector<std::size_t> labels{1};
  const auto result = softmax_cross_entropy_eval({logits.data(), 2},
                                                 {labels.data(), 1}, 2);
  EXPECT_TRUE(std::isfinite(result.loss));
  EXPECT_GT(result.loss, 10.0);
}

}  // namespace
}  // namespace marsit
