#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace marsit {
namespace {

TEST(TensorTest, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
}

TEST(TensorTest, SizeConstructorZeroFills) {
  Tensor t(5);
  EXPECT_EQ(t.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(t[i], 0.0f);
  }
}

TEST(TensorTest, ShapeConstructor) {
  Tensor t = Tensor::zeros({2, 3, 4});
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.dim(0), 2u);
  EXPECT_EQ(t.dim(2), 4u);
  EXPECT_THROW(t.dim(3), CheckError);
}

TEST(TensorTest, InitializerList) {
  Tensor t{1.0f, 2.0f, 3.0f};
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t[1], 2.0f);
}

TEST(TensorTest, BoundsCheckedAccess) {
  Tensor t(3);
  t.at(2) = 5.0f;
  EXPECT_EQ(t.at(2), 5.0f);
  EXPECT_THROW(t.at(3), CheckError);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t{1, 2, 3, 4, 5, 6};
  t.reshape({2, 3});
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t[5], 6.0f);
  EXPECT_THROW(t.reshape({7}), CheckError);
}

TEST(TensorTest, FromVectorMovesData) {
  Tensor t = Tensor::from_vector({9.0f, 8.0f});
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0], 9.0f);
}

TEST(TensorTest, DebugString) {
  Tensor t = Tensor::zeros({2, 2});
  EXPECT_EQ(t.debug_string(), "shape=[2,2] size=4");
}

TEST(TensorTest, BracedIntegerListIsValuesNotShape) {
  // Documented hazard: a braced integer list selects the float-values
  // constructor; Tensor::zeros is the shape-based path.
  Tensor values{2, 3, 4};
  EXPECT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0], 2.0f);
}

TEST(OpsTest, AxpyAndScale) {
  Tensor x{1, 2, 3};
  Tensor y{10, 20, 30};
  axpy(2.0f, x.span(), y.span());
  EXPECT_EQ(y[0], 12.0f);
  EXPECT_EQ(y[2], 36.0f);
  scale(y.span(), 0.5f);
  EXPECT_EQ(y[0], 6.0f);
}

TEST(OpsTest, AddSubHadamardSupportAliasing) {
  Tensor a{1, 2, 3};
  Tensor b{4, 5, 6};
  add(a.span(), b.span(), a.span());
  EXPECT_EQ(a[2], 9.0f);
  sub(a.span(), b.span(), a.span());
  EXPECT_EQ(a[2], 3.0f);
  hadamard(a.span(), b.span(), a.span());
  EXPECT_EQ(a[2], 18.0f);
}

TEST(OpsTest, ExtentMismatchThrows) {
  Tensor a(3), b(4);
  EXPECT_THROW(add(a.span(), b.span(), a.span()), CheckError);
  EXPECT_THROW(dot(a.span(), b.span()), CheckError);
}

TEST(OpsTest, Reductions) {
  Tensor x{3, -4, 0};
  EXPECT_FLOAT_EQ(dot(x.span(), x.span()), 25.0f);
  EXPECT_FLOAT_EQ(l1_norm(x.span()), 7.0f);
  EXPECT_FLOAT_EQ(l2_norm(x.span()), 5.0f);
  EXPECT_FLOAT_EQ(squared_l2_norm(x.span()), 25.0f);
  EXPECT_FLOAT_EQ(sum(x.span()), -1.0f);
  EXPECT_FLOAT_EQ(mean(x.span()), -1.0f / 3.0f);
  EXPECT_FLOAT_EQ(max_abs(x.span()), 4.0f);
  EXPECT_EQ(argmax(x.span()), 0u);
}

TEST(OpsTest, ArgmaxFirstOnTies) {
  Tensor x{1, 3, 3, 2};
  EXPECT_EQ(argmax(x.span()), 1u);
}

TEST(OpsTest, AllFiniteDetectsNanAndInf) {
  Tensor x{1, 2, 3};
  EXPECT_TRUE(all_finite(x.span()));
  x[1] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(all_finite(x.span()));
  x[1] = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(all_finite(x.span()));
}

TEST(OpsTest, FillNormalMoments) {
  Tensor x(50000);
  Rng rng(3);
  fill_normal(x.span(), rng, 2.0f, 0.5f);
  EXPECT_NEAR(mean(x.span()), 2.0f, 0.02f);
}

TEST(OpsTest, FillUniformRange) {
  Tensor x(10000);
  Rng rng(4);
  fill_uniform(x.span(), rng, -1.0f, 1.0f);
  for (float v : x.span()) {
    ASSERT_GE(v, -1.0f);
    ASSERT_LT(v, 1.0f);
  }
  EXPECT_NEAR(mean(x.span()), 0.0f, 0.05f);
}

// Reference (i,j,k) triple-loop GEMM to validate the optimized kernels.
void naive_matmul(const std::vector<float>& a, const std::vector<float>& b,
                  std::vector<float>& c, std::size_t m, std::size_t k,
                  std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) *
               static_cast<double>(b[p * n + j]);
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

class MatmulTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(MatmulTest, MatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(42);
  std::vector<float> a(m * k), b(k * n);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());

  std::vector<float> expected(m * n);
  naive_matmul(a, b, expected, m, k, n);

  std::vector<float> c(m * n, 99.0f);
  matmul({a.data(), a.size()}, {b.data(), b.size()}, {c.data(), c.size()},
         m, k, n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], expected[i], 1e-3f) << "index " << i;
  }

  // aᵀ·b variant: store a transposed (k×m) and expect the same product.
  std::vector<float> at(k * m);
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      at[p * m + i] = a[i * k + p];
    }
  }
  std::vector<float> c2(m * n, 0.0f);
  matmul_at_b({at.data(), at.size()}, {b.data(), b.size()},
              {c2.data(), c2.size()}, m, k, n);
  for (std::size_t i = 0; i < c2.size(); ++i) {
    ASSERT_NEAR(c2[i], expected[i], 1e-3f);
  }

  // a·bᵀ variant: store b transposed (n×k).
  std::vector<float> bt(n * k);
  for (int p = 0; p < k; ++p) {
    for (int j = 0; j < n; ++j) {
      bt[j * k + p] = b[p * n + j];
    }
  }
  std::vector<float> c3(m * n, 0.0f);
  std::vector<float> scratch(k * n);
  matmul_a_bt({a.data(), a.size()}, {bt.data(), bt.size()},
              {c3.data(), c3.size()}, m, k, n,
              {scratch.data(), scratch.size()});
  for (std::size_t i = 0; i < c3.size(); ++i) {
    ASSERT_NEAR(c3[i], expected[i], 1e-3f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 5, 3), std::make_tuple(16, 16, 16),
                      std::make_tuple(1, 32, 8), std::make_tuple(33, 17, 9)));

// Bit-exactness of the register-blocked kernel against the plain loops it
// replaced: every entry point must reproduce its *_reference twin to the
// last bit (memcmp), for every tile edge and with ±0 in a — the ReLU-masked
// operands the layers feed it.
struct GemmShape {
  std::size_t m;
  std::size_t k;
  std::size_t n;
};

std::vector<float> normal_values(std::size_t size, Rng& rng) {
  std::vector<float> v(size);
  fill_normal({v.data(), v.size()}, rng, 0.0f, 1.0f);
  return v;
}

/// N(0,1) draws with about a third masked to +0 and a sixth to −0.
std::vector<float> masked_values(std::size_t size, Rng& rng) {
  std::vector<float> v = normal_values(size, rng);
  for (float& x : v) {
    const double u = rng.uniform(0.0, 1.0);
    if (u < 1.0 / 3.0) {
      x = 0.0f;
    } else if (u < 0.5) {
      x = -0.0f;
    }
  }
  return v;
}

bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

void expect_bit_exact(const GemmShape& shape, float beta, std::uint64_t seed) {
  const auto [m, k, n] = shape;
  Rng rng(seed);
  const std::vector<float> a = masked_values(m * k, rng);
  const std::vector<float> b = normal_values(k * n, rng);
  // beta = 0 must overwrite c, so start it as NaN there.
  const std::vector<float> c0 =
      beta == 0.0f
          ? std::vector<float>(m * n, std::numeric_limits<float>::quiet_NaN())
          : normal_values(m * n, rng);
  const std::span<const float> a_span{a.data(), a.size()};
  const std::span<const float> b_span{b.data(), b.size()};
  std::vector<float> scratch(k * n);
  std::ostringstream where;
  where << "m=" << m << " k=" << k << " n=" << n << " beta=" << beta;

  // a is read as m×k, as k×m (matmul_at_b) and b as k×n or n×k.
  std::vector<float> got = c0, want = c0;
  matmul(a_span, b_span, {got.data(), got.size()}, m, k, n, beta);
  matmul_reference(a_span, b_span, {want.data(), want.size()}, m, k, n, beta);
  EXPECT_TRUE(same_bits(got, want)) << "matmul " << where.str();

  got = c0;
  want = c0;
  matmul_at_b(a_span, b_span, {got.data(), got.size()}, m, k, n, beta);
  matmul_at_b_reference(a_span, b_span, {want.data(), want.size()}, m, k, n,
                        beta);
  EXPECT_TRUE(same_bits(got, want)) << "matmul_at_b " << where.str();

  got = c0;
  want = c0;
  matmul_a_bt(a_span, b_span, {got.data(), got.size()}, m, k, n,
              {scratch.data(), scratch.size()}, beta);
  matmul_a_bt_reference(a_span, b_span, {want.data(), want.size()}, m, k, n,
                        beta);
  EXPECT_TRUE(same_bits(got, want)) << "matmul_a_bt " << where.str();
}

class MatmulBitExactTest : public ::testing::TestWithParam<float> {};

TEST_P(MatmulBitExactTest, ModelShapes) {
  // Conv2d's products on ResNet20-mini (forward, dW, dcols) and the text
  // classifier's Linear head, plus odd sizes on every axis.
  const GemmShape shapes[] = {{1, 1, 1},    {33, 17, 9},  {8, 72, 256},
                              {288, 16, 32}, {27, 256, 8}, {32, 64, 2},
                              {16, 144, 64}, {72, 8, 256}, {32, 288, 16}};
  std::uint64_t seed = 100;
  for (const GemmShape& shape : shapes) {
    expect_bit_exact(shape, GetParam(), ++seed);
  }
}

TEST_P(MatmulBitExactTest, EveryEdgeRemainder) {
  // Rows up to two full tiles plus one (the widest arm has 8-row tiles) and
  // columns up to two full 32-column blocks plus one (16-lane vectors, two
  // per block): every full/partial tile combination of every ISA arm.
  std::uint64_t seed = 1000;
  for (std::size_t m = 1; m <= 17; ++m) {
    for (std::size_t n = 1; n <= 65; ++n) {
      for (const std::size_t k : {1, 5}) {
        expect_bit_exact({m, k, n}, GetParam(), ++seed);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Betas, MatmulBitExactTest,
                         ::testing::Values(0.0f, 1.0f, 0.5f));

TEST(OpsTest, TransposeSwapsAxes) {
  const std::vector<float> src{1, 2, 3, 4, 5, 6};  // 2×3
  std::vector<float> dst(6);
  transpose({src.data(), src.size()}, 2, 3, {dst.data(), dst.size()});
  EXPECT_EQ(dst, (std::vector<float>{1, 4, 2, 5, 3, 6}));
}

TEST(OpsTest, MatmulBetaAccumulates) {
  std::vector<float> a{1, 0, 0, 1};  // identity 2x2
  std::vector<float> b{1, 2, 3, 4};
  std::vector<float> c{10, 10, 10, 10};
  matmul({a.data(), 4}, {b.data(), 4}, {c.data(), 4}, 2, 2, 2, /*beta=*/1.0f);
  EXPECT_FLOAT_EQ(c[0], 11.0f);
  EXPECT_FLOAT_EQ(c[3], 14.0f);
}

TEST(OpsTest, MatmulExtentChecks) {
  std::vector<float> a(6), b(6), c(5);
  EXPECT_THROW(matmul({a.data(), 6}, {b.data(), 6}, {c.data(), 5}, 2, 3, 2),
               CheckError);
}

TEST(OpsTest, CopyInto) {
  Tensor src{1, 2, 3};
  Tensor dst(3);
  copy_into(src.span(), dst.span());
  EXPECT_EQ(dst[2], 3.0f);
}

TEST(OpsTest, MeanOfEmptyThrows) {
  EXPECT_THROW(mean({}), CheckError);
  EXPECT_THROW(argmax({}), CheckError);
}

}  // namespace
}  // namespace marsit
