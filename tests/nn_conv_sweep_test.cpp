// Property sweep: Conv2d forward/backward against a brute-force reference
// over a grid of geometries (channels × spatial × kernel × stride ×
// padding), including every ResNet20-mini conv.  Complements
// nn_gradcheck_test with exact-value checks — the im2col + GEMM
// implementation must match the definition of convolution, not merely have
// consistent gradients — and pins the layer bit-for-bit to a per-sample
// composition of the reference GEMM loops and element-wise im2col/col2im.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "nn/conv.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace marsit {
namespace {

/// Direct (definition) convolution for reference.
void reference_conv(const std::vector<float>& x, const std::vector<float>& w,
                    const std::vector<float>& bias, std::vector<float>& y,
                    std::size_t batch, ImageDims in, std::size_t out_ch,
                    std::size_t k, std::size_t stride, std::size_t pad,
                    ImageDims out) {
  const std::size_t in_plane = in.height * in.width;
  const std::size_t out_plane = out.height * out.width;
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t oc = 0; oc < out_ch; ++oc) {
      for (std::size_t oy = 0; oy < out.height; ++oy) {
        for (std::size_t ox = 0; ox < out.width; ++ox) {
          double acc = bias[oc];
          for (std::size_t ic = 0; ic < in.channels; ++ic) {
            for (std::size_t ky = 0; ky < k; ++ky) {
              for (std::size_t kx = 0; kx < k; ++kx) {
                const std::ptrdiff_t iy =
                    static_cast<std::ptrdiff_t>(oy * stride + ky) -
                    static_cast<std::ptrdiff_t>(pad);
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox * stride + kx) -
                    static_cast<std::ptrdiff_t>(pad);
                if (iy < 0 || ix < 0 ||
                    iy >= static_cast<std::ptrdiff_t>(in.height) ||
                    ix >= static_cast<std::ptrdiff_t>(in.width)) {
                  continue;
                }
                acc += static_cast<double>(
                           x[n * in.size() + ic * in_plane +
                             static_cast<std::size_t>(iy) * in.width +
                             static_cast<std::size_t>(ix)]) *
                       static_cast<double>(
                           w[((oc * in.channels + ic) * k + ky) * k + kx]);
              }
            }
          }
          y[n * out_ch * out_plane + oc * out_plane + oy * out.width + ox] =
              static_cast<float>(acc);
        }
      }
    }
  }
}

// (channels, height, width, out_channels, kernel, stride, padding)
using Geometry =
    std::tuple<std::size_t, std::size_t, std::size_t, std::size_t,
               std::size_t, std::size_t, std::size_t>;

class ConvSweepTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(ConvSweepTest, ForwardMatchesDefinition) {
  const auto [c, h, w, oc, k, s, p] = GetParam();
  const ImageDims in{c, h, w};
  Conv2d conv(in, oc, k, s, p);
  Rng rng(1000 + c * 31 + h * 7 + k);
  conv.init(rng);

  const std::size_t batch = 2;
  std::vector<float> x(batch * in.size());
  fill_normal({x.data(), x.size()}, rng, 0.0f, 1.0f);

  std::vector<float> y(batch * conv.out_size());
  conv.forward({x.data(), x.size()}, batch, {y.data(), y.size()});

  std::vector<float> weights(conv.params().begin(), conv.params().end());
  const std::size_t weight_count = oc * c * k * k;
  std::vector<float> kernel(weights.begin(), weights.begin() + weight_count);
  std::vector<float> bias(weights.begin() + weight_count, weights.end());
  std::vector<float> expected(y.size());
  reference_conv(x, kernel, bias, expected, batch, in, oc, k, s, p,
                 conv.out_dims());

  for (std::size_t i = 0; i < y.size(); ++i) {
    ASSERT_NEAR(y[i], expected[i], 1e-3f) << "output " << i;
  }
}

TEST_P(ConvSweepTest, BackwardInputGradientMatchesTransposedForward) {
  // For a linear operator, <y, C(x)> must equal <Cᵀ(y), x> for all x, y —
  // the adjoint identity that ties backward to forward without finite
  // differences (exact up to float rounding).
  const auto [c, h, w, oc, k, s, p] = GetParam();
  const ImageDims in{c, h, w};
  Conv2d conv(in, oc, k, s, p);
  Rng rng(2000 + c * 31 + h * 7 + k);
  conv.init(rng);
  // Remove the bias so the map is purely linear.
  auto params = conv.params();
  for (std::size_t i = oc * c * k * k; i < params.size(); ++i) {
    params[i] = 0.0f;
  }

  const std::size_t batch = 1;
  std::vector<float> x(in.size());
  fill_normal({x.data(), x.size()}, rng, 0.0f, 1.0f);
  std::vector<float> y(conv.out_size());
  conv.forward({x.data(), x.size()}, batch, {y.data(), y.size()});

  std::vector<float> probe(conv.out_size());
  fill_normal({probe.data(), probe.size()}, rng, 0.0f, 1.0f);
  conv.zero_grads();
  std::vector<float> dx(in.size());
  conv.backward({probe.data(), probe.size()}, batch, {dx.data(), dx.size()});

  const float lhs = dot({y.data(), y.size()}, {probe.data(), probe.size()});
  const float rhs = dot({dx.data(), dx.size()}, {x.data(), x.size()});
  EXPECT_NEAR(lhs, rhs, 1e-2f + 1e-3f * std::abs(lhs));
}

TEST_P(ConvSweepTest, WeightAndBiasGradientsMatchDefinition) {
  // dW[oc][ic][ky][kx] = Σ_n Σ_(oy,ox) dy[n][oc][oy][ox] · x[n][ic][iy][ix]
  // over in-bounds taps, db[oc] = Σ_n Σ_(oy,ox) dy[n][oc][oy][ox].
  const auto [c, h, w, oc, k, s, p] = GetParam();
  const ImageDims in{c, h, w};
  Conv2d conv(in, oc, k, s, p);
  Rng rng(3000 + c * 31 + h * 7 + k);
  conv.init(rng);
  const ImageDims out = conv.out_dims();

  const std::size_t batch = 3;
  std::vector<float> x(batch * in.size());
  fill_normal({x.data(), x.size()}, rng, 0.0f, 1.0f);
  std::vector<float> y(batch * conv.out_size());
  conv.forward({x.data(), x.size()}, batch, {y.data(), y.size()});
  std::vector<float> dy(y.size());
  fill_normal({dy.data(), dy.size()}, rng, 0.0f, 1.0f);
  conv.zero_grads();
  std::vector<float> dx(x.size());
  conv.backward({dy.data(), dy.size()}, batch, {dx.data(), dx.size()});

  const auto grads = conv.grads();
  const std::size_t in_plane = h * w;
  const std::size_t out_plane = out.height * out.width;
  for (std::size_t o = 0; o < oc; ++o) {
    double db = 0.0;
    for (std::size_t n = 0; n < batch; ++n) {
      for (std::size_t q = 0; q < out_plane; ++q) {
        db += dy[(n * oc + o) * out_plane + q];
      }
    }
    ASSERT_NEAR(grads[oc * c * k * k + o], db, 1e-3) << "db " << o;
    for (std::size_t i = 0; i < c; ++i) {
      for (std::size_t ky = 0; ky < k; ++ky) {
        for (std::size_t kx = 0; kx < k; ++kx) {
          double dw = 0.0;
          for (std::size_t n = 0; n < batch; ++n) {
            for (std::size_t oy = 0; oy < out.height; ++oy) {
              for (std::size_t ox = 0; ox < out.width; ++ox) {
                const std::ptrdiff_t iy =
                    static_cast<std::ptrdiff_t>(oy * s + ky) -
                    static_cast<std::ptrdiff_t>(p);
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox * s + kx) -
                    static_cast<std::ptrdiff_t>(p);
                if (iy < 0 || ix < 0 ||
                    iy >= static_cast<std::ptrdiff_t>(h) ||
                    ix >= static_cast<std::ptrdiff_t>(w)) {
                  continue;
                }
                dw += static_cast<double>(
                          dy[(n * oc + o) * out_plane + oy * out.width + ox]) *
                      static_cast<double>(
                          x[(n * c + i) * in_plane +
                            static_cast<std::size_t>(iy) * w +
                            static_cast<std::size_t>(ix)]);
              }
            }
          }
          const std::size_t index = ((o * c + i) * k + ky) * k + kx;
          ASSERT_NEAR(grads[index], dw, 1e-3 + 1e-4 * std::abs(dw))
              << "dW " << index;
        }
      }
    }
  }
}

// ---- bit-exact oracle -------------------------------------------------------
//
// The layer as it was before its GEMMs were register-blocked and its
// im2col/col2im run-based: element-wise im2col/col2im with a bounds branch
// per element around the *_reference GEMM loops, one sample at a time.

struct Geometry3 {
  ImageDims in;
  ImageDims out;
  std::size_t k, s, p;
};

std::ptrdiff_t tap(std::size_t o, std::size_t t, const Geometry3& g) {
  return static_cast<std::ptrdiff_t>(o * g.s + t) -
         static_cast<std::ptrdiff_t>(g.p);
}

void oracle_im2col(const float* x_n, float* cols, const Geometry3& g) {
  const std::size_t out_plane = g.out.height * g.out.width;
  std::size_t row = 0;
  for (std::size_t ic = 0; ic < g.in.channels; ++ic) {
    for (std::size_t ky = 0; ky < g.k; ++ky) {
      for (std::size_t kx = 0; kx < g.k; ++kx, ++row) {
        for (std::size_t oy = 0; oy < g.out.height; ++oy) {
          for (std::size_t ox = 0; ox < g.out.width; ++ox) {
            const std::ptrdiff_t iy = tap(oy, ky, g);
            const std::ptrdiff_t ix = tap(ox, kx, g);
            const bool inside =
                iy >= 0 && ix >= 0 &&
                iy < static_cast<std::ptrdiff_t>(g.in.height) &&
                ix < static_cast<std::ptrdiff_t>(g.in.width);
            cols[row * out_plane + oy * g.out.width + ox] =
                inside ? x_n[(ic * g.in.height + static_cast<std::size_t>(iy)) *
                                 g.in.width +
                             static_cast<std::size_t>(ix)]
                       : 0.0f;
          }
        }
      }
    }
  }
}

void oracle_col2im(const float* cols, float* dx_n, const Geometry3& g) {
  const std::size_t out_plane = g.out.height * g.out.width;
  std::size_t row = 0;
  for (std::size_t ic = 0; ic < g.in.channels; ++ic) {
    for (std::size_t ky = 0; ky < g.k; ++ky) {
      for (std::size_t kx = 0; kx < g.k; ++kx, ++row) {
        for (std::size_t oy = 0; oy < g.out.height; ++oy) {
          for (std::size_t ox = 0; ox < g.out.width; ++ox) {
            const std::ptrdiff_t iy = tap(oy, ky, g);
            const std::ptrdiff_t ix = tap(ox, kx, g);
            if (iy >= 0 && ix >= 0 &&
                iy < static_cast<std::ptrdiff_t>(g.in.height) &&
                ix < static_cast<std::ptrdiff_t>(g.in.width)) {
              dx_n[(ic * g.in.height + static_cast<std::size_t>(iy)) *
                       g.in.width +
                   static_cast<std::size_t>(ix)] +=
                  cols[row * out_plane + oy * g.out.width + ox];
            }
          }
        }
      }
    }
  }
}

/// N(0,1) draws with about a third masked to +0 and a sixth to −0, the
/// way a ReLU-masked gradient arrives.
std::vector<float> masked_normal(std::size_t size, Rng& rng) {
  std::vector<float> v(size);
  fill_normal({v.data(), v.size()}, rng, 0.0f, 1.0f);
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

bool same_bits(std::span<const float> x, std::span<const float> y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

/// Runs `conv` forward at `batch` on fresh masked inputs — and backward too
/// when `train` — and memcmps every output against the oracle composition.
/// want_dw/want_db carry the oracle's gradient across calls, since the layer
/// accumulates onto its gradients.
void expect_step_matches_oracle(Conv2d& conv, const Geometry3& g,
                                std::size_t batch, bool train, Rng& rng,
                                std::vector<float>& want_dw,
                                std::vector<float>& want_db,
                                const std::string& label) {
  const ImageDims in = g.in;
  const std::size_t oc = g.out.channels;
  const std::size_t patch = in.channels * g.k * g.k;
  const std::size_t out_plane = g.out.height * g.out.width;
  const std::size_t weight_count = oc * patch;
  const auto params = conv.params();
  const std::span<const float> weights = params.subspan(0, weight_count);

  const std::vector<float> x = masked_normal(batch * in.size(), rng);
  const std::vector<float> dy = masked_normal(batch * conv.out_size(), rng);
  std::vector<float> y(dy.size()), dx(x.size());
  conv.forward({x.data(), x.size()}, batch, {y.data(), y.size()});
  if (train) {
    conv.backward({dy.data(), dy.size()}, batch, {dx.data(), dx.size()});
  }

  std::vector<float> want_y(y.size()), want_dx(x.size(), 0.0f);
  std::vector<float> cols(patch * out_plane), dcols(patch * out_plane);
  for (std::size_t n = 0; n < batch; ++n) {
    oracle_im2col(x.data() + n * in.size(), cols.data(), g);
    const std::span<float> y_n{want_y.data() + n * conv.out_size(),
                               conv.out_size()};
    matmul_reference(weights, cols, y_n, oc, patch, out_plane);
    for (std::size_t o = 0; o < oc; ++o) {
      for (std::size_t q = 0; q < out_plane; ++q) {
        y_n[o * out_plane + q] += params[weight_count + o];
      }
    }
    if (!train) {
      continue;
    }

    const std::span<const float> dy_n{dy.data() + n * conv.out_size(),
                                      conv.out_size()};
    for (std::size_t o = 0; o < oc; ++o) {
      double acc = 0.0;
      for (std::size_t q = 0; q < out_plane; ++q) {
        acc += dy_n[o * out_plane + q];
      }
      want_db[o] += static_cast<float>(acc);
    }
    matmul_a_bt_reference(dy_n, cols, want_dw, oc, out_plane, patch,
                          /*beta=*/1.0f);
    matmul_at_b_reference(weights, dy_n, dcols, patch, oc, out_plane);
    oracle_col2im(dcols.data(), want_dx.data() + n * in.size(), g);
  }
  EXPECT_TRUE(same_bits(y, want_y)) << "forward, " << label;
  if (train) {
    EXPECT_TRUE(same_bits(dx, want_dx)) << "dx, " << label;
  }
  EXPECT_TRUE(same_bits(conv.grads().subspan(0, weight_count), want_dw))
      << "dW, " << label;
  EXPECT_TRUE(same_bits(conv.grads().subspan(weight_count), want_db))
      << "db, " << label;
}

TEST_P(ConvSweepTest, BitExactWithReferenceComposition) {
  const auto [c, h, w, oc, k, s, p] = GetParam();
  const ImageDims in{c, h, w};
  Conv2d conv(in, oc, k, s, p);
  Rng rng(4000 + c * 31 + h * 7 + k);
  conv.init(rng);
  // A non-zero bias so the forward's bias add is covered too.
  const std::size_t weight_count = oc * c * k * k;
  fill_normal(conv.params().subspan(weight_count), rng, 0.0f, 0.5f);
  const Geometry3 g{in, conv.out_dims(), k, s, p};
  const std::size_t batch = 3;

  std::vector<float> want_dw(weight_count, 0.0f), want_db(oc, 0.0f);
  conv.zero_grads();
  // Two steps without zeroing in between: the second accumulates onto
  // non-zero gradients, as local steps and multi-batch callers do.
  for (int step = 0; step < 2; ++step) {
    expect_step_matches_oracle(conv, g, batch, /*train=*/true, rng, want_dw,
                               want_db, "step " + std::to_string(step));
  }
}

TEST_P(ConvSweepTest, BitExactAcrossBatchChange) {
  // The trainer's pattern: train at the worker batch, run a larger eval
  // forward, train again.  The cache grows for the eval batch, and the
  // second training step runs on its prefix and must see none of the eval
  // batch.
  const auto [c, h, w, oc, k, s, p] = GetParam();
  const ImageDims in{c, h, w};
  Conv2d conv(in, oc, k, s, p);
  Rng rng(5000 + c * 31 + h * 7 + k);
  conv.init(rng);
  const std::size_t weight_count = oc * c * k * k;
  fill_normal(conv.params().subspan(weight_count), rng, 0.0f, 0.5f);
  const Geometry3 g{in, conv.out_dims(), k, s, p};

  std::vector<float> want_dw(weight_count, 0.0f), want_db(oc, 0.0f);
  conv.zero_grads();
  expect_step_matches_oracle(conv, g, 3, /*train=*/true, rng, want_dw, want_db,
                             "train at batch 3");
  expect_step_matches_oracle(conv, g, 7, /*train=*/false, rng, want_dw,
                             want_db, "eval at batch 7");
  expect_step_matches_oracle(conv, g, 3, /*train=*/true, rng, want_dw, want_db,
                             "train at batch 3 again");
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvSweepTest,
    ::testing::Values(Geometry{1, 4, 4, 1, 1, 1, 0},
                      Geometry{1, 5, 5, 2, 3, 1, 0},
                      Geometry{2, 5, 5, 3, 3, 1, 1},
                      Geometry{3, 6, 6, 2, 3, 2, 1},
                      Geometry{2, 7, 5, 4, 3, 2, 0},
                      Geometry{1, 8, 8, 2, 5, 1, 2},
                      Geometry{4, 4, 4, 4, 3, 1, 1},
                      Geometry{2, 9, 9, 2, 3, 3, 1},
                      Geometry{1, 1, 1, 1, 5, 1, 2},
                      // Non-square stride-1 "same" and a 1×1 p0 conv.
                      Geometry{2, 7, 5, 3, 3, 1, 1},
                      Geometry{3, 5, 6, 4, 1, 1, 0},
                      // ResNet20-mini: stem, stage-1 block, the two
                      // downsampling convs and a stage-3 block.
                      Geometry{3, 16, 16, 8, 3, 1, 1},
                      Geometry{8, 16, 16, 8, 3, 1, 1},
                      Geometry{8, 16, 16, 16, 3, 2, 1},
                      Geometry{16, 8, 8, 32, 3, 2, 1},
                      Geometry{32, 4, 4, 32, 3, 1, 1}));

}  // namespace
}  // namespace marsit
