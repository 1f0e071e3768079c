#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace marsit {

namespace {

std::size_t conv_extent(std::size_t in, std::size_t kernel,
                        std::size_t stride, std::size_t padding) {
  MARSIT_CHECK(in + 2 * padding >= kernel)
      << "kernel " << kernel << " larger than padded input "
      << in + 2 * padding;
  return (in + 2 * padding - kernel) / stride + 1;
}

}  // namespace

Conv2d::Conv2d(ImageDims in, std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t padding)
    : in_(in),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_count_(out_channels * in.channels * kernel * kernel),
      storage_(weight_count_ + out_channels),
      grad_storage_(storage_.size()) {
  MARSIT_CHECK(in.channels > 0 && in.height > 0 && in.width > 0)
      << "degenerate conv input";
  MARSIT_CHECK(out_channels > 0 && kernel > 0 && stride > 0)
      << "degenerate conv geometry";
  (void)out_dims();  // validates kernel vs padded extent
}

ImageDims Conv2d::out_dims() const {
  return {out_channels_, conv_extent(in_.height, kernel_, stride_, padding_),
          conv_extent(in_.width, kernel_, stride_, padding_)};
}

std::string Conv2d::name() const {
  return "Conv2d(" + std::to_string(in_.channels) + "->" +
         std::to_string(out_channels_) + ",k" + std::to_string(kernel_) +
         ",s" + std::to_string(stride_) + ",p" + std::to_string(padding_) +
         ")";
}

namespace {

/// Outputs [lo, hi) along one axis whose kernel tap `tap` reads an input
/// coordinate o·stride + tap − padding inside [0, extent); the outputs
/// outside it read padding.
struct ValidRange {
  std::size_t lo;
  std::size_t hi;
};

ValidRange valid_outputs(std::size_t out, std::size_t extent, std::size_t tap,
                         std::size_t stride, std::size_t padding) {
  if (tap >= extent + padding) {
    return {0, 0};
  }
  const std::size_t lo =
      tap >= padding ? 0 : (padding - tap + stride - 1) / stride;
  const std::size_t hi =
      std::min(out, (extent + padding - tap - 1) / stride + 1);
  return {std::min(lo, hi), hi};
}

}  // namespace

bool Conv2d::flat_taps() const {
  return stride_ == 1 && out_dims().width == in_.width;
}

void Conv2d::im2col(const float* x_n, float* cols) const {
  // cols is (Cin·k²) × (out.h·out.w): one ROW per patch component, one
  // COLUMN per output pixel, so the convolution is
  //   y(Cout × plane) = W(Cout × patch) · cols(patch × plane)
  // — a single GEMM per sample with the long `plane` axis innermost and the
  // result already in NCHW layout (no transposes anywhere).  Each tap copies
  // its valid runs and zeroes only the padding: one run per output row, or
  // with flat_taps() one run for the whole plane, whose wrap-around columns
  // are padding and get zeroed afterwards.
  const ImageDims out = out_dims();
  const std::size_t in_plane = in_.height * in_.width;
  const std::size_t out_plane = out.height * out.width;
  const bool flat = flat_taps();
  std::size_t c = 0;
  for (std::size_t ic = 0; ic < in_.channels; ++ic) {
    const float* x_plane = x_n + ic * in_plane;
    for (std::size_t ky = 0; ky < kernel_; ++ky) {
      const ValidRange ys =
          valid_outputs(out.height, in_.height, ky, stride_, padding_);
      for (std::size_t kx = 0; kx < kernel_; ++kx, ++c) {
        const ValidRange xs =
            valid_outputs(out.width, in_.width, kx, stride_, padding_);
        float* row = cols + c * out_plane;
        if (xs.lo == xs.hi || ys.lo == ys.hi) {
          std::fill(row, row + out_plane, 0.0f);
          continue;
        }
        if (flat) {
          const std::size_t first = ys.lo * out.width + xs.lo;
          const std::size_t last = (ys.hi - 1) * out.width + xs.hi;
          const float* src = x_plane + ((first + ky * in_.width + kx) -
                                        (padding_ * in_.width + padding_));
          std::fill(row, row + first, 0.0f);
          std::copy(src, src + (last - first), row + first);
          std::fill(row + last, row + out_plane, 0.0f);
          for (std::size_t oy = ys.lo; oy < ys.hi; ++oy) {
            float* out_row = row + oy * out.width;
            std::fill(out_row, out_row + xs.lo, 0.0f);
            std::fill(out_row + xs.hi, out_row + out.width, 0.0f);
          }
          continue;
        }
        std::fill(row, row + ys.lo * out.width, 0.0f);
        for (std::size_t oy = ys.lo; oy < ys.hi; ++oy) {
          float* out_row = row + oy * out.width;
          const float* src = x_plane +
                             (oy * stride_ + ky - padding_) * in_.width +
                             (xs.lo * stride_ + kx - padding_);
          std::fill(out_row, out_row + xs.lo, 0.0f);
          for (std::size_t ox = xs.lo; ox < xs.hi; ++ox, src += stride_) {
            out_row[ox] = *src;
          }
          std::fill(out_row + xs.hi, out_row + out.width, 0.0f);
        }
        std::fill(row + ys.hi * out.width, row + out_plane, 0.0f);
      }
    }
  }
}

void Conv2d::col2im(float* cols, float* dx_n) const {
  // Scatter-add the inverse of im2col: overlapping patches accumulate tap by
  // tap in im2col's row order, and padding taps are skipped as runs.  With
  // flat_taps() each tap adds one run for the whole plane after zeroing its
  // wrap-around columns in `cols`; those then add +0, which is exact because
  // dx starts at +0 and only ever receives additions, so it never holds −0.
  const ImageDims out = out_dims();
  const std::size_t in_plane = in_.height * in_.width;
  const std::size_t out_plane = out.height * out.width;
  const bool flat = flat_taps();
  std::size_t c = 0;
  for (std::size_t ic = 0; ic < in_.channels; ++ic) {
    float* dx_plane = dx_n + ic * in_plane;
    for (std::size_t ky = 0; ky < kernel_; ++ky) {
      const ValidRange ys =
          valid_outputs(out.height, in_.height, ky, stride_, padding_);
      for (std::size_t kx = 0; kx < kernel_; ++kx, ++c) {
        const ValidRange xs =
            valid_outputs(out.width, in_.width, kx, stride_, padding_);
        if (xs.lo == xs.hi || ys.lo == ys.hi) {
          continue;
        }
        float* row = cols + c * out_plane;
        if (flat) {
          for (std::size_t oy = ys.lo; oy < ys.hi; ++oy) {
            float* g_row = row + oy * out.width;
            std::fill(g_row, g_row + xs.lo, 0.0f);
            std::fill(g_row + xs.hi, g_row + out.width, 0.0f);
          }
          const std::size_t first = ys.lo * out.width + xs.lo;
          const std::size_t last = (ys.hi - 1) * out.width + xs.hi;
          float* dst = dx_plane + ((first + ky * in_.width + kx) -
                                   (padding_ * in_.width + padding_));
          for (std::size_t q = first; q < last; ++q, ++dst) {
            *dst += row[q];
          }
          continue;
        }
        for (std::size_t oy = ys.lo; oy < ys.hi; ++oy) {
          const float* g_row = row + oy * out.width;
          float* dst = dx_plane + (oy * stride_ + ky - padding_) * in_.width +
                       (xs.lo * stride_ + kx - padding_);
          for (std::size_t ox = xs.lo; ox < xs.hi; ++ox, dst += stride_) {
            *dst += g_row[ox];
          }
        }
      }
    }
  }
}

void Conv2d::forward(std::span<const float> x, std::size_t batch,
                     std::span<float> y) {
  MARSIT_CHECK(x.size() == batch * in_size()) << "conv forward: x extent";
  MARSIT_CHECK(y.size() == batch * out_size()) << "conv forward: y extent";

  const ImageDims out = out_dims();
  const std::size_t out_plane = out.height * out.width;
  const std::size_t patch = in_.channels * kernel_ * kernel_;

  // Cache the im2col image: backward reuses it for the weight gradient.
  if (cached_cols_.size() != batch * out_plane * patch) {
    cached_cols_ = Tensor(batch * out_plane * patch);
  }
  cached_batch_ = batch;

  const auto w = weights();
  const auto b = bias();
  for (std::size_t n = 0; n < batch; ++n) {
    float* cols = cached_cols_.data() + n * out_plane * patch;
    im2col(x.data() + n * in_size(), cols);
    float* y_n = y.data() + n * out_size();
    // y(Cout × plane) = W(Cout × patch) · cols(patch × plane).
    matmul(w, {cols, patch * out_plane}, {y_n, out_size()}, out_channels_,
           patch, out_plane);
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      float* y_plane = y_n + oc * out_plane;
      const float bias_oc = b[oc];
      for (std::size_t p = 0; p < out_plane; ++p) {
        y_plane[p] += bias_oc;
      }
    }
  }
}

void Conv2d::backward(std::span<const float> dy, std::size_t batch,
                      std::span<float> dx) {
  MARSIT_CHECK(dy.size() == batch * out_size()) << "conv backward: dy extent";
  MARSIT_CHECK(dx.size() == batch * in_size()) << "conv backward: dx extent";
  MARSIT_CHECK(cached_batch_ == batch && !cached_cols_.empty())
      << "conv backward without matching forward";

  const ImageDims out = out_dims();
  const std::size_t out_plane = out.height * out.width;
  const std::size_t patch = in_.channels * kernel_ * kernel_;

  const auto w = weights();
  auto dw = grad_storage_.span().subspan(0, weight_count_);
  auto db = grad_storage_.span().subspan(weight_count_, out_channels_);

  if (dcols_.empty()) {
    dcols_ = Tensor(patch * out_plane);
    dy_t_ = Tensor(out_plane * out_channels_);
    dw_t_ = Tensor(weight_count_);
  }
  // The weight gradient accumulates as dWᵀ(patch × Cout) so the kernel's B
  // operand (dyᵀ) is contiguous along Cout; each element sums its terms
  // sample by sample in ascending pixel order.
  transpose(dw, out_channels_, patch, dw_t_.span());
  zero(dx);
  for (std::size_t n = 0; n < batch; ++n) {
    const float* dy_n = dy.data() + n * out_size();
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      const float* dy_plane = dy_n + oc * out_plane;
      double bias_acc = 0.0;
      for (std::size_t p = 0; p < out_plane; ++p) {
        bias_acc += dy_plane[p];
      }
      db[oc] += static_cast<float>(bias_acc);
    }

    const float* cols = cached_cols_.data() + n * out_plane * patch;
    // dWᵀ(patch × Cout) += cols(patch × plane) · dy(Cout × plane)ᵀ.
    matmul_a_bt({cols, patch * out_plane}, {dy_n, out_size()}, dw_t_.span(),
                patch, out_plane, out_channels_, dy_t_.span(),
                /*beta=*/1.0f);
    // dcols(patch × plane) = Wᵀ(patch × Cout) · dy(Cout × plane).
    matmul_at_b(w, {dy_n, out_size()}, dcols_.span(), patch, out_channels_,
                out_plane);
    col2im(dcols_.data(), dx.data() + n * in_size());
  }
  transpose(dw_t_.span(), patch, out_channels_, dw);
}

void Conv2d::init(Rng& rng) {
  const std::size_t fan_in = in_.channels * kernel_ * kernel_;
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  fill_normal(weights(), rng, 0.0f, stddev);
  zero(bias());
  grad_storage_.zero();
}

MaxPool2d::MaxPool2d(ImageDims in, std::size_t kernel, std::size_t stride)
    : in_(in), kernel_(kernel), stride_(stride == 0 ? kernel : stride) {
  MARSIT_CHECK(kernel_ > 0) << "degenerate pool kernel";
  (void)out_dims();
}

ImageDims MaxPool2d::out_dims() const {
  return {in_.channels, conv_extent(in_.height, kernel_, stride_, 0),
          conv_extent(in_.width, kernel_, stride_, 0)};
}

std::string MaxPool2d::name() const {
  return "MaxPool2d(k" + std::to_string(kernel_) + ",s" +
         std::to_string(stride_) + ")";
}

void MaxPool2d::forward(std::span<const float> x, std::size_t batch,
                        std::span<float> y) {
  MARSIT_CHECK(x.size() == batch * in_size()) << "pool forward: x extent";
  MARSIT_CHECK(y.size() == batch * out_size()) << "pool forward: y extent";
  const ImageDims out = out_dims();
  const std::size_t in_plane = in_.height * in_.width;
  const std::size_t out_plane = out.height * out.width;
  argmax_.assign(y.size(), 0);

  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < in_.channels; ++c) {
      const float* x_plane = x.data() + n * in_size() + c * in_plane;
      float* y_plane = y.data() + n * out_size() + c * out_plane;
      std::size_t* arg_plane =
          argmax_.data() + n * out_size() + c * out_plane;
      for (std::size_t oy = 0; oy < out.height; ++oy) {
        for (std::size_t ox = 0; ox < out.width; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_index = 0;
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            const std::size_t iy = oy * stride_ + ky;
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              const std::size_t ix = ox * stride_ + kx;
              const std::size_t xi = iy * in_.width + ix;
              if (x_plane[xi] > best) {
                best = x_plane[xi];
                best_index = xi;
              }
            }
          }
          y_plane[oy * out.width + ox] = best;
          arg_plane[oy * out.width + ox] = best_index;
        }
      }
    }
  }
}

void MaxPool2d::backward(std::span<const float> dy, std::size_t batch,
                         std::span<float> dx) {
  MARSIT_CHECK(dy.size() == batch * out_size()) << "pool backward: dy extent";
  MARSIT_CHECK(dx.size() == batch * in_size()) << "pool backward: dx extent";
  MARSIT_CHECK(argmax_.size() == dy.size())
      << "pool backward without matching forward";
  const ImageDims out = out_dims();
  const std::size_t in_plane = in_.height * in_.width;
  const std::size_t out_plane = out.height * out.width;

  zero(dx);
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < in_.channels; ++c) {
      const float* dy_plane = dy.data() + n * out_size() + c * out_plane;
      float* dx_plane = dx.data() + n * in_size() + c * in_plane;
      const std::size_t* arg_plane =
          argmax_.data() + n * out_size() + c * out_plane;
      for (std::size_t i = 0; i < out_plane; ++i) {
        dx_plane[arg_plane[i]] += dy_plane[i];
      }
    }
  }
}

GlobalAvgPool::GlobalAvgPool(ImageDims in) : in_(in) {
  MARSIT_CHECK(in_.size() > 0) << "degenerate global pool";
}

void GlobalAvgPool::forward(std::span<const float> x, std::size_t batch,
                            std::span<float> y) {
  MARSIT_CHECK(x.size() == batch * in_size()) << "gap forward: x extent";
  MARSIT_CHECK(y.size() == batch * in_.channels) << "gap forward: y extent";
  const std::size_t plane = in_.height * in_.width;
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < in_.channels; ++c) {
      y[n * in_.channels + c] =
          sum(x.subspan(n * in_size() + c * plane, plane)) * inv;
    }
  }
}

void GlobalAvgPool::backward(std::span<const float> dy, std::size_t batch,
                             std::span<float> dx) {
  MARSIT_CHECK(dy.size() == batch * in_.channels) << "gap backward: dy extent";
  MARSIT_CHECK(dx.size() == batch * in_size()) << "gap backward: dx extent";
  const std::size_t plane = in_.height * in_.width;
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < in_.channels; ++c) {
      const float g = dy[n * in_.channels + c] * inv;
      auto slice = dx.subspan(n * in_size() + c * plane, plane);
      fill(slice, g);
    }
  }
}

}  // namespace marsit
