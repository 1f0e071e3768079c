// 2-D convolution and pooling layers (NCHW layout, square kernels).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "tensor/tensor.hpp"

namespace marsit {

/// Spatial geometry of a conv/pool input.  Layers are constructed against a
/// fixed geometry (the mini models all run on fixed-size synthetic images).
struct ImageDims {
  std::size_t channels = 0;
  std::size_t height = 0;
  std::size_t width = 0;

  std::size_t size() const { return channels * height * width; }
};

class Conv2d final : public Layer {
 public:
  Conv2d(ImageDims in, std::size_t out_channels, std::size_t kernel,
         std::size_t stride = 1, std::size_t padding = 0);

  std::string name() const override;
  std::size_t in_size() const override { return in_.size(); }
  std::size_t out_size() const override { return out_dims().size(); }

  ImageDims out_dims() const;

  void forward(std::span<const float> x, std::size_t batch,
               std::span<float> y) override;
  void backward(std::span<const float> dy, std::size_t batch,
                std::span<float> dx) override;

  std::span<float> params() override { return storage_.span(); }
  std::span<const float> params() const override { return storage_.span(); }
  std::span<float> grads() override { return grad_storage_.span(); }

  void init(Rng& rng) override;

  double forward_macs_per_sample() const override {
    const ImageDims out = out_dims();
    return static_cast<double>(out.size()) *
           static_cast<double>(in_.channels * kernel_ * kernel_);
  }

 private:
  std::span<float> weights() {
    return storage_.span().subspan(0, weight_count_);
  }
  std::span<float> bias() {
    return storage_.span().subspan(weight_count_, out_channels_);
  }

  /// Stride 1 with output rows as wide as input rows ("same" padding):
  /// each tap then maps the input plane onto its patch row by one flat
  /// offset, so im2col/col2im move one run per tap instead of one per row.
  bool flat_taps() const;
  /// Expands one sample into patch rows; see forward() for the layout.
  void im2col(const float* x_n, float* cols) const;
  /// Scatter-adds patch-row gradients back to one sample's input image;
  /// zeroes the padding entries of `cols` on the way.
  void col2im(float* cols, float* dx_n) const;

  ImageDims in_;
  std::size_t out_channels_;
  std::size_t kernel_;
  std::size_t stride_;
  std::size_t padding_;
  std::size_t weight_count_;
  Tensor storage_;       // [W(oc,ic,k,k) | b(oc)]
  Tensor grad_storage_;
  Tensor cached_cols_;   // im2col image cached by forward for backward
  std::size_t cached_batch_ = 0;
  // Backward scratch, sized on first use: the input-gradient patch rows,
  // one sample's dyᵀ and the weight gradient transposed to (patch × Cout).
  Tensor dcols_;
  Tensor dy_t_;
  Tensor dw_t_;
};

class MaxPool2d final : public Layer {
 public:
  MaxPool2d(ImageDims in, std::size_t kernel, std::size_t stride = 0);

  std::string name() const override;
  std::size_t in_size() const override { return in_.size(); }
  std::size_t out_size() const override { return out_dims().size(); }

  ImageDims out_dims() const;

  void forward(std::span<const float> x, std::size_t batch,
               std::span<float> y) override;
  void backward(std::span<const float> dy, std::size_t batch,
                std::span<float> dx) override;

 private:
  ImageDims in_;
  std::size_t kernel_;
  std::size_t stride_;
  std::vector<std::size_t> argmax_;  // flat input index of each output max
};

/// Averages each channel over its spatial extent: (C,H,W) → (C).
class GlobalAvgPool final : public Layer {
 public:
  explicit GlobalAvgPool(ImageDims in);

  std::string name() const override { return "GlobalAvgPool"; }
  std::size_t in_size() const override { return in_.size(); }
  std::size_t out_size() const override { return in_.channels; }

  void forward(std::span<const float> x, std::size_t batch,
               std::span<float> y) override;
  void backward(std::span<const float> dy, std::size_t batch,
                std::span<float> dx) override;

 private:
  ImageDims in_;
};

}  // namespace marsit
