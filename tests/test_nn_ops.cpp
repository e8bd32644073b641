// Unit tests for the functional reference operators.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/activations.hpp"
#include "nn/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace fuse::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;
using tensor::allclose;

Tensor random_tensor(Shape shape, std::uint64_t seed, float lo = -1.0F,
                     float hi = 1.0F) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  t.fill_uniform(rng, lo, hi);
  return t;
}

/// True when both tensors have the same shape and the same bytes.
bool same_bits(const Tensor& actual, const Tensor& expected) {
  return actual.shape() == expected.shape() &&
         std::memcmp(actual.data(), expected.data(),
                     static_cast<std::size_t>(actual.num_elements()) *
                         sizeof(float)) == 0;
}

/// The odd spatial sizes, at batch 2, that the glue-op bitwise tests run on.
const std::vector<Shape>& glue_shapes() {
  static const std::vector<Shape> shapes = {
      Shape{2, 3, 1, 1}, Shape{2, 5, 7, 7}, Shape{2, 4, 13, 11}};
  return shapes;
}

// --- matmul -----------------------------------------------------------------

TEST(Matmul, HandComputed2x2) {
  const Tensor a(Shape{2, 2}, {1, 2, 3, 4});
  const Tensor b(Shape{2, 2}, {5, 6, 7, 8});
  const Tensor c = matmul(a, b);
  EXPECT_EQ(c.at(0, 0), 19.0F);
  EXPECT_EQ(c.at(0, 1), 22.0F);
  EXPECT_EQ(c.at(1, 0), 43.0F);
  EXPECT_EQ(c.at(1, 1), 50.0F);
}

TEST(Matmul, IdentityIsNoop) {
  const Tensor a = random_tensor(Shape{3, 3}, 1);
  Tensor eye(Shape{3, 3});
  for (int i = 0; i < 3; ++i) {
    eye.at(i, i) = 1.0F;
  }
  EXPECT_TRUE(allclose(matmul(a, eye), a));
}

TEST(Matmul, InnerDimMismatchThrows) {
  EXPECT_THROW(matmul(Tensor(Shape{2, 3}), Tensor(Shape{4, 2})),
               util::Error);
}

TEST(Matmul, NonSquareShapes) {
  const Tensor a = random_tensor(Shape{2, 5}, 2);
  const Tensor b = random_tensor(Shape{5, 7}, 3);
  EXPECT_EQ(matmul(a, b).shape(), (Shape{2, 7}));
}

// --- conv2d -----------------------------------------------------------------

TEST(Conv2d, OneByOneKernelScalesInput) {
  Tensor input(Shape{1, 1, 2, 2});
  input.fill_iota();
  const Tensor weight(Shape{1, 1, 1, 1}, {3.0F});
  const Tensor out = conv2d(input, weight, nullptr, {});
  EXPECT_EQ(out.shape(), input.shape());
  EXPECT_EQ(out.at(0, 0, 1, 1), 9.0F);
}

TEST(Conv2d, DeltaKernelIsIdentityOnInterior) {
  // 3x3 kernel with 1 at center, 'same' padding: output == input.
  Tensor input = random_tensor(Shape{1, 2, 5, 5}, 4);
  Tensor weight(Shape{2, 1, 3, 3});
  weight.at(0, 0, 1, 1) = 1.0F;
  weight.at(1, 0, 1, 1) = 1.0F;
  Conv2dParams p;
  p.pad_h = 1;
  p.pad_w = 1;
  p.groups = 2;
  const Tensor out = conv2d(input, weight, nullptr, p);
  EXPECT_TRUE(allclose(out, input));
}

TEST(Conv2d, HandComputedValidConv) {
  // input 1x1x3x3 = iota, kernel = all ones 2x2, valid: sums of 2x2 windows.
  Tensor input(Shape{1, 1, 3, 3});
  input.fill_iota();
  Tensor weight(Shape{1, 1, 2, 2});
  weight.fill(1.0F);
  const Tensor out = conv2d(input, weight, nullptr, {});
  EXPECT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_EQ(out.at(0, 0, 0, 0), 0.0F + 1 + 3 + 4);
  EXPECT_EQ(out.at(0, 0, 1, 1), 4.0F + 5 + 7 + 8);
}

TEST(Conv2d, BiasAddsPerChannel) {
  Tensor input(Shape{1, 1, 2, 2});
  Tensor weight(Shape{2, 1, 1, 1});
  const Tensor bias(Shape{2}, {1.5F, -2.0F});
  const Tensor out = conv2d(input, weight, &bias, {});
  EXPECT_EQ(out.at(0, 0, 0, 0), 1.5F);
  EXPECT_EQ(out.at(0, 1, 0, 0), -2.0F);
}

TEST(Conv2d, StrideDownsamples) {
  Tensor input(Shape{1, 1, 4, 4});
  input.fill_iota();
  Tensor weight(Shape{1, 1, 1, 1}, {1.0F});
  Conv2dParams p;
  p.stride_h = 2;
  p.stride_w = 2;
  const Tensor out = conv2d(input, weight, nullptr, p);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_EQ(out.at(0, 0, 0, 0), 0.0F);
  EXPECT_EQ(out.at(0, 0, 0, 1), 2.0F);
  EXPECT_EQ(out.at(0, 0, 1, 0), 8.0F);
}

TEST(Conv2d, DilationSpreadsTaps) {
  Tensor input(Shape{1, 1, 5, 5});
  input.fill_iota();
  Tensor weight(Shape{1, 1, 2, 2});
  weight.fill(1.0F);
  Conv2dParams p;
  p.dilation_h = 2;
  p.dilation_w = 2;
  const Tensor out = conv2d(input, weight, nullptr, p);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 3, 3}));
  // Taps at (0,0),(0,2),(2,0),(2,2): 0 + 2 + 10 + 12.
  EXPECT_EQ(out.at(0, 0, 0, 0), 24.0F);
}

TEST(Conv2d, DepthwiseIsChannelIndependent) {
  // Change one input channel; only that output channel changes.
  Tensor input = random_tensor(Shape{1, 3, 4, 4}, 5);
  const Tensor weight = random_tensor(Shape{3, 1, 3, 3}, 6);
  Conv2dParams p;
  p.pad_h = 1;
  p.pad_w = 1;
  p.groups = 3;
  const Tensor out1 = conv2d(input, weight, nullptr, p);
  for (std::int64_t i = 0; i < 16; ++i) {
    input[1 * 16 + i] += 1.0F;  // bump channel 1
  }
  const Tensor out2 = conv2d(input, weight, nullptr, p);
  for (std::int64_t c = 0; c < 3; ++c) {
    float diff = 0.0F;
    for (std::int64_t i = 0; i < 16; ++i) {
      diff += std::fabs(out1[c * 16 + i] - out2[c * 16 + i]);
    }
    if (c == 1) {
      EXPECT_GT(diff, 0.1F);
    } else {
      EXPECT_EQ(diff, 0.0F);
    }
  }
}

TEST(Conv2d, GroupedMatchesTwoHalfConvs) {
  const Tensor input = random_tensor(Shape{1, 4, 5, 5}, 7);
  const Tensor weight = random_tensor(Shape{6, 2, 3, 3}, 8);
  Conv2dParams grouped;
  grouped.pad_h = 1;
  grouped.pad_w = 1;
  grouped.groups = 2;
  const Tensor out = conv2d(input, weight, nullptr, grouped);

  // Manually: first 3 filters on channels 0-1, last 3 on channels 2-3.
  Tensor in_lo(Shape{1, 2, 5, 5});
  Tensor in_hi(Shape{1, 2, 5, 5});
  for (std::int64_t i = 0; i < 50; ++i) {
    in_lo[i] = input[i];
    in_hi[i] = input[50 + i];
  }
  Tensor w_lo(Shape{3, 2, 3, 3});
  Tensor w_hi(Shape{3, 2, 3, 3});
  for (std::int64_t i = 0; i < 54; ++i) {
    w_lo[i] = weight[i];
    w_hi[i] = weight[54 + i];
  }
  Conv2dParams dense;
  dense.pad_h = 1;
  dense.pad_w = 1;
  const Tensor lo = conv2d(in_lo, w_lo, nullptr, dense);
  const Tensor hi = conv2d(in_hi, w_hi, nullptr, dense);
  const Tensor expected = concat_channels(lo, hi);
  EXPECT_TRUE(allclose(out, expected, 1e-4F, 1e-5F));
}

TEST(Conv2d, BatchProcessedIndependently) {
  const Tensor weight = random_tensor(Shape{2, 3, 3, 3}, 9);
  Conv2dParams p;
  p.pad_h = 1;
  p.pad_w = 1;
  const Tensor in_a = random_tensor(Shape{1, 3, 4, 4}, 10);
  const Tensor in_b = random_tensor(Shape{1, 3, 4, 4}, 11);
  Tensor batched(Shape{2, 3, 4, 4});
  for (std::int64_t i = 0; i < 48; ++i) {
    batched[i] = in_a[i];
    batched[48 + i] = in_b[i];
  }
  const Tensor out = conv2d(batched, weight, nullptr, p);
  const Tensor out_a = conv2d(in_a, weight, nullptr, p);
  for (std::int64_t i = 0; i < out_a.num_elements(); ++i) {
    EXPECT_FLOAT_EQ(out[i], out_a[i]);
  }
}

TEST(Conv2d, ShapeValidation) {
  EXPECT_THROW(conv2d(Tensor(Shape{1, 3, 4}), Tensor(Shape{1, 3, 1, 1}),
                      nullptr, {}),
               util::Error);
  // groups not dividing channels
  Conv2dParams p;
  p.groups = 2;
  EXPECT_THROW(conv2d(Tensor(Shape{1, 3, 4, 4}), Tensor(Shape{2, 1, 1, 1}),
                      nullptr, p),
               util::Error);
  // wrong weight in-channels
  EXPECT_THROW(conv2d(Tensor(Shape{1, 3, 4, 4}), Tensor(Shape{2, 2, 1, 1}),
                      nullptr, {}),
               util::Error);
}

// --- conv2d_im2col ----------------------------------------------------------

struct ConvCase {
  std::int64_t in_c, in_hw, out_c, k, stride, pad;
};

class Im2colEquivalence : public ::testing::TestWithParam<ConvCase> {};

TEST_P(Im2colEquivalence, MatchesDirectConv) {
  const ConvCase c = GetParam();
  const Tensor input =
      random_tensor(Shape{1, c.in_c, c.in_hw, c.in_hw}, 21);
  const Tensor weight =
      random_tensor(Shape{c.out_c, c.in_c, c.k, c.k}, 22);
  const Tensor bias = random_tensor(Shape{c.out_c}, 23);
  Conv2dParams p;
  p.stride_h = c.stride;
  p.stride_w = c.stride;
  p.pad_h = c.pad;
  p.pad_w = c.pad;
  const Tensor direct = conv2d(input, weight, &bias, p);
  const Tensor lowered = conv2d_im2col(input, weight, &bias, p);
  EXPECT_TRUE(allclose(lowered, direct, 1e-4F, 1e-5F))
      << "max diff " << tensor::max_abs_diff(lowered, direct);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Im2colEquivalence,
    ::testing::Values(ConvCase{1, 5, 1, 3, 1, 0}, ConvCase{3, 8, 4, 3, 1, 1},
                      ConvCase{2, 7, 3, 5, 1, 2}, ConvCase{3, 8, 2, 3, 2, 1},
                      ConvCase{4, 6, 8, 1, 1, 0},
                      ConvCase{2, 9, 2, 3, 3, 1}));

TEST(Conv2dIm2col, RejectsGroups) {
  Conv2dParams p;
  p.groups = 2;
  EXPECT_THROW(conv2d_im2col(Tensor(Shape{1, 2, 4, 4}),
                             Tensor(Shape{2, 1, 1, 1}), nullptr, p),
               util::Error);
}

// --- linear -----------------------------------------------------------------

TEST(Linear, HandComputed) {
  const Tensor input(Shape{1, 3}, {1, 2, 3});
  const Tensor weight(Shape{2, 3}, {1, 0, 0, 0, 1, 1});
  const Tensor bias(Shape{2}, {10, 20});
  const Tensor out = linear(input, weight, &bias);
  EXPECT_EQ(out.at(0, 0), 11.0F);
  EXPECT_EQ(out.at(0, 1), 25.0F);
}

TEST(Linear, MatchesMatmulTransposed) {
  const Tensor input = random_tensor(Shape{4, 6}, 31);
  const Tensor weight = random_tensor(Shape{5, 6}, 32);
  const Tensor out = linear(input, weight, nullptr);
  Tensor wt(Shape{6, 5});
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 6; ++j) {
      wt.at(j, i) = weight.at(i, j);
    }
  }
  EXPECT_TRUE(allclose(out, matmul(input, wt), 1e-4F, 1e-5F));
}

TEST(Linear, FeatureMismatchThrows) {
  EXPECT_THROW(linear(Tensor(Shape{1, 3}), Tensor(Shape{2, 4}), nullptr),
               util::Error);
}

// --- pooling ----------------------------------------------------------------

TEST(AvgPool, WindowAverages) {
  Tensor input(Shape{1, 1, 2, 2});
  input.fill_iota();  // 0 1 2 3
  const Tensor out = avg_pool2d(input, 2, 2);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_EQ(out.at(0, 0, 0, 0), 1.5F);
}

TEST(AvgPool, PaddingExcludedFromDivisor) {
  Tensor input(Shape{1, 1, 2, 2});
  input.fill(4.0F);
  // 3x3 window, pad 1: corner windows see 4 valid values, all equal 4.
  const Tensor out = avg_pool2d(input, 3, 1, 1);
  EXPECT_EQ(out.at(0, 0, 0, 0), 4.0F);
}

TEST(MaxPool, PicksMaximum) {
  Tensor input(Shape{1, 1, 2, 2}, {3, -1, 0, 2});
  const Tensor out = max_pool2d(input, 2, 2);
  EXPECT_EQ(out.at(0, 0, 0, 0), 3.0F);
}

TEST(MaxPool, NegativeValuesHandled) {
  Tensor input(Shape{1, 1, 2, 2}, {-3, -1, -5, -2});
  EXPECT_EQ(max_pool2d(input, 2, 2).at(0, 0, 0, 0), -1.0F);
}

TEST(GlobalAvgPool, MeansOverSpatial) {
  Tensor input(Shape{2, 2, 2, 2});
  input.fill_iota();
  const Tensor out = global_avg_pool(input);
  EXPECT_EQ(out.shape(), (Shape{2, 2, 1, 1}));
  EXPECT_EQ(out.at(0, 0, 0, 0), 1.5F);   // mean(0..3)
  EXPECT_EQ(out.at(1, 1, 0, 0), 13.5F);  // mean(12..15)
}

// --- elementwise / channels -------------------------------------------------

TEST(Add, ElementwiseSum) {
  const Tensor a(Shape{2}, {1, 2});
  const Tensor b(Shape{2}, {10, 20});
  const Tensor c = add(a, b);
  EXPECT_EQ(c.at(1), 22.0F);
}

TEST(Add, ShapeMismatchThrows) {
  EXPECT_THROW(add(Tensor(Shape{2}), Tensor(Shape{3})), util::Error);
}

TEST(ConcatChannels, StacksAlongC) {
  Tensor a(Shape{1, 1, 2, 2});
  a.fill(1.0F);
  Tensor b(Shape{1, 2, 2, 2});
  b.fill(2.0F);
  const Tensor c = concat_channels(a, b);
  EXPECT_EQ(c.shape(), (Shape{1, 3, 2, 2}));
  EXPECT_EQ(c.at(0, 0, 0, 0), 1.0F);
  EXPECT_EQ(c.at(0, 1, 0, 0), 2.0F);
  EXPECT_EQ(c.at(0, 2, 1, 1), 2.0F);
}

TEST(ConcatChannels, BatchedLayout) {
  Tensor a(Shape{2, 1, 1, 1}, {1, 3});
  Tensor b(Shape{2, 1, 1, 1}, {2, 4});
  const Tensor c = concat_channels(a, b);
  EXPECT_EQ(c.at(0, 0, 0, 0), 1.0F);
  EXPECT_EQ(c.at(0, 1, 0, 0), 2.0F);
  EXPECT_EQ(c.at(1, 0, 0, 0), 3.0F);
  EXPECT_EQ(c.at(1, 1, 0, 0), 4.0F);
}

TEST(ConcatChannels, SpatialMismatchThrows) {
  EXPECT_THROW(
      concat_channels(Tensor(Shape{1, 1, 2, 2}), Tensor(Shape{1, 1, 3, 3})),
      util::Error);
}

TEST(ScaleChannels, PerChannelMultiply) {
  Tensor input(Shape{1, 2, 2, 2});
  input.fill(3.0F);
  const Tensor scale(Shape{1, 2, 1, 1}, {2.0F, 0.5F});
  const Tensor out = scale_channels(input, scale);
  EXPECT_EQ(out.at(0, 0, 1, 1), 6.0F);
  EXPECT_EQ(out.at(0, 1, 0, 0), 1.5F);
}

TEST(BatchnormFolded, AffinePerChannel) {
  Tensor input(Shape{1, 2, 1, 2});
  input.fill(2.0F);
  const Tensor scale(Shape{2}, {3.0F, -1.0F});
  const Tensor shift(Shape{2}, {1.0F, 0.0F});
  const Tensor out = batchnorm_folded(input, scale, shift);
  EXPECT_EQ(out.at(0, 0, 0, 0), 7.0F);
  EXPECT_EQ(out.at(0, 1, 0, 1), -2.0F);
}

// Every glue op against a naive index loop with the same arithmetic in the
// same order: the outputs must be bit-identical, not merely close.

TEST(GlueBitwise, AddMatchesNaiveLoop) {
  for (const Shape& shape : glue_shapes()) {
    const Tensor a = random_tensor(shape, 201, -8.0F, 8.0F);
    const Tensor b = random_tensor(shape, 202, -8.0F, 8.0F);
    Tensor want(shape);
    for (std::int64_t i = 0; i < want.num_elements(); ++i) {
      want[i] = a[i] + b[i];
    }
    EXPECT_TRUE(same_bits(add(a, b), want)) << shape.to_string();
  }
}

TEST(GlueBitwise, ScaleChannelsMatchesNaiveLoop) {
  for (const Shape& shape : glue_shapes()) {
    const Tensor input = random_tensor(shape, 203, -8.0F, 8.0F);
    const Tensor scale =
        random_tensor(Shape{shape.dim(0), shape.dim(1), 1, 1}, 204);
    Tensor want(shape);
    for (std::int64_t n = 0; n < shape.dim(0); ++n) {
      for (std::int64_t c = 0; c < shape.dim(1); ++c) {
        for (std::int64_t y = 0; y < shape.dim(2); ++y) {
          for (std::int64_t x = 0; x < shape.dim(3); ++x) {
            want.at(n, c, y, x) = input.at(n, c, y, x) * scale.at(n, c, 0, 0);
          }
        }
      }
    }
    EXPECT_TRUE(same_bits(scale_channels(input, scale), want))
        << shape.to_string();
  }
}

TEST(GlueBitwise, BatchnormFoldedMatchesNaiveLoop) {
  for (const Shape& shape : glue_shapes()) {
    const Tensor input = random_tensor(shape, 205, -8.0F, 8.0F);
    const Tensor scale = random_tensor(Shape{shape.dim(1)}, 206);
    const Tensor shift = random_tensor(Shape{shape.dim(1)}, 207);
    Tensor want(shape);
    for (std::int64_t n = 0; n < shape.dim(0); ++n) {
      for (std::int64_t c = 0; c < shape.dim(1); ++c) {
        for (std::int64_t y = 0; y < shape.dim(2); ++y) {
          for (std::int64_t x = 0; x < shape.dim(3); ++x) {
            want.at(n, c, y, x) =
                input.at(n, c, y, x) * scale.at(c) + shift.at(c);
          }
        }
      }
    }
    EXPECT_TRUE(same_bits(batchnorm_folded(input, scale, shift), want))
        << shape.to_string();
  }
}

TEST(GlueBitwise, GlobalAvgPoolMatchesNaiveLoop) {
  for (const Shape& shape : glue_shapes()) {
    const Tensor input = random_tensor(shape, 208, -8.0F, 8.0F);
    Tensor want(Shape{shape.dim(0), shape.dim(1), 1, 1});
    for (std::int64_t n = 0; n < shape.dim(0); ++n) {
      for (std::int64_t c = 0; c < shape.dim(1); ++c) {
        double acc = 0.0;
        for (std::int64_t y = 0; y < shape.dim(2); ++y) {
          for (std::int64_t x = 0; x < shape.dim(3); ++x) {
            acc += input.at(n, c, y, x);
          }
        }
        want.at(n, c, 0, 0) = static_cast<float>(
            acc / static_cast<double>(shape.dim(2) * shape.dim(3)));
      }
    }
    EXPECT_TRUE(same_bits(global_avg_pool(input), want)) << shape.to_string();
  }
}

/// Max or average pooling as a naive index loop: a double accumulator over
/// the window's in-bounds taps in (ky, kx) order; the average divides by
/// the in-bounds count.
Tensor naive_pool(const Tensor& input, std::int64_t kernel,
                  std::int64_t stride, std::int64_t pad, bool average) {
  const Shape& s = input.shape();
  const std::int64_t out_h = (s.dim(2) + 2 * pad - kernel) / stride + 1;
  const std::int64_t out_w = (s.dim(3) + 2 * pad - kernel) / stride + 1;
  Tensor out(Shape{s.dim(0), s.dim(1), out_h, out_w});
  for (std::int64_t n = 0; n < s.dim(0); ++n) {
    for (std::int64_t c = 0; c < s.dim(1); ++c) {
      for (std::int64_t oy = 0; oy < out_h; ++oy) {
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          double acc =
              average ? 0.0 : -std::numeric_limits<double>::infinity();
          std::int64_t valid = 0;
          for (std::int64_t ky = 0; ky < kernel; ++ky) {
            for (std::int64_t kx = 0; kx < kernel; ++kx) {
              const std::int64_t iy = oy * stride - pad + ky;
              const std::int64_t ix = ox * stride - pad + kx;
              if (iy < 0 || iy >= s.dim(2) || ix < 0 || ix >= s.dim(3)) {
                continue;
              }
              const double v = input.at(n, c, iy, ix);
              acc = average ? acc + v : std::max(acc, v);
              ++valid;
            }
          }
          out.at(n, c, oy, ox) = static_cast<float>(
              average ? acc / static_cast<double>(valid) : acc);
        }
      }
    }
  }
  return out;
}

TEST(GlueBitwise, PoolingMatchesNaiveLoop) {
  struct Window {
    std::int64_t kernel, stride, pad;
  };
  for (const Shape& shape : glue_shapes()) {
    const Tensor input = random_tensor(shape, 209, -8.0F, 8.0F);
    for (const Window w : {Window{1, 1, 0}, Window{3, 1, 1}, Window{3, 2, 1},
                           Window{5, 2, 2}}) {
      EXPECT_TRUE(same_bits(max_pool2d(input, w.kernel, w.stride, w.pad),
                            naive_pool(input, w.kernel, w.stride, w.pad,
                                       /*average=*/false)))
          << "max " << shape.to_string() << " k" << w.kernel;
      EXPECT_TRUE(same_bits(avg_pool2d(input, w.kernel, w.stride, w.pad),
                            naive_pool(input, w.kernel, w.stride, w.pad,
                                       /*average=*/true)))
          << "avg " << shape.to_string() << " k" << w.kernel;
    }
  }
}

// --- activations ------------------------------------------------------------

TEST(Activations, ReluClampsNegatives) {
  EXPECT_EQ(apply_activation(-2.0F, Activation::kRelu), 0.0F);
  EXPECT_EQ(apply_activation(3.0F, Activation::kRelu), 3.0F);
}

TEST(Activations, Relu6ClampsBothSides) {
  EXPECT_EQ(apply_activation(-1.0F, Activation::kRelu6), 0.0F);
  EXPECT_EQ(apply_activation(4.0F, Activation::kRelu6), 4.0F);
  EXPECT_EQ(apply_activation(9.0F, Activation::kRelu6), 6.0F);
}

TEST(Activations, HardSwishKnownPoints) {
  EXPECT_EQ(apply_activation(-3.0F, Activation::kHardSwish), 0.0F);
  EXPECT_EQ(apply_activation(0.0F, Activation::kHardSwish), 0.0F);
  EXPECT_EQ(apply_activation(3.0F, Activation::kHardSwish), 3.0F);
  EXPECT_NEAR(apply_activation(1.0F, Activation::kHardSwish), 2.0F / 3.0F,
              1e-6F);
}

TEST(Activations, HardSigmoidKnownPoints) {
  EXPECT_EQ(apply_activation(-4.0F, Activation::kHardSigmoid), 0.0F);
  EXPECT_EQ(apply_activation(0.0F, Activation::kHardSigmoid), 0.5F);
  EXPECT_EQ(apply_activation(4.0F, Activation::kHardSigmoid), 1.0F);
}

TEST(Activations, SigmoidSymmetry) {
  const float s = apply_activation(1.3F, Activation::kSigmoid);
  const float t = apply_activation(-1.3F, Activation::kSigmoid);
  EXPECT_NEAR(s + t, 1.0F, 1e-6F);
}

TEST(Activations, GradMatchesFiniteDifference) {
  const float eps = 1e-3F;
  for (Activation act :
       {Activation::kRelu, Activation::kRelu6, Activation::kHardSwish,
        Activation::kHardSigmoid, Activation::kSigmoid}) {
    for (float x : {-5.0F, -1.0F, 0.5F, 1.7F, 5.0F}) {
      const float numeric = (apply_activation(x + eps, act) -
                             apply_activation(x - eps, act)) /
                            (2 * eps);
      EXPECT_NEAR(activation_grad(x, act), numeric, 2e-3F)
          << activation_name(act) << " at " << x;
    }
  }
}

TEST(Activations, TensorApplication) {
  const Tensor t(Shape{3}, {-1.0F, 0.0F, 2.0F});
  const Tensor out = apply_activation(t, Activation::kRelu);
  EXPECT_EQ(out.at(0), 0.0F);
  EXPECT_EQ(out.at(2), 2.0F);
}


// The tensor loop instantiates the same formula as the scalar entry point,
// so every element must carry the scalar result's exact bit pattern —
// including signed zeros, infinities, NaN and denormals, and on every
// length 1..67 so each vector width's tail is exercised.
TEST(Activations, TensorMatchesScalarBitwise) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> specials = {
      0.0F, -0.0F, inf, -inf, std::numeric_limits<float>::quiet_NaN(),
      3.0F, -3.0F, 6.0F, -6.0F, std::numeric_limits<float>::denorm_min(),
      1e30F, -1e30F};
  util::Rng rng(211);
  for (Activation act :
       {Activation::kNone, Activation::kRelu, Activation::kRelu6,
        Activation::kHardSwish, Activation::kHardSigmoid,
        Activation::kSigmoid}) {
    for (std::int64_t n = 1; n <= 67; ++n) {
      Tensor input(Shape{n});
      input.fill_uniform(rng, -8.0F, 8.0F);
      // Every other element is a special value, rotated with n so each
      // one lands in vector bodies and tails alike.
      for (std::int64_t i = 0; i < n; i += 2) {
        input[i] = specials[static_cast<std::size_t>(i / 2 + n) %
                            specials.size()];
      }
      const Tensor out = apply_activation(input, act);
      ASSERT_EQ(out.shape(), input.shape());
      for (std::int64_t i = 0; i < n; ++i) {
        const float want = apply_activation(input[i], act);
        EXPECT_EQ(std::bit_cast<std::uint32_t>(out[i]),
                  std::bit_cast<std::uint32_t>(want))
            << activation_name(act) << " n=" << n << " x=" << input[i];
      }
    }
  }
}


struct DilatedCase {
  std::int64_t in_c, in_hw, out_c, k, stride, pad, dilation;
};

class DilatedIm2colEquivalence
    : public ::testing::TestWithParam<DilatedCase> {};

TEST_P(DilatedIm2colEquivalence, MatchesDirectConv) {
  const DilatedCase c = GetParam();
  const Tensor input =
      random_tensor(Shape{1, c.in_c, c.in_hw, c.in_hw}, 91);
  const Tensor weight =
      random_tensor(Shape{c.out_c, c.in_c, c.k, c.k}, 92);
  Conv2dParams p;
  p.stride_h = c.stride;
  p.stride_w = c.stride;
  p.pad_h = c.pad;
  p.pad_w = c.pad;
  p.dilation_h = c.dilation;
  p.dilation_w = c.dilation;
  const Tensor direct = conv2d(input, weight, nullptr, p);
  const Tensor lowered = conv2d_im2col(input, weight, nullptr, p);
  EXPECT_TRUE(allclose(lowered, direct, 1e-4F, 1e-5F));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DilatedIm2colEquivalence,
    ::testing::Values(DilatedCase{2, 9, 3, 3, 1, 2, 2},
                      DilatedCase{1, 11, 2, 3, 1, 3, 3},
                      DilatedCase{3, 12, 2, 3, 2, 2, 2},
                      DilatedCase{2, 10, 4, 2, 1, 1, 2}));

TEST(Conv2d, AsymmetricStridesAndPads) {
  // Non-square geometry in every knob at once.
  const Tensor input = random_tensor(Shape{1, 2, 9, 7}, 93);
  const Tensor weight = random_tensor(Shape{3, 2, 3, 5}, 94);
  Conv2dParams p;
  p.stride_h = 2;
  p.stride_w = 1;
  p.pad_h = 0;
  p.pad_w = 2;
  const Tensor out = conv2d(input, weight, nullptr, p);
  EXPECT_EQ(out.shape(), (Shape{1, 3, 4, 7}));
}

}  // namespace
}  // namespace fuse::nn
