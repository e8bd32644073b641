#include "nn/layer.hpp"

#include <sstream>

#include "tensor/im2col.hpp"
#include "util/check.hpp"

namespace fuse::nn {

std::string op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kStandardConv:
      return "conv";
    case OpKind::kGroupedConv:
      return "gconv";
    case OpKind::kDepthwiseConv:
      return "dw";
    case OpKind::kPointwiseConv:
      return "pw";
    case OpKind::kFuseRowConv:
      return "fuse-row";
    case OpKind::kFuseColConv:
      return "fuse-col";
    case OpKind::kFullyConnected:
      return "fc";
    case OpKind::kAvgPool:
      return "avgpool";
    case OpKind::kMaxPool:
      return "maxpool";
    case OpKind::kGlobalAvgPool:
      return "gap";
    case OpKind::kActivation:
      return "act";
    case OpKind::kElementwiseAdd:
      return "add";
  }
  return "?";
}

OpKind op_kind_from_name(const std::string& name) {
  for (OpKind kind :
       {OpKind::kStandardConv, OpKind::kGroupedConv, OpKind::kDepthwiseConv,
        OpKind::kPointwiseConv, OpKind::kFuseRowConv, OpKind::kFuseColConv,
        OpKind::kFullyConnected, OpKind::kAvgPool, OpKind::kMaxPool,
        OpKind::kGlobalAvgPool, OpKind::kActivation,
        OpKind::kElementwiseAdd}) {
    if (op_kind_name(kind) == name) {
      return kind;
    }
  }
  FUSE_CHECK(false) << "unknown op kind name '" << name << "'";
  return OpKind::kStandardConv;
}

bool op_kind_counts_for_latency(OpKind kind) {
  switch (kind) {
    case OpKind::kStandardConv:
    case OpKind::kGroupedConv:
    case OpKind::kDepthwiseConv:
    case OpKind::kPointwiseConv:
    case OpKind::kFuseRowConv:
    case OpKind::kFuseColConv:
    case OpKind::kFullyConnected:
      return true;
    case OpKind::kAvgPool:
    case OpKind::kMaxPool:
    case OpKind::kGlobalAvgPool:
    case OpKind::kActivation:
    case OpKind::kElementwiseAdd:
      return false;
  }
  return false;
}

std::uint64_t LayerDesc::macs() const {
  const std::uint64_t out_positions =
      static_cast<std::uint64_t>(out_h) * static_cast<std::uint64_t>(out_w);
  switch (kind) {
    case OpKind::kStandardConv:
    case OpKind::kGroupedConv:
    case OpKind::kDepthwiseConv:
    case OpKind::kPointwiseConv:
    case OpKind::kFuseRowConv:
    case OpKind::kFuseColConv: {
      const std::uint64_t taps_per_output =
          static_cast<std::uint64_t>(kernel_h) *
          static_cast<std::uint64_t>(kernel_w) *
          static_cast<std::uint64_t>(in_c / groups);
      return out_positions * static_cast<std::uint64_t>(out_c) *
             taps_per_output;
    }
    case OpKind::kFullyConnected:
      return static_cast<std::uint64_t>(in_c) *
             static_cast<std::uint64_t>(out_c);
    case OpKind::kAvgPool:
    case OpKind::kMaxPool:
    case OpKind::kGlobalAvgPool:
    case OpKind::kActivation:
    case OpKind::kElementwiseAdd:
      return 0;
  }
  return 0;
}

std::uint64_t LayerDesc::params() const {
  std::uint64_t weights = 0;
  switch (kind) {
    case OpKind::kStandardConv:
    case OpKind::kGroupedConv:
    case OpKind::kDepthwiseConv:
    case OpKind::kPointwiseConv:
    case OpKind::kFuseRowConv:
    case OpKind::kFuseColConv:
      weights = static_cast<std::uint64_t>(out_c) *
                static_cast<std::uint64_t>(in_c / groups) *
                static_cast<std::uint64_t>(kernel_h) *
                static_cast<std::uint64_t>(kernel_w);
      break;
    case OpKind::kFullyConnected:
      weights = static_cast<std::uint64_t>(in_c) *
                static_cast<std::uint64_t>(out_c);
      break;
    case OpKind::kAvgPool:
    case OpKind::kMaxPool:
    case OpKind::kGlobalAvgPool:
    case OpKind::kActivation:
    case OpKind::kElementwiseAdd:
      return 0;
  }
  if (has_bias) {
    weights += static_cast<std::uint64_t>(out_c);
  }
  if (has_batchnorm) {
    weights += 2ULL * static_cast<std::uint64_t>(out_c);
  }
  return weights;
}

std::string LayerDesc::to_string() const {
  std::ostringstream out;
  out << name << " [" << op_kind_name(kind) << "] " << in_c << "x" << in_h
      << "x" << in_w << " -> " << out_c << "x" << out_h << "x" << out_w;
  if (kind != OpKind::kFullyConnected && kernel_h * kernel_w > 0) {
    out << " k=" << kernel_h << "x" << kernel_w << " s=" << stride_h << "x"
        << stride_w << " p=" << pad_h << "x" << pad_w << " g=" << groups;
  }
  return out.str();
}

void validate(const LayerDesc& layer) {
  FUSE_CHECK(layer.in_c > 0 && layer.in_h > 0 && layer.in_w > 0 &&
             layer.out_c > 0 && layer.out_h > 0 && layer.out_w > 0)
      << "layer " << layer.name << ": extents must be positive (in "
      << layer.in_c << "x" << layer.in_h << "x" << layer.in_w << ", out "
      << layer.out_c << "x" << layer.out_h << "x" << layer.out_w << ")";
  FUSE_CHECK(layer.kernel_h > 0 && layer.kernel_w > 0)
      << "layer " << layer.name << ": kernel must be positive, got "
      << layer.kernel_h << "x" << layer.kernel_w;
  FUSE_CHECK(layer.stride_h > 0 && layer.stride_w > 0)
      << "layer " << layer.name << ": stride must be positive, got "
      << layer.stride_h << "x" << layer.stride_w;
  FUSE_CHECK(layer.pad_h >= 0 && layer.pad_w >= 0)
      << "layer " << layer.name << ": pad must be non-negative, got "
      << layer.pad_h << "x" << layer.pad_w;
  FUSE_CHECK(layer.groups > 0 && layer.in_c % layer.groups == 0 &&
             layer.out_c % layer.groups == 0)
      << "layer " << layer.name << ": groups " << layer.groups
      << " do not divide channels in_c=" << layer.in_c
      << " out_c=" << layer.out_c;
  const bool conv_family =
      layer.counts_for_latency() && layer.kind != OpKind::kFullyConnected;
  if (!conv_family) {
    return;
  }
  FUSE_CHECK(layer.in_h + 2 * layer.pad_h >= layer.kernel_h &&
             layer.in_w + 2 * layer.pad_w >= layer.kernel_w)
      << "layer " << layer.name << ": kernel " << layer.kernel_h << "x"
      << layer.kernel_w << " larger than padded input";
  const std::int64_t out_h = tensor::conv_out_dim(
      layer.in_h, layer.kernel_h, layer.stride_h, layer.pad_h);
  const std::int64_t out_w = tensor::conv_out_dim(
      layer.in_w, layer.kernel_w, layer.stride_w, layer.pad_w);
  FUSE_CHECK(layer.out_h == out_h && layer.out_w == out_w)
      << "layer " << layer.name << ": out_h/out_w " << layer.out_h << "x"
      << layer.out_w << " differ from the conv geometry's " << out_h << "x"
      << out_w;
}

namespace {

/// Shared geometry derivation for the conv-family factories.
LayerDesc conv_like(const std::string& name, OpKind kind, std::int64_t in_c,
                    std::int64_t in_h, std::int64_t in_w, std::int64_t out_c,
                    std::int64_t kernel_h, std::int64_t kernel_w,
                    std::int64_t stride_h, std::int64_t stride_w,
                    std::int64_t pad_h, std::int64_t pad_w,
                    std::int64_t groups, Activation act) {
  FUSE_CHECK(in_c > 0 && in_h > 0 && in_w > 0 && out_c > 0)
      << "bad conv geometry for layer " << name;
  FUSE_CHECK(in_c % groups == 0 && out_c % groups == 0)
      << "channels not divisible by groups for layer " << name;
  LayerDesc layer;
  layer.name = name;
  layer.kind = kind;
  layer.in_c = in_c;
  layer.in_h = in_h;
  layer.in_w = in_w;
  layer.out_c = out_c;
  layer.out_h = tensor::conv_out_dim(in_h, kernel_h, stride_h, pad_h);
  layer.out_w = tensor::conv_out_dim(in_w, kernel_w, stride_w, pad_w);
  layer.kernel_h = kernel_h;
  layer.kernel_w = kernel_w;
  layer.stride_h = stride_h;
  layer.stride_w = stride_w;
  layer.pad_h = pad_h;
  layer.pad_w = pad_w;
  layer.groups = groups;
  layer.has_batchnorm = true;
  layer.activation = act;
  return layer;
}

}  // namespace

LayerDesc make_conv(const std::string& name, std::int64_t in_c,
                    std::int64_t in_h, std::int64_t in_w, std::int64_t out_c,
                    std::int64_t kernel, std::int64_t stride,
                    std::int64_t pad, Activation act) {
  return conv_like(name, OpKind::kStandardConv, in_c, in_h, in_w, out_c,
                   kernel, kernel, stride, stride, pad, pad, /*groups=*/1,
                   act);
}

LayerDesc make_depthwise(const std::string& name, std::int64_t channels,
                         std::int64_t in_h, std::int64_t in_w,
                         std::int64_t kernel, std::int64_t stride,
                         std::int64_t pad, Activation act) {
  return conv_like(name, OpKind::kDepthwiseConv, channels, in_h, in_w,
                   channels, kernel, kernel, stride, stride, pad, pad,
                   /*groups=*/channels, act);
}

LayerDesc make_pointwise(const std::string& name, std::int64_t in_c,
                         std::int64_t in_h, std::int64_t in_w,
                         std::int64_t out_c, Activation act) {
  return conv_like(name, OpKind::kPointwiseConv, in_c, in_h, in_w, out_c,
                   /*kernel_h=*/1, /*kernel_w=*/1, /*stride=*/1, 1,
                   /*pad=*/0, 0, /*groups=*/1, act);
}

LayerDesc make_fuse_row(const std::string& name, std::int64_t channels,
                        std::int64_t in_h, std::int64_t in_w,
                        std::int64_t kernel, std::int64_t stride,
                        std::int64_t pad, Activation act) {
  // 1xK kernel, but the full 2-D stride and only horizontal padding, so the
  // output spatial size equals that of the KxK depthwise it replaces.
  return conv_like(name, OpKind::kFuseRowConv, channels, in_h, in_w,
                   channels, /*kernel_h=*/1, /*kernel_w=*/kernel, stride,
                   stride, /*pad_h=*/0, /*pad_w=*/pad, /*groups=*/channels,
                   act);
}

LayerDesc make_fuse_col(const std::string& name, std::int64_t channels,
                        std::int64_t in_h, std::int64_t in_w,
                        std::int64_t kernel, std::int64_t stride,
                        std::int64_t pad, Activation act) {
  return conv_like(name, OpKind::kFuseColConv, channels, in_h, in_w,
                   channels, /*kernel_h=*/kernel, /*kernel_w=*/1, stride,
                   stride, /*pad_h=*/pad, /*pad_w=*/0, /*groups=*/channels,
                   act);
}

LayerDesc make_fully_connected(const std::string& name, std::int64_t in_f,
                               std::int64_t out_f, bool bias,
                               Activation act) {
  FUSE_CHECK(in_f > 0 && out_f > 0) << "bad FC geometry for layer " << name;
  LayerDesc layer;
  layer.name = name;
  layer.kind = OpKind::kFullyConnected;
  layer.in_c = in_f;
  layer.in_h = 1;
  layer.in_w = 1;
  layer.out_c = out_f;
  layer.out_h = 1;
  layer.out_w = 1;
  layer.has_bias = bias;
  layer.activation = act;
  return layer;
}

std::uint64_t total_macs(const std::vector<LayerDesc>& layers) {
  std::uint64_t total = 0;
  for (const LayerDesc& layer : layers) {
    total += layer.macs();
  }
  return total;
}

std::uint64_t total_params(const std::vector<LayerDesc>& layers) {
  std::uint64_t total = 0;
  for (const LayerDesc& layer : layers) {
    total += layer.params();
  }
  return total;
}

}  // namespace fuse::nn
