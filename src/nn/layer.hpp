// LayerDesc: the flat execution IR.
//
// Every network in the zoo lowers to a vector<LayerDesc>. Each descriptor
// carries full geometry (input/output activation shape, kernel, stride,
// padding, groups), so MAC/parameter counting and systolic-array latency
// estimation are pure functions of the descriptor. This mirrors the paper's
// methodology: latency is estimated per layer from geometry alone
// (SCALE-Sim style), and Table I's MACs/Params columns are sums over the
// same descriptors.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/activations.hpp"

namespace fuse::nn {

/// Operator classes distinguished by the paper's Fig. 8(c) breakdown plus
/// the non-compute glue ops (pool/activation/add) that are excluded from
/// latency per §V-A3.
enum class OpKind {
  kStandardConv,   // dense KxK convolution (groups == 1)
  kGroupedConv,    // grouped KxK convolution, 1 < groups < C_in
  kDepthwiseConv,  // KxK, groups == C_in == C_out, K > 1
  kPointwiseConv,  // dense 1x1 convolution
  kFuseRowConv,    // FuSeConv row branch: 1xK depthwise
  kFuseColConv,    // FuSeConv col branch: Kx1 depthwise
  kFullyConnected,
  kAvgPool,
  kMaxPool,
  kGlobalAvgPool,
  kActivation,
  kElementwiseAdd,
};

/// Short identifier for reports ("dw", "pw", "fuse-row", ...).
std::string op_kind_name(OpKind kind);

/// Inverse of op_kind_name; throws on unknown names.
OpKind op_kind_from_name(const std::string& name);

/// True for the kinds the paper includes in latency estimates: all
/// convolutions (including squeeze-excite's FCs) and fully connected layers.
bool op_kind_counts_for_latency(OpKind kind);

/// One executable layer with fully resolved geometry.
struct LayerDesc {
  std::string name;
  OpKind kind = OpKind::kStandardConv;

  // Activation geometry (batch dimension is implicit: 1).
  std::int64_t in_c = 0, in_h = 0, in_w = 0;
  std::int64_t out_c = 0, out_h = 0, out_w = 0;

  // Convolution geometry (unused for FC/pool/activation/add).
  std::int64_t kernel_h = 1, kernel_w = 1;
  std::int64_t stride_h = 1, stride_w = 1;
  std::int64_t pad_h = 0, pad_w = 0;
  std::int64_t groups = 1;

  bool has_bias = false;
  bool has_batchnorm = false;
  Activation activation = Activation::kNone;

  /// True when this layer sits inside a squeeze-excite block (reported as
  /// part of the conv/FC latency per the paper, but tagged for breakdowns).
  bool in_squeeze_excite = false;

  /// Index of the replaceable depthwise-separable block this layer belongs
  /// to (-1 when none). The FuSe transform uses these tags to compute
  /// per-block latency savings when selecting layers for the 50% variants.
  int fuse_slot = -1;

  /// Multiply-accumulate count for one inference.
  std::uint64_t macs() const;

  /// Learnable parameter count (weights + bias + 2 per channel when a
  /// batchnorm is attached).
  std::uint64_t params() const;

  /// Included in the latency estimate? (convs + FC only, per §V-A3).
  bool counts_for_latency() const {
    return op_kind_counts_for_latency(kind);
  }

  /// Single-line description for per-layer reports.
  std::string to_string() const;
};

/// Boundary check for descriptors that did not come from the factories
/// below (.fusenet text, custom serving models). Throws util::Error naming
/// the layer and field when an activation extent is not positive, a kernel
/// or stride is not positive, a padding is negative, groups do not divide
/// the channels, or a conv-family layer declares an output extent other
/// than tensor::conv_out_dim of its input geometry.
void validate(const LayerDesc& layer);

// --- Factory helpers -------------------------------------------------------
// All take the input activation geometry and derive the output geometry.

/// Dense KxK convolution with symmetric stride/padding.
LayerDesc make_conv(const std::string& name, std::int64_t in_c,
                    std::int64_t in_h, std::int64_t in_w, std::int64_t out_c,
                    std::int64_t kernel, std::int64_t stride,
                    std::int64_t pad, Activation act = Activation::kNone);

/// Depthwise KxK convolution (groups == in_c == out_c).
LayerDesc make_depthwise(const std::string& name, std::int64_t channels,
                         std::int64_t in_h, std::int64_t in_w,
                         std::int64_t kernel, std::int64_t stride,
                         std::int64_t pad,
                         Activation act = Activation::kNone);

/// Dense 1x1 convolution.
LayerDesc make_pointwise(const std::string& name, std::int64_t in_c,
                         std::int64_t in_h, std::int64_t in_w,
                         std::int64_t out_c,
                         Activation act = Activation::kNone);

/// FuSeConv row branch: 1xK depthwise over `channels`, full 2-D stride so
/// the output spatial size matches the depthwise layer it replaces.
LayerDesc make_fuse_row(const std::string& name, std::int64_t channels,
                        std::int64_t in_h, std::int64_t in_w,
                        std::int64_t kernel, std::int64_t stride,
                        std::int64_t pad, Activation act = Activation::kNone);

/// FuSeConv column branch: Kx1 depthwise.
LayerDesc make_fuse_col(const std::string& name, std::int64_t channels,
                        std::int64_t in_h, std::int64_t in_w,
                        std::int64_t kernel, std::int64_t stride,
                        std::int64_t pad, Activation act = Activation::kNone);

/// Fully connected layer (in_h == in_w == 1).
LayerDesc make_fully_connected(const std::string& name, std::int64_t in_f,
                               std::int64_t out_f, bool bias = true,
                               Activation act = Activation::kNone);

/// Totals over a lowered network.
std::uint64_t total_macs(const std::vector<LayerDesc>& layers);
std::uint64_t total_params(const std::vector<LayerDesc>& layers);

}  // namespace fuse::nn
