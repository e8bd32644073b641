// host_infer: the nn kernels. One op is one 224x224 inference of one of the
// 25 Table-I variants (built for the paper's 64x64 broadcast array), taken
// in a seeded order: every layer runs through nn::conv2d, nn::linear or the
// nn glue ops on seeded tensors of its declared geometry. Layers are not
// chained (there is no host graph runtime), so each reads a tensor made
// once per distinct shape in set-up.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "nets/zoo.hpp"
#include "nn/activations.hpp"
#include "nn/ops.hpp"
#include "sched/latency.hpp"
#include "sched/latency_cache.hpp"
#include "util/ulp.hpp"

namespace perfbench {
namespace {

using fuse::core::NetworkVariant;
using fuse::nn::LayerDesc;
using fuse::nn::OpKind;
using fuse::tensor::Shape;
using fuse::tensor::Tensor;

constexpr std::uint64_t kStreamRound = 21;
constexpr std::uint64_t kStreamTensor = 22;
constexpr std::uint64_t kStreamSample = 23;
constexpr int kVariants = 5;
// Layers per checked kind whose outputs are compared with the references.
constexpr int kSamplesPerKind = 2;

/// Kernel classes of the per-layer metrics; "glue" is every non-GEMM,
/// non-convolution op (pools, residual adds, squeeze-excite scaling and
/// the activation after a conv/FC).
enum Kind { kConv, kPointwise, kDepthwise, kFuseRow, kFuseCol, kFc, kGlue,
            kKinds };
const char* const kKindNames[kKinds] = {"conv",    "pointwise", "depthwise",
                                        "fuse_row", "fuse_col",  "fc",
                                        "glue"};
const char* const kKindSpans[kKinds] = {
    "nn.conv", "nn.pointwise", "nn.depthwise", "nn.fuse_row",
    "nn.fuse_col", "nn.fc", "nn.glue"};
const char* const kVariantKeys[kVariants] = {
    "baseline", "fuse_full", "fuse_half", "fuse_full50", "fuse_half50"};

Kind kind_of(const LayerDesc& l) {
  switch (l.kind) {
    case OpKind::kStandardConv:
    case OpKind::kGroupedConv:
      return kConv;
    case OpKind::kPointwiseConv:
      return kPointwise;
    case OpKind::kDepthwiseConv:
      return kDepthwise;
    case OpKind::kFuseRowConv:
      return kFuseRow;
    case OpKind::kFuseColConv:
      return kFuseCol;
    case OpKind::kFullyConnected:
      return kFc;
    default:
      return kGlue;
  }
}

bool is_conv(const LayerDesc& l) {
  const Kind k = kind_of(l);
  return k != kFc && k != kGlue;
}

float max_abs(const Tensor& t) {
  float m = 0.0F;
  for (std::int64_t i = 0; i < t.num_elements(); ++i) {
    m = std::max(m, std::fabs(t[i]));
  }
  return m;
}

/// Elementwise comparison under a ULP/absolute tolerance.
bool within(const Tensor& got, const Tensor& want,
            const fuse::util::UlpTolerance& tol, std::string* why) {
  if (!(got.shape() == want.shape())) {
    *why = "shape " + got.shape().to_string() + " != " +
           want.shape().to_string();
    return false;
  }
  for (std::int64_t i = 0; i < got.num_elements(); ++i) {
    if (!fuse::util::ulp_within(got[i], want[i], tol)) {
      *why = "element " + std::to_string(i) + ": " + std::to_string(got[i]) +
             " vs " + std::to_string(want[i]);
      return false;
    }
  }
  return true;
}

/// What one layer of one network reads: pointers into the shared tensors.
struct LayerInputs {
  const Tensor* input = nullptr;   // [1, C, H, W] or [1, F] for FC
  const Tensor* other = nullptr;   // add: second operand; SE: the scale
  const Tensor* weight = nullptr;
  const Tensor* bias = nullptr;
};

struct Net {
  fuse::nets::NetworkModel model;
  int variant = 0;
  std::vector<LayerInputs> inputs;  // parallel to model.layers
  std::uint64_t macs[kKinds] = {};
};

/// A layer output kept from the timed op for the checks, with the output
/// of its activation when the layer has one.
struct Kept {
  std::size_t layer = 0;
  Tensor out;
  bool has_activation = false;
  Tensor activated;
};

class HostInfer final : public Workload {
 public:
  const char* name() const override { return "host_infer"; }

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    const fuse::systolic::ArrayConfig paper = fuse::systolic::square_array(64);
    fuse::sched::LatencyCache cache;
    fuse::util::Rng rng(stream_seed(seed, kStreamTensor, 0));
    for (fuse::nets::NetworkId id : fuse::nets::paper_networks()) {
      int v = 0;
      for (NetworkVariant variant : fuse::core::all_network_variants()) {
        Net net;
        net.model = fuse::sched::build_variant(id, variant, paper, &cache)
                        .model;
        net.variant = v++;
        for (const LayerDesc& l : net.model.layers) {
          net.inputs.push_back(make_inputs(l, rng));
          std::uint64_t macs = 0;
          textbook_macs(l, &macs);
          net.macs[kind_of(l)] += macs;
        }
        nets_.push_back(std::move(net));
      }
    }
    // The sampled (network, layer) pairs whose outputs the checks compare
    // with the references: kSamplesPerKind per op kind, drawn over all
    // networks, so every kind is covered in every run's first round.
    fuse::util::Rng pick(stream_seed(seed, kStreamSample, 0));
    std::map<std::string, std::vector<std::pair<std::size_t, std::size_t>>>
        by_check;
    for (std::size_t n = 0; n < nets_.size(); ++n) {
      for (std::size_t i = 0; i < nets_[n].model.layers.size(); ++i) {
        by_check[check_name(nets_[n].model.layers[i])].push_back({n, i});
      }
    }
    sampled_.assign(nets_.size(), {});
    for (auto& [check, pairs] : by_check) {
      for (int s = 0; s < kSamplesPerKind && !pairs.empty(); ++s) {
        const std::size_t at = pick.uniform_index(pairs.size());
        sampled_[pairs[at].first].push_back(pairs[at].second);
        pairs.erase(pairs.begin() + static_cast<std::ptrdiff_t>(at));
      }
    }
  }

  /// One warm-up inference per variant kind (the first network's).
  std::vector<std::int64_t> warm_up_ops() const override {
    std::vector<std::int64_t> ops;
    for (int v = 0; v < kVariants; ++v) {
      ops.push_back(-1 - v);
    }
    return ops;
  }
  int round_size() const override { return static_cast<int>(nets_.size()); }

  /// Op index -> network: each round runs every network once, in a seeded
  /// order. Negative indices are the warm-up ops.
  std::size_t net_of(std::int64_t index) const {
    if (index < 0) {
      return static_cast<std::size_t>(-1 - index);
    }
    const int n = round_size();
    fuse::util::Rng rng(stream_seed(seed_, kStreamRound,
                                    static_cast<std::uint64_t>(index / n)));
    return static_cast<std::size_t>(
        permutation(rng, n)[static_cast<std::size_t>(index % n)]);
  }

  void run_op(std::int64_t index) override {
    const Clock::time_point t0 = Clock::now();
    const Net& net = nets_[net_of(index)];
    const std::vector<std::size_t>& keep =
        index >= 0 && index < round_size() ? sampled_[net_of(index)]
                                           : no_samples_;
    kept_.clear();
    for (std::size_t i = 0; i < net.model.layers.size(); ++i) {
      const LayerDesc& l = net.model.layers[i];
      const LayerInputs& in = net.inputs[i];
      Tensor out;
      {
        Span span(kKindSpans[kind_of(l)]);
        out = run_layer(l, in);
      }
      const bool has_activation =
          kind_of(l) != kGlue && l.activation != fuse::nn::Activation::kNone;
      Tensor activated;
      if (has_activation) {
        Span span("nn.glue");
        activated = fuse::nn::apply_activation(out, l.activation);
      }
      if (std::find(keep.begin(), keep.end(), i) != keep.end()) {
        kept_.push_back({i, std::move(out), has_activation,
                         std::move(activated)});
      }
    }
    last_op_s_ = seconds_between(t0, Clock::now());
  }

  static Tensor run_layer(const LayerDesc& l, const LayerInputs& in) {
    switch (l.kind) {
      case OpKind::kFullyConnected:
        return fuse::nn::linear(*in.input, *in.weight, in.bias);
      case OpKind::kGlobalAvgPool:
        return fuse::nn::global_avg_pool(*in.input);
      case OpKind::kMaxPool:
        return fuse::nn::max_pool2d(*in.input, l.kernel_h, l.stride_h,
                                    l.kernel_h / 2);
      case OpKind::kAvgPool:
        return fuse::nn::avg_pool2d(*in.input, l.kernel_h, l.stride_h,
                                    l.kernel_h / 2);
      case OpKind::kElementwiseAdd:
        return fuse::nn::add(*in.input, *in.other);
      case OpKind::kActivation:
        return l.in_squeeze_excite
                   ? fuse::nn::scale_channels(*in.input, *in.other)
                   : fuse::nn::apply_activation(*in.input, l.activation);
      default:
        return fuse::nn::conv2d(*in.input, *in.weight, in.bias, params(l));
    }
  }

  static fuse::nn::Conv2dParams params(const LayerDesc& l) {
    fuse::nn::Conv2dParams p;
    p.stride_h = l.stride_h;
    p.stride_w = l.stride_w;
    p.pad_h = l.pad_h;
    p.pad_w = l.pad_w;
    p.groups = l.groups;
    return p;
  }

  bool after_op(std::int64_t index) override {
    const Net& net = nets_[net_of(index)];
    variant_ms_[net.variant].push_back(last_op_s_ * 1e3);
    bool ok = check_layer_macs(checks_, net.model.layers);
    for (Kept& k : kept_) {
      ok &= check_layer(net, k);
    }
    kept_.clear();
    return ok;
  }

  static std::string check_name(const LayerDesc& l) {
    switch (l.kind) {
      case OpKind::kGlobalAvgPool:
        return "host_infer.glue.global_avg_pool";
      case OpKind::kMaxPool:
        return "host_infer.glue.max_pool";
      case OpKind::kAvgPool:
        return "host_infer.glue.avg_pool";
      case OpKind::kElementwiseAdd:
        return "host_infer.glue.add";
      case OpKind::kActivation:
        return "host_infer.glue.scale_channels";
      default:
        return std::string("host_infer.ref.") + kKindNames[kind_of(l)];
    }
  }

  /// Compares one kept output with the reference operator (conv, FC) or
  /// with a naive loop written here (glue), and the activation applied
  /// after a conv/FC with the scalar formula.
  bool check_layer(const Net& net, Kept& k) {
    const LayerDesc& l = net.model.layers[k.layer];
    const LayerInputs& in = net.inputs[k.layer];
    bool ok = true;
    std::string why;
    if (k.has_activation) {
      Tensor act(k.out.shape());
      for (std::int64_t i = 0; i < act.num_elements(); ++i) {
        act[i] = fuse::nn::apply_activation(k.out[i], l.activation);
      }
      if (checks_.corrupt("host_infer.glue.activation")) {
        k.activated[0] += 1.0F;
      }
      const bool same = within(k.activated, act, {}, &why);
      ok &= checks_.expect("host_infer.glue.activation", same,
                           l.name + ": " + why);
    }
    const std::string check = check_name(l);
    if (checks_.corrupt(check)) {
      k.out[k.out.num_elements() / 2] += 1.0F;
    }
    Tensor want;
    fuse::util::UlpTolerance tol;  // exact unless set below
    if (l.kind == OpKind::kFullyConnected || is_conv(l)) {
      const std::int64_t depth = l.kind == OpKind::kFullyConnected
                                     ? l.in_c
                                     : (l.in_c / l.groups) * l.kernel_h *
                                           l.kernel_w;
      const double magnitude =
          static_cast<double>(depth) * max_abs(*in.input) *
              max_abs(*in.weight) +
          (in.bias != nullptr ? max_abs(*in.bias) : 0.0F);
      tol = fuse::util::kernel_float_tolerance(depth, magnitude);
      want = l.kind == OpKind::kFullyConnected
                 ? fuse::nn::linear_reference(*in.input, *in.weight, in.bias)
                 : fuse::nn::conv2d_reference(*in.input, *in.weight, in.bias,
                                              params(l));
    } else {
      want = naive_glue(l, in, &tol);
    }
    const bool close = within(k.out, want, tol, &why);
    ok &= checks_.expect(check, close, l.name + ": " + why);
    return ok;
  }

  static Tensor naive_glue(const LayerDesc& l, const LayerInputs& in,
                           fuse::util::UlpTolerance* tol) {
    const Tensor& x = *in.input;
    const std::int64_t c = l.in_c, h = l.in_h, w = l.in_w;
    Tensor out(Shape{1, l.out_c, l.out_h, l.out_w});
    switch (l.kind) {
      case OpKind::kGlobalAvgPool:
        for (std::int64_t ch = 0; ch < c; ++ch) {
          double acc = 0.0;
          for (std::int64_t i = 0; i < h * w; ++i) {
            acc += x[ch * h * w + i];
          }
          out[ch] = static_cast<float>(acc / static_cast<double>(h * w));
        }
        *tol = {4, 0.0};
        return out;
      case OpKind::kMaxPool:
      case OpKind::kAvgPool: {
        const std::int64_t k = l.kernel_h, s = l.stride_h, p = l.kernel_h / 2;
        for (std::int64_t ch = 0; ch < c; ++ch) {
          for (std::int64_t oy = 0; oy < l.out_h; ++oy) {
            for (std::int64_t ox = 0; ox < l.out_w; ++ox) {
              double best = -INFINITY, acc = 0.0;
              for (std::int64_t ky = 0; ky < k; ++ky) {
                for (std::int64_t kx = 0; kx < k; ++kx) {
                  const std::int64_t iy = oy * s - p + ky, ix = ox * s - p + kx;
                  if (iy >= 0 && iy < h && ix >= 0 && ix < w) {
                    const float v = x[(ch * h + iy) * w + ix];
                    best = std::max(best, static_cast<double>(v));
                    acc += v;
                  }
                }
              }
              out[(ch * l.out_h + oy) * l.out_w + ox] = static_cast<float>(
                  l.kind == OpKind::kMaxPool
                      ? best
                      : acc / static_cast<double>(k * k));
            }
          }
        }
        *tol = {4, 0.0};
        return out;
      }
      case OpKind::kElementwiseAdd:
        for (std::int64_t i = 0; i < out.num_elements(); ++i) {
          out[i] = x[i] + (*in.other)[i];
        }
        return out;
      default:  // kActivation: squeeze-excite scale or an activation
        for (std::int64_t i = 0; i < out.num_elements(); ++i) {
          out[i] = l.in_squeeze_excite
                       ? x[i] * (*in.other)[i / (h * w)]
                       : fuse::nn::apply_activation(x[i], l.activation);
        }
        return out;
    }
  }

  void layer_metrics(const Tracer& trace, Metrics* out) override {
    const double ops = static_cast<double>(trace.ops());
    // MACs of each kind over the traced ops (whole rounds).
    double macs[kKinds] = {};
    for (std::size_t i = 0; i < trace.ops(); ++i) {
      const Net& net = nets_[net_of(static_cast<std::int64_t>(i))];
      for (int k = 0; k < kKinds; ++k) {
        macs[k] += static_cast<double>(net.macs[k]);
      }
    }
    for (int k = 0; k < kKinds; ++k) {
      double total_s = 0.0;
      for (const SpanTotals& t : trace.per_op(kKindSpans[k])) {
        total_s += t.total_s;
      }
      const std::string base = std::string("nn.") + kKindNames[k];
      (*out)[base + "_ms"] = {total_s * 1e3 / ops, "ms"};
      if (k != kGlue) {
        (*out)[base + "_gmacs_per_s"] = {
            total_s > 0.0 ? macs[k] / total_s * 1e-9 : 0.0, "GMAC/s"};
      }
    }
    for (int v = 0; v < kVariants; ++v) {
      (*out)[std::string("host.") + kVariantKeys[v] + "_ms_p50"] = {
          median(variant_ms_[v]), "ms"};
    }
  }

  void reset_records() override {
    for (auto& v : variant_ms_) {
      v.clear();
    }
    kept_.clear();
  }

  std::string describe_settings() const override {
    return "one op = one 224x224 inference of one of " +
           std::to_string(nets_.size()) +
           " Table-I variants (built for 64x64 broadcast OS), each round "
           "runs every variant once in a seeded order; layers run on "
           "seeded tensors of their declared geometry (" +
           std::to_string(pool_.size()) + " distinct tensors, " +
           std::to_string(pool_.bytes() / (1024 * 1024)) +
           " MiB); no sched mode (host kernels only)";
  }

 private:
  /// The layer's tensors from the pool: activations uniform in [-1, 1],
  /// weights scaled by 1/sqrt(fan-in) so outputs stay O(1).
  LayerInputs make_inputs(const LayerDesc& l, fuse::util::Rng& rng) {
    LayerInputs in;
    if (l.kind == OpKind::kFullyConnected) {
      in.input = pool_.get("fc_in", Shape{1, l.in_c}, rng, 1.0F);
      in.weight = pool_.get("fc_w", Shape{l.out_c, l.in_c}, rng,
                            1.0F / std::sqrt(static_cast<float>(l.in_c)));
    } else {
      in.input = pool_.get("act", Shape{1, l.in_c, l.in_h, l.in_w}, rng, 1.0F);
    }
    if (is_conv(l)) {
      const std::int64_t fan_in = (l.in_c / l.groups) * l.kernel_h * l.kernel_w;
      in.weight = pool_.get(
          "conv_w", Shape{l.out_c, l.in_c / l.groups, l.kernel_h, l.kernel_w},
          rng, 1.0F / std::sqrt(static_cast<float>(fan_in)));
    }
    if (l.has_bias) {
      in.bias = pool_.get("bias", Shape{l.out_c}, rng, 0.1F);
    }
    if (l.kind == OpKind::kElementwiseAdd) {
      in.other =
          pool_.get("act2", Shape{1, l.in_c, l.in_h, l.in_w}, rng, 1.0F);
    }
    if (l.kind == OpKind::kActivation && l.in_squeeze_excite) {
      in.other = pool_.get("se_scale", Shape{1, l.in_c, 1, 1}, rng, 1.0F);
    }
    return in;
  }

  std::uint64_t seed_ = 0;
  std::vector<Net> nets_;
  TensorPool pool_;
  std::vector<std::vector<std::size_t>> sampled_;
  const std::vector<std::size_t> no_samples_;
  std::vector<Kept> kept_;
  double last_op_s_ = 0.0;
  std::vector<double> variant_ms_[kVariants];
};

}  // namespace

std::unique_ptr<Workload> make_host_infer() {
  return std::make_unique<HostInfer>();
}

}  // namespace perfbench
