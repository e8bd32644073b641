// array_sim: the PE-grid simulator and the executor's marshalling. One op
// runs every on-array layer of one seeded (network, variant, array config)
// through sched::execute_layer_on_array with seeded real tensors. Configs
// keep the array pipelined with fold-drain overlap off (what the simulator
// models); broadcast FuSe layers take the conv1d_broadcast path, the
// others the matmul, im2col and channelwise paths.
#include <algorithm>
#include <cmath>

#include "common.hpp"
#include "nets/zoo.hpp"
#include "nn/ops.hpp"
#include "sched/execute.hpp"
#include "sched/latency.hpp"
#include "sched/latency_cache.hpp"
#include "systolic/mapping.hpp"

namespace perfbench {
namespace {

using fuse::core::NetworkVariant;
using fuse::nn::LayerDesc;
using fuse::nn::OpKind;
using fuse::systolic::ArrayConfig;
using fuse::systolic::Dataflow;
using fuse::systolic::PrimitiveKind;
using fuse::systolic::StandardConvMapping;
using fuse::tensor::Shape;
using fuse::tensor::Tensor;

constexpr std::uint64_t kStreamRound = 31;
constexpr std::uint64_t kStreamOp = 32;
constexpr std::uint64_t kStreamTensor = 33;
constexpr std::uint64_t kStreamSample = 34;

// The networks: the zoo's two scalable builders at width 0.5 and 64x64
// input, so one op simulates tens of millions of MACs, not hundreds.
const fuse::nets::NetworkId kNetworks[] = {fuse::nets::NetworkId::kMobileNetV1,
                                           fuse::nets::NetworkId::kMobileNetV2};
constexpr double kWidth = 0.5;
constexpr std::int64_t kInput = 64;
// Dataflow x broadcast strata every network variant meets once per round.
constexpr int kStrata = 6;

// The simulator tests' output tolerance (tests/test_execute.cpp).
constexpr float kRtol = 1e-3F;
constexpr float kAtol = 1e-4F;

constexpr int kPrims = 4;
const char* const kPrimNames[kPrims] = {"matmul", "im2col", "channelwise",
                                        "fuse1d"};
const char* const kPrimSpans[kPrims] = {"sim.matmul", "sim.im2col",
                                        "sim.channelwise", "sim.fuse1d"};
// Paths of the gmacs metrics: the three dataflows and the broadcast bus.
constexpr int kPaths = 4;
const char* const kPathNames[kPaths] = {"os", "ws", "is", "broadcast"};

int prim_index(PrimitiveKind kind) {
  switch (kind) {
    case PrimitiveKind::kMatmulTile:
      return 0;
    case PrimitiveKind::kIm2colTile:
      return 1;
    case PrimitiveKind::kChannelwiseTile:
      return 2;
    case PrimitiveKind::kFuse1DLine:
      return 3;
  }
  return 0;
}

struct Draw {
  ArrayConfig cfg;
  std::size_t net = 0;
};

struct OnArray {
  std::size_t layer = 0;
  const Tensor* input = nullptr;
  const Tensor* weight = nullptr;
  int prim[2] = {0, 0};  // primitive under im2col / channelwise mapping
};

struct Net {
  fuse::nets::NetworkModel model;
  std::vector<OnArray> layers;
};

/// Per executed layer of the last op.
struct LayerRecord {
  std::uint64_t cycles = 0;
  std::uint64_t folds = 0;
  std::uint64_t mac_ops = 0;
  double host_s = 0.0;
  bool kept = false;
  Tensor output;
};

class ArraySim final : public Workload {
 public:
  const char* name() const override { return "array_sim"; }

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    const ArrayConfig paper = fuse::systolic::square_array(64);
    fuse::sched::LatencyCache cache;
    fuse::util::Rng rng(stream_seed(seed, kStreamTensor, 0));
    for (fuse::nets::NetworkId id : kNetworks) {
      for (NetworkVariant variant : fuse::core::all_network_variants()) {
        // The variant's per-slot modes as chosen on the paper's array,
        // applied to the scaled network.
        Net net;
        net.model = fuse::nets::build_network_scaled(
            id, kWidth,
            fuse::sched::build_variant(id, variant, paper, &cache).modes,
            kInput);
        for (std::size_t i = 0; i < net.model.layers.size(); ++i) {
          const LayerDesc& l = net.model.layers[i];
          if (!l.counts_for_latency() || l.kind == OpKind::kGroupedConv) {
            continue;  // glue: not executed on the array
          }
          OnArray on;
          on.layer = i;
          on.input =
              pool_.get("act", Shape{1, l.in_c, l.in_h, l.in_w}, rng, 1.0F);
          const bool fc = l.kind == OpKind::kFullyConnected;
          const Shape wshape =
              fc ? Shape{l.out_c, l.in_c}
                 : Shape{l.out_c, l.in_c / l.groups, l.kernel_h, l.kernel_w};
          const std::int64_t fan_in =
              fc ? l.in_c : (l.in_c / l.groups) * l.kernel_h * l.kernel_w;
          on.weight = pool_.get(fc ? "fc_w" : "conv_w", wshape, rng,
                                1.0F / std::sqrt(static_cast<float>(fan_in)));
          // Classified once with systolic::lower; the primitive depends
          // only on the layer and the standard-conv mapping (after_op
          // re-checks that against each op's own config).
          for (int m = 0; m < 2; ++m) {
            ArrayConfig cfg = paper;
            cfg.standard_conv_mapping =
                m == 0 ? StandardConvMapping::kIm2col
                       : StandardConvMapping::kChannelwise;
            on.prim[m] =
                prim_index(fuse::systolic::lower(l, cfg).ops.front().kind);
          }
          net.layers.push_back(on);
        }
        nets_.push_back(std::move(net));
      }
    }
    for (std::size_t n = 0; n < nets_.size(); ++n) {
      if (nets_[n].model.total_macs() <
          nets_[warm_net_].model.total_macs()) {
        warm_net_ = n;
      }
    }
    plan_samples();
  }

  /// One warm-up op per dataflow.
  std::vector<std::int64_t> warm_up_ops() const override {
    return {-1, -2, -3};
  }
  int round_size() const override {
    return static_cast<int>(nets_.size()) * kStrata;
  }

  /// Each round runs every network variant once in each dataflow x
  /// broadcast stratum, in a seeded order; the standard-conv mapping
  /// (im2col or channelwise) is drawn per op. Negative
  /// indices are the warm-up ops: the smallest network on a 32x32 array in
  /// each dataflow.
  Draw draw(std::int64_t index) const {
    Draw d;
    d.cfg.overlap_fold_drain = false;  // what the simulator measures
    if (index < 0) {
      d.net = warm_net_;
      d.cfg.rows = d.cfg.cols = 32;
      d.cfg.dataflow = static_cast<Dataflow>(-1 - index);
      return d;
    }
    const int n = round_size();
    const std::size_t pos = static_cast<std::size_t>(index % n);
    fuse::util::Rng round_rng(stream_seed(
        seed_, kStreamRound, static_cast<std::uint64_t>(index / n)));
    const int combo = permutation(round_rng, n)[pos];
    // Rows and cols are Latin-hypercube draws: the round's n ops take one
    // value from each of n equal slices of 16..64, in seeded orders.
    const int row_slice = permutation(round_rng, n)[pos];
    const int col_slice = permutation(round_rng, n)[pos];
    const int nets = static_cast<int>(nets_.size());
    d.net = static_cast<std::size_t>(combo % nets);
    const int stratum = combo / nets;
    d.cfg.dataflow = static_cast<Dataflow>(stratum % 3);
    d.cfg.broadcast_links = stratum / 3 == 1;
    fuse::util::Rng rng(
        stream_seed(seed_, kStreamOp, static_cast<std::uint64_t>(index)));
    d.cfg.standard_conv_mapping = rng.uniform_index(2) == 1
                                      ? StandardConvMapping::kChannelwise
                                      : StandardConvMapping::kIm2col;
    auto lhs = [&](int slice) {
      return 16 + static_cast<std::int64_t>(
                      49.0 * (slice + rng.uniform()) / static_cast<double>(n));
    };
    d.cfg.rows = lhs(row_slice);
    d.cfg.cols = lhs(col_slice);
    return d;
  }

  static int mapping_of(const ArrayConfig& cfg) {
    return cfg.standard_conv_mapping == StandardConvMapping::kChannelwise;
  }

  /// Output-check classes: the four primitives, with the FuSe 1-D lines
  /// split by whether they run on the broadcast bus.
  static int check_class(int prim, const ArrayConfig& cfg) {
    return prim == 3 && !cfg.broadcast_links ? 4 : prim;
  }

  /// The layers whose outputs the first round of every run keeps for the
  /// reference comparison: for each check class, kSamples ops of the round
  /// (scanned from a seeded offset) that contain the class, and one seeded
  /// layer of that class in each. A pure function of the seed.
  void plan_samples() {
    constexpr int kClasses = 5;
    constexpr int kSamples = 2;
    const int n = round_size();
    samples_.assign(static_cast<std::size_t>(n), {});
    fuse::util::Rng rng(stream_seed(seed_, kStreamSample, 0));
    for (int c = 0; c < kClasses; ++c) {
      const int offset = static_cast<int>(
          rng.uniform_index(static_cast<std::uint64_t>(n)));
      int taken = 0;
      for (int k = 0; k < n && taken < kSamples; ++k) {
        const int pos = (offset + k) % n;
        const Draw d = draw(pos);
        const Net& net = nets_[d.net];
        std::vector<std::size_t> of_class;
        for (std::size_t j = 0; j < net.layers.size(); ++j) {
          if (check_class(net.layers[j].prim[mapping_of(d.cfg)], d.cfg) == c) {
            of_class.push_back(j);
          }
        }
        if (!of_class.empty()) {
          samples_[static_cast<std::size_t>(pos)].push_back(
              of_class[rng.uniform_index(of_class.size())]);
          ++taken;
        }
      }
    }
  }

  void run_op(std::int64_t index) override {
    const Draw d = draw(index);
    const Net& net = nets_[d.net];
    const std::vector<std::size_t>& keep =
        index >= 0 && index < round_size()
            ? samples_[static_cast<std::size_t>(index)]
            : no_samples_;
    const int mapping = mapping_of(d.cfg);
    records_.assign(net.layers.size(), LayerRecord{});
    for (std::size_t j = 0; j < net.layers.size(); ++j) {
      const OnArray& on = net.layers[j];
      const Clock::time_point t0 = Clock::now();
      fuse::sched::LayerExecution exec;
      {
        Span span(kPrimSpans[on.prim[mapping]]);
        exec = fuse::sched::execute_layer_on_array(
            net.model.layers[on.layer], *on.input, *on.weight, d.cfg);
      }
      LayerRecord& r = records_[j];
      r.host_s = seconds_between(t0, Clock::now());
      r.cycles = exec.cycles;
      r.folds = exec.folds;
      r.mac_ops = exec.mac_ops;
      if (std::find(keep.begin(), keep.end(), j) != keep.end()) {
        r.kept = true;
        r.output = std::move(exec.output);
      }
    }
  }

  bool after_op(std::int64_t index) override {
    const Draw d = draw(index);
    const Net& net = nets_[d.net];
    const int mapping = mapping_of(d.cfg);
    bool ok = check_layer_macs(checks_, net.model.layers);
    for (std::size_t j = 0; j < net.layers.size(); ++j) {
      const OnArray& on = net.layers[j];
      const LayerDesc& l = net.model.layers[on.layer];
      LayerRecord& r = records_[j];
      const int prim = on.prim[mapping];
      const int path = prim == 3 && d.cfg.broadcast_links
                           ? 3
                           : static_cast<int>(d.cfg.dataflow);
      path_macs_[path] += static_cast<double>(r.mac_ops);
      path_s_[path] += r.host_s;
      cycles_ += static_cast<double>(r.cycles);
      host_s_ += r.host_s;

      int lowered =
          prim_index(fuse::systolic::lower(l, d.cfg).ops.front().kind);
      if (checks_.corrupt("array_sim.classification")) {
        lowered = (lowered + 1) % kPrims;
      }
      ok &= checks_.expect("array_sim.classification", lowered == prim,
                           l.name + " lowers to " + kPrimNames[lowered] +
                               ", classified " + kPrimNames[prim]);
      // Measured cycles, folds and MACs equal the analytic model.
      const fuse::systolic::LatencyEstimate want =
          fuse::sched::layer_latency(l, d.cfg);
      std::uint64_t cycles = r.cycles;
      if (checks_.corrupt("array_sim.cycles_eq_model")) {
        cycles += 1;
      }
      ok &= checks_.expect(
          "array_sim.cycles_eq_model",
          cycles == want.cycles && r.folds == want.folds &&
              r.mac_ops == want.mac_ops,
          l.name + " on " + d.cfg.to_string() + " " +
              fuse::systolic::dataflow_name(d.cfg.dataflow) + ": simulated " +
              std::to_string(cycles) + " cycles, model " +
              std::to_string(want.cycles));
      if (r.kept) {
        ok &= check_output(l, on, check_class(prim, d.cfg), d.cfg, &r.output);
      }
    }
    records_.clear();
    return ok;
  }

  /// A simulated layer output against the nn reference operator.
  bool check_output(const LayerDesc& l, const OnArray& on, int cls,
                    const ArrayConfig& cfg, Tensor* got) {
    static const char* const kClassNames[] = {
        "matmul", "im2col", "channelwise", "fuse1d_broadcast",
        "fuse1d_serial"};
    const std::string check =
        std::string("array_sim.output.") + kClassNames[cls];
    if (checks_.corrupt(check)) {
      (*got)[got->num_elements() / 2] += 1.0F;
    }
    Tensor want;
    if (l.kind == OpKind::kFullyConnected) {
      want = fuse::nn::linear_reference(
                 on.input->reshaped(Shape{1, l.in_c}), *on.weight, nullptr)
                 .reshaped(Shape{1, l.out_c, 1, 1});
    } else {
      fuse::nn::Conv2dParams p;
      p.stride_h = l.stride_h;
      p.stride_w = l.stride_w;
      p.pad_h = l.pad_h;
      p.pad_w = l.pad_w;
      p.groups = l.groups;
      want = fuse::nn::conv2d_reference(*on.input, *on.weight, nullptr, p);
    }
    const bool ok = fuse::tensor::allclose(*got, want, kRtol, kAtol);
    return checks_.expect(
        check, ok,
        l.name + " on " + cfg.to_string() + ": max diff " +
            (got->shape() == want.shape()
                 ? std::to_string(fuse::tensor::max_abs_diff(*got, want))
                 : "shape " + got->shape().to_string()));
  }

  void layer_metrics(const Tracer& trace, Metrics* out) override {
    const double ops = static_cast<double>(trace.ops());
    for (int p = 0; p < kPrims; ++p) {
      double total_s = 0.0;
      for (const SpanTotals& t : trace.per_op(kPrimSpans[p])) {
        total_s += t.total_s;
      }
      (*out)[std::string("sim.") + kPrimNames[p] + "_ms"] = {
          total_s * 1e3 / ops, "ms"};
    }
    for (int d = 0; d < kPaths; ++d) {
      (*out)[std::string("sim.") + kPathNames[d] + "_gmacs_per_s"] = {
          path_s_[d] > 0.0 ? path_macs_[d] / path_s_[d] * 1e-9 : 0.0,
          "GMAC/s"};
    }
    (*out)["sim.mcycles_per_s"] = {
        host_s_ > 0.0 ? cycles_ / host_s_ * 1e-6 : 0.0, "Mcycle/s"};
  }

  void reset_records() override {
    records_.clear();
    std::fill(std::begin(path_macs_), std::end(path_macs_), 0.0);
    std::fill(std::begin(path_s_), std::end(path_s_), 0.0);
    cycles_ = 0.0;
    host_s_ = 0.0;
  }

  std::string describe_settings() const override {
    return "one op = every on-array layer of one of " +
           std::to_string(nets_.size()) +
           " MobileNet-V1/V2 Table-I variants (slots chosen on 64x64 "
           "broadcast OS; width 0.5, 64x64 input) through "
           "execute_layer_on_array on a seeded pipelined array with "
           "fold-drain overlap off: rows, cols Latin-hypercube in 16..64, "
           "mapping im2col or channelwise (coin); each round of " +
           std::to_string(round_size()) +
           " ops runs every variant once in each {OS,WS,IS} x broadcast "
           "on/off stratum; no sched mode (layers execute one by one)";
  }

 private:
  std::uint64_t seed_ = 0;
  std::vector<Net> nets_;
  TensorPool pool_;
  std::size_t warm_net_ = 0;
  std::vector<std::vector<std::size_t>> samples_;  // per first-round op
  const std::vector<std::size_t> no_samples_;
  std::vector<LayerRecord> records_;
  double path_macs_[kPaths] = {};
  double path_s_[kPaths] = {};
  double cycles_ = 0.0;
  double host_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_array_sim() {
  return std::make_unique<ArraySim>();
}

}  // namespace perfbench
