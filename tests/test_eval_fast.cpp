// Tests for the plan-free closed-form evaluator (sched/eval_fast.hpp):
// the oracle-vs-fast equality contract over the complete differential
// grid (networks x variants x dataflows x broadcast x sched modes), the
// transparency/datapath axes, the EvalCache memoization contract, and the
// LatencyKey no-alias guarantees for the new ArrayConfig fields.
#include <gtest/gtest.h>

#include "core/transform.hpp"
#include "nn/ops.hpp"
#include "sched/eval_fast.hpp"
#include "sched/latency.hpp"
#include "sched/netplan.hpp"
#include "systolic/mapping.hpp"
#include "systolic/sim.hpp"
#include "systolic/trace.hpp"
#include "util/rng.hpp"

namespace fuse::sched {
namespace {

using nn::LayerDesc;
using systolic::ArrayConfig;
using systolic::Dataflow;
using systolic::Datapath;
using systolic::MemoryConfig;
using systolic::Pipelining;

// --- equality helpers --------------------------------------------------------

void expect_layer_equal(const LayerDesc& layer, const ArrayConfig& cfg,
                        const MemoryConfig& mem) {
  SCOPED_TRACE(layer.name + " on " + cfg.to_string() + " " +
               dataflow_name(cfg.dataflow));
  const systolic::MappingPlan plan = systolic::lower(layer, cfg);
  const systolic::LatencyEstimate oracle = plan_latency(plan);
  const systolic::TrafficEstimate traffic =
      systolic::plan_traffic(plan, cfg, mem);
  const std::uint64_t peak = systolic::plan_peak_fold_bytes(plan, cfg, mem);

  const LayerCost fast = eval_layer_fast(layer, cfg, mem);
  EXPECT_EQ(fast.latency.cycles, oracle.cycles);
  EXPECT_EQ(fast.latency.folds, oracle.folds);
  EXPECT_EQ(fast.latency.mac_ops, oracle.mac_ops);
  EXPECT_EQ(fast.latency.pe_count, oracle.pe_count);
  EXPECT_EQ(fast.traffic.input_bytes, traffic.input_bytes);
  EXPECT_EQ(fast.traffic.weight_bytes, traffic.weight_bytes);
  EXPECT_EQ(fast.traffic.output_bytes, traffic.output_bytes);
  EXPECT_EQ(fast.peak_fold_bytes, peak);
  EXPECT_EQ(fast.on_array, !plan.ops.empty());
}

void expect_network_equal(const nets::NetworkModel& model,
                          const ArrayConfig& cfg, const MemoryConfig& mem,
                          SchedMode mode) {
  SCOPED_TRACE(model.name + " on " + cfg.to_string() + " " +
               dataflow_name(cfg.dataflow) + " " + sched_mode_name(mode));
  const NetworkPlan plan = plan_network(model, cfg, mem, mode);
  const NetworkRoofline oracle = plan_roofline(plan);
  const NetworkEval ev = eval_network_fast(model, cfg, mem, mode);

  ASSERT_EQ(ev.layers.size(), model.layers.size());
  for (std::size_t i = 0; i < model.layers.size(); ++i) {
    EXPECT_EQ(ev.layers[i].latency.cycles, plan.layer_latency[i].cycles);
    EXPECT_EQ(ev.layers[i].traffic.total_bytes(),
              plan.layer_traffic[i].total_bytes());
  }
  EXPECT_EQ(ev.total_cycles, plan.total_cycles);
  EXPECT_EQ(ev.schedule.on_array, plan.on_array);
  EXPECT_EQ(ev.schedule.staging_bytes, plan.staging_bytes);
  ASSERT_EQ(ev.schedule.buffers.size(), plan.buffers.size());
  for (std::size_t i = 0; i < plan.buffers.size(); ++i) {
    EXPECT_EQ(ev.schedule.buffers[i].producer, plan.buffers[i].producer);
    EXPECT_EQ(ev.schedule.buffers[i].bytes, plan.buffers[i].bytes);
    EXPECT_EQ(ev.schedule.buffers[i].offset, plan.buffers[i].offset);
    EXPECT_EQ(ev.schedule.buffers[i].spilled, plan.buffers[i].spilled);
  }
  ASSERT_EQ(ev.schedule.fused_pairs.size(), plan.fused_pairs.size());
  for (std::size_t i = 0; i < plan.fused_pairs.size(); ++i) {
    EXPECT_EQ(ev.schedule.fused_pairs[i].producer,
              plan.fused_pairs[i].producer);
    EXPECT_EQ(ev.schedule.fused_pairs[i].producer2,
              plan.fused_pairs[i].producer2);
    EXPECT_EQ(ev.schedule.fused_pairs[i].consumer,
              plan.fused_pairs[i].consumer);
    EXPECT_EQ(ev.schedule.fused_pairs[i].saved_output_bytes,
              plan.fused_pairs[i].saved_output_bytes);
    EXPECT_EQ(ev.schedule.fused_pairs[i].saved_input_bytes,
              plan.fused_pairs[i].saved_input_bytes);
  }
  EXPECT_EQ(ev.roofline.compute_cycles, oracle.compute_cycles);
  EXPECT_EQ(ev.roofline.memory_cycles, oracle.memory_cycles);
  EXPECT_EQ(ev.roofline.bound_cycles, oracle.bound_cycles);
  EXPECT_EQ(ev.roofline.total_bytes, oracle.total_bytes);
  EXPECT_EQ(ev.roofline.memory_bound_layers, oracle.memory_bound_layers);
}

// --- the complete differential grid ------------------------------------------

// 5 networks x 5 variants x 3 dataflows x broadcast on/off x 2 sched
// modes — the acceptance grid of the evaluator's equality contract. The
// 50% variants are rebuilt per config (their slot pick is
// config-dependent); both paths then see the identical model.
TEST(EvalFastGrid, MatchesPlanPathEverywhere) {
  const MemoryConfig mem;
  for (nets::NetworkId id : nets::paper_networks()) {
    for (core::NetworkVariant variant : core::all_network_variants()) {
      for (Dataflow dataflow :
           {Dataflow::kOutputStationary, Dataflow::kWeightStationary,
            Dataflow::kInputStationary}) {
        for (bool broadcast : {false, true}) {
          ArrayConfig cfg;
          cfg.dataflow = dataflow;
          cfg.broadcast_links = broadcast;
          const VariantBuild build = build_variant(id, variant, cfg);
          for (SchedMode mode : {SchedMode::kPerLayer, SchedMode::kFused}) {
            expect_network_equal(build.model, cfg, mem, mode);
          }
        }
      }
    }
  }
}

// Per-layer equality on every layer of every baseline + FuSe-Full network
// under the non-default fold-accounting and conv-mapping switches the
// network grid above does not flip — on the default array and on seeded
// non-square arrays (rows and cols in 16..256, the primes 17 and 251
// included) in every dataflow, with and without broadcast links.
TEST(EvalFastGrid, NonDefaultConfigSwitches) {
  const MemoryConfig mem;
  util::Rng rng(1412);
  std::vector<std::pair<std::int64_t, std::int64_t>> shapes = {{17, 251},
                                                               {251, 17}};
  for (int i = 0; i < 2; ++i) {
    shapes.emplace_back(16 + static_cast<std::int64_t>(rng.uniform_index(241)),
                        16 + static_cast<std::int64_t>(rng.uniform_index(241)));
  }
  std::vector<ArrayConfig> arrays(1);  // the default array
  for (const auto& [rows, cols] : shapes) {
    for (Dataflow dataflow :
         {Dataflow::kOutputStationary, Dataflow::kWeightStationary,
          Dataflow::kInputStationary}) {
      for (bool broadcast : {false, true}) {
        ArrayConfig cfg;
        cfg.rows = rows;
        cfg.cols = cols;
        cfg.dataflow = dataflow;
        cfg.broadcast_links = broadcast;
        arrays.push_back(cfg);
      }
    }
  }
  for (nets::NetworkId id : nets::paper_networks()) {
    for (core::NetworkVariant variant :
         {core::NetworkVariant::kBaseline, core::NetworkVariant::kFuseFull}) {
      const VariantBuild build = build_variant(id, variant, ArrayConfig{});
      for (const ArrayConfig& cfg : arrays) {
        for (bool overlap : {false, true}) {
          for (systolic::StandardConvMapping mapping :
               {systolic::StandardConvMapping::kIm2col,
                systolic::StandardConvMapping::kChannelwise}) {
            ArrayConfig variant_cfg = cfg;
            variant_cfg.overlap_fold_drain = overlap;
            variant_cfg.standard_conv_mapping = mapping;
            variant_cfg.strided_fuse_dense_compute = !overlap;  // vary too
            for (const LayerDesc& layer : build.model.layers) {
              expect_layer_equal(layer, variant_cfg, mem);
            }
          }
        }
      }
    }
  }
}

// The transparency and datapath axes: closed forms must track the
// fold-walk on non-square arrays, every dataflow, and every pipelining
// mode, with the memory dtype paired to the datapath.
TEST(EvalFastGrid, TransparencyAndDatapathAxes) {
  for (Pipelining pipe : {Pipelining::kPipelined, Pipelining::kTransparent2,
                          Pipelining::kTransparent4}) {
    for (Datapath dp : {Datapath::kInt8, Datapath::kFp16, Datapath::kFp32}) {
      for (Dataflow dataflow :
           {Dataflow::kOutputStationary, Dataflow::kWeightStationary,
            Dataflow::kInputStationary}) {
        ArrayConfig cfg;
        cfg.rows = 32;
        cfg.cols = 128;
        cfg.dataflow = dataflow;
        cfg.pipelining = pipe;
        cfg.datapath = dp;
        MemoryConfig mem;
        mem.dtype_bytes = cfg.datapath_bytes();
        const VariantBuild build = build_variant(
            nets::NetworkId::kMobileNetV2, core::NetworkVariant::kFuseFull,
            cfg);
        for (const LayerDesc& layer : build.model.layers) {
          expect_layer_equal(layer, cfg, mem);
        }
        expect_network_equal(build.model, cfg, mem, SchedMode::kFused);
      }
    }
  }
}

// At transparency 1 the generalized skew/drain terms must reduce to the
// legacy (span - 1) / span forms — pinned via the cfg-taking fold_cycles
// overload against the original 3-argument one.
TEST(EvalFast, FoldCyclesPipelinedReducesToLegacy) {
  ArrayConfig cfg;  // pipelined default
  for (std::int64_t r : {1, 3, 64}) {
    for (std::int64_t c : {1, 5, 64}) {
      for (std::int64_t d : {1, 7, 100}) {
        EXPECT_EQ(systolic::fold_cycles(r, c, d, cfg),
                  systolic::fold_cycles(r, c, d));
      }
    }
  }
}

// --- EvalCache ---------------------------------------------------------------

TEST(EvalCache, HitMissAccounting) {
  EvalCache cache;
  const LayerDesc dw = nn::make_depthwise("dw", 32, 28, 28, 3, 1, 1);
  ArrayConfig cfg;
  MemoryConfig mem;
  const LayerCost first = cache.get_or_compute(dw, cfg, mem);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
  const LayerCost second = cache.get_or_compute(dw, cfg, mem);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(first.latency.cycles, second.latency.cycles);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_DOUBLE_EQ(cache.hit_rate_pct(), 50.0);
  cache.clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
}

// dtype width is part of the memo key (it scales the byte fields); the
// same shape at a different width must MISS, not alias.
TEST(EvalCache, DtypeBytesKeyed) {
  EvalCache cache;
  const LayerDesc pw = nn::make_pointwise("pw", 32, 14, 14, 64);
  ArrayConfig cfg;
  MemoryConfig fp16;
  MemoryConfig int8 = fp16;
  int8.dtype_bytes = 1;
  const LayerCost wide = cache.get_or_compute(pw, cfg, fp16);
  const LayerCost narrow = cache.get_or_compute(pw, cfg, int8);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(wide.traffic.total_bytes(), 2 * narrow.traffic.total_bytes());
  EXPECT_EQ(wide.latency.cycles, narrow.latency.cycles);
}

// eval_network_fast with a shared cache must return identical values to
// the uncached path.
TEST(EvalCache, CachedNetworkEvalIdentical) {
  ArrayConfig cfg;
  MemoryConfig mem;
  const nets::NetworkModel model =
      nets::build_network(nets::NetworkId::kMobileNetV1);
  EvalCache cache;
  const NetworkEval cold = eval_network_fast(model, cfg, mem,
                                             SchedMode::kFused, &cache);
  const NetworkEval warm = eval_network_fast(model, cfg, mem,
                                             SchedMode::kFused, &cache);
  const NetworkEval plain =
      eval_network_fast(model, cfg, mem, SchedMode::kFused);
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_EQ(cold.total_cycles, plain.total_cycles);
  EXPECT_EQ(warm.total_cycles, plain.total_cycles);
  EXPECT_EQ(warm.roofline.bound_cycles, plain.roofline.bound_cycles);
}

// --- LatencyKey no-alias contract --------------------------------------------

// Two configs differing ONLY in one of the newly keyed fields must
// produce different keys: a cache shared across the DSE grid would
// otherwise serve one config's cycles for another.
TEST(LatencyKey, NewConfigFieldsNeverAlias) {
  const LayerDesc dw = nn::make_depthwise("dw", 32, 28, 28, 3, 1, 1);
  ArrayConfig base;

  ArrayConfig pipe2 = base;
  pipe2.pipelining = Pipelining::kTransparent2;
  ArrayConfig pipe4 = base;
  pipe4.pipelining = Pipelining::kTransparent4;
  ArrayConfig int8 = base;
  int8.datapath = Datapath::kInt8;
  ArrayConfig fp32 = base;
  fp32.datapath = Datapath::kFp32;
  ArrayConfig no_bcast = base;
  no_bcast.broadcast_links = false;
  ArrayConfig no_overlap = base;
  no_overlap.overlap_fold_drain = false;
  ArrayConfig no_strided = base;
  no_strided.strided_fuse_dense_compute = false;
  ArrayConfig channelwise = base;
  channelwise.standard_conv_mapping =
      systolic::StandardConvMapping::kChannelwise;

  const std::vector<ArrayConfig> variants = {
      base,    pipe2,      pipe4,      int8,       fp32,
      no_bcast, no_overlap, no_strided, channelwise};
  for (std::size_t i = 0; i < variants.size(); ++i) {
    for (std::size_t j = i + 1; j < variants.size(); ++j) {
      EXPECT_FALSE(make_latency_key(dw, variants[i]) ==
                   make_latency_key(dw, variants[j]))
          << "configs " << i << " and " << j << " alias";
    }
  }
}

// The packed bitfields must not collide across combined settings either:
// every cross product of the two new enums gets a distinct key.
TEST(LatencyKey, PipeliningDatapathCrossProductDistinct) {
  const LayerDesc pw = nn::make_pointwise("pw", 8, 7, 7, 8);
  std::vector<LatencyKey> keys;
  for (Pipelining pipe : {Pipelining::kPipelined, Pipelining::kTransparent2,
                          Pipelining::kTransparent4}) {
    for (Datapath dp : {Datapath::kInt8, Datapath::kFp16, Datapath::kFp32}) {
      ArrayConfig cfg;
      cfg.pipelining = pipe;
      cfg.datapath = dp;
      keys.push_back(make_latency_key(pw, cfg));
    }
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_FALSE(keys[i] == keys[j]) << i << " vs " << j;
    }
  }
}

// --- simulator guard ---------------------------------------------------------

// The cycle-accurate sims model the fully pipelined array; transparent
// configs must be rejected at construction, not silently mis-simulated.
TEST(SimGuard, RejectsTransparentConfigs) {
  ArrayConfig cfg;
  cfg.pipelining = Pipelining::kTransparent2;
  EXPECT_THROW(systolic::SystolicArraySim sim(cfg), util::Error);
  cfg.pipelining = Pipelining::kPipelined;
  EXPECT_NO_THROW(systolic::SystolicArraySim sim(cfg));
}

}  // namespace
}  // namespace fuse::sched
